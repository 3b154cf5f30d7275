package elsa

import (
	"bytes"
	"math"
	"math/rand"
	"strings"
	"testing"

	"elsa/internal/attention"
)

func TestSaveLoadRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(50))
	orig := newEngine(t, Options{Seed: 50})
	var buf bytes.Buffer
	if err := orig.Save(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := LoadEngine(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if restored.Bias() != orig.Bias() {
		t.Errorf("bias changed across round trip: %g vs %g", restored.Bias(), orig.Bias())
	}
	if restored.Options().HashBits != orig.Options().HashBits {
		t.Error("options changed across round trip")
	}
	// Bit-identical behaviour: same candidates, same outputs, including
	// under a learned threshold.
	cq, ck, _ := genData(rng, 48, 96, 64)
	thr, err := orig.Calibrate(1, []Sample{{Q: cq, K: ck}})
	if err != nil {
		t.Fatal(err)
	}
	q, k, v := genData(rng, 32, 64, 64)
	a, err := orig.Attend(q, k, v, thr)
	if err != nil {
		t.Fatal(err)
	}
	b, err := restored.Attend(q, k, v, thr)
	if err != nil {
		t.Fatal(err)
	}
	if a.CandidateFraction != b.CandidateFraction || a.FallbackQueries != b.FallbackQueries {
		t.Fatal("restored engine selects different candidates")
	}
	for i := range a.Context {
		for j := range a.Context[i] {
			if a.Context[i][j] != b.Context[i][j] {
				t.Fatalf("restored engine output differs at %d,%d", i, j)
			}
		}
	}
	// The restored engine's simulator must work too.
	if _, err := restored.Simulate(q, k, v, thr); err != nil {
		t.Fatal(err)
	}
}

func TestRestoreValidation(t *testing.T) {
	orig := newEngine(t, Options{Seed: 51})
	snap := orig.Snapshot()

	bad := snap
	bad.Version = 99
	if _, err := Restore(bad); err == nil {
		t.Error("wrong version should error")
	}

	bad = snap
	bad.Batches = nil
	if _, err := Restore(bad); err == nil {
		t.Error("missing batches should error")
	}

	bad = orig.Snapshot()
	bad.Batches[0] = bad.Batches[0][:1] // corrupt factor structure
	if _, err := Restore(bad); err == nil {
		t.Error("corrupted factors should error")
	}

	// Factor shapes multiply: three 16×1 factors ask for 16³ hash bits
	// of a d=1 engine, and fifteen 2×2 factors for d = 2^15.
	tall := make([][]float32, 16)
	for i := range tall {
		tall[i] = []float32{1}
	}
	bad = Snapshot{Version: snapshotVersion, Options: Options{HeadDim: 1, HashBits: 16 * 16 * 16},
		Batches: [][][][]float32{{tall, tall, tall}}}
	if _, err := Restore(bad); err == nil || !strings.Contains(err.Error(), "not a hash factor") {
		t.Errorf("factors taller than wide: %v", err)
	}
	wide := make([][][]float32, 15)
	for i := range wide {
		wide[i] = [][]float32{{1, 0}, {0, 1}}
	}
	bad = Snapshot{Version: snapshotVersion, Options: Options{HeadDim: 1 << 15}, Batches: [][][][]float32{wide}}
	if _, err := Restore(bad); err == nil || !strings.Contains(err.Error(), "above the") {
		t.Errorf("d = 2^15: %v", err)
	}
}

func TestLoadEngineRejectsGarbage(t *testing.T) {
	if _, err := LoadEngine(strings.NewReader("not json")); err == nil {
		t.Error("garbage input should error")
	}
}

func TestThresholdRoundTrip(t *testing.T) {
	cases := []struct {
		name string
		thr  Threshold
	}{
		{"calibrated", Threshold{P: 1, T: 0.3127, Queries: 96}},
		{"exact fallback p=0", Exact()},
		{"very small t", Threshold{P: 8, T: 1e-300, Queries: 1}},
		{"very large t", Threshold{P: 0.25, T: 1e300, Queries: 3}},
		{"negative t", Threshold{P: 2, T: -1.5, Queries: 7}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var buf bytes.Buffer
			if err := SaveThreshold(&buf, tc.thr); err != nil {
				t.Fatal(err)
			}
			got, err := LoadThreshold(&buf)
			if err != nil {
				t.Fatal(err)
			}
			if got != tc.thr {
				t.Errorf("round trip changed the threshold: %+v vs %+v", got, tc.thr)
			}
		})
	}
}

func TestThresholdLoadNormalizesExactFallback(t *testing.T) {
	// A p=0 record must come back filter-disabled even if its stored t is
	// some other (stale) value.
	got, err := LoadThreshold(strings.NewReader(`{"version":1,"p":0,"t":0.75,"queries":4}`))
	if err != nil {
		t.Fatal(err)
	}
	if got.T != attention.ExactThresholdNoApprox {
		t.Errorf("p=0 should load as the exact threshold, got t=%g", got.T)
	}
	if got.Queries != 4 {
		t.Errorf("queries should survive, got %d", got.Queries)
	}
}

func TestThresholdSaveRejectsNonFinite(t *testing.T) {
	for _, thr := range []Threshold{
		{P: 1, T: math.NaN()},
		{P: 1, T: math.Inf(1)},
		{P: math.NaN(), T: 0.5},
		{P: -1, T: 0.5},
		{P: 1, T: 0.5, Queries: -2},
	} {
		var buf bytes.Buffer
		if err := SaveThreshold(&buf, thr); err == nil {
			t.Errorf("threshold %+v should be rejected", thr)
		}
	}
}

func TestThresholdLoadErrorPaths(t *testing.T) {
	cases := []struct {
		name, body string
	}{
		{"garbage", "not json"},
		{"truncated", `{"version":1,"p":1`},
		{"wrong version", `{"version":9,"p":1,"t":0.5}`},
		{"negative p", `{"version":1,"p":-2,"t":0.5}`},
		{"negative queries", `{"version":1,"p":1,"t":0.5,"queries":-1}`},
	}
	for _, tc := range cases {
		if _, err := LoadThreshold(strings.NewReader(tc.body)); err == nil {
			t.Errorf("%s: corrupted threshold file should error", tc.name)
		}
	}
}

func TestThresholdRoundTripThroughCalibration(t *testing.T) {
	// A threshold calibrated on real data survives the disk round trip and
	// selects identical candidates afterwards.
	rng := rand.New(rand.NewSource(53))
	e := newEngine(t, Options{Seed: 53})
	cq, ck, _ := genData(rng, 32, 64, 64)
	thr, err := e.Calibrate(1, []Sample{{Q: cq, K: ck}})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := SaveThreshold(&buf, thr); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadThreshold(&buf)
	if err != nil {
		t.Fatal(err)
	}
	q, k, v := genData(rng, 16, 48, 64)
	a, err := e.Attend(q, k, v, thr)
	if err != nil {
		t.Fatal(err)
	}
	b, err := e.Attend(q, k, v, loaded)
	if err != nil {
		t.Fatal(err)
	}
	if a.CandidateFraction != b.CandidateFraction {
		t.Error("loaded threshold selects different candidates")
	}
}

func TestSnapshotDefaultsApplyOnRestore(t *testing.T) {
	orig := newEngine(t, Options{Seed: 52})
	snap := orig.Snapshot()
	snap.Options.Hardware = Hardware{} // zero hardware -> default on restore
	restored, err := Restore(snap)
	if err != nil {
		t.Fatal(err)
	}
	if restored.Options().Hardware != DefaultHardware() {
		t.Error("zero hardware should restore to the default")
	}
}
