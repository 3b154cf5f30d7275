package attention

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"elsa/internal/srp"
	"elsa/internal/tensor"
)

// clustered builds an attention workload where query i points strongly at
// key target[i], giving concentrated softmax rows like real transformer
// heads. sharpness controls concentration.
func clustered(rng *rand.Rand, nq, n, d int, sharpness float32) (q, k, v *tensor.Matrix, target []int) {
	k = tensor.RandomNormal(rng, n, d)
	v = tensor.RandomNormal(rng, n, d)
	q = tensor.New(nq, d)
	target = make([]int, nq)
	for i := 0; i < nq; i++ {
		target[i] = rng.Intn(n)
		krow := k.Row(target[i])
		qrow := q.Row(i)
		for j := 0; j < d; j++ {
			qrow[j] = sharpness*krow[j] + 0.3*float32(rng.NormFloat64())
		}
	}
	return q, k, v, target
}

func newTestEngine(t *testing.T, cfg Config) *Engine {
	t.Helper()
	if cfg.BiasSamples == 0 {
		cfg.BiasSamples = 300 // keep tests fast; accuracy tested in srp
	}
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestConfigDefaults(t *testing.T) {
	e := newTestEngine(t, Config{D: 64, Seed: 1})
	cfg := e.Config()
	if cfg.K != 64 {
		t.Errorf("default K = %d, want 64", cfg.K)
	}
	if len(cfg.KronShapes) != 3 {
		t.Errorf("default shapes = %v, want 3-factor", cfg.KronShapes)
	}
	if math.Abs(cfg.Scale-0.125) > 1e-12 {
		t.Errorf("default scale = %g, want 1/8", cfg.Scale)
	}
	if cfg.BiasPercentile != 80 {
		t.Errorf("default bias percentile = %g", cfg.BiasPercentile)
	}
	if e.Bias() <= 0 || e.Bias() > 0.5 {
		t.Errorf("calibrated bias = %g, implausible", e.Bias())
	}
	if e.HashMuls() != 768 {
		t.Errorf("default hash cost = %d mults, want 768 (3·d^{4/3})", e.HashMuls())
	}
}

func TestNewEngineValidation(t *testing.T) {
	if _, err := NewEngine(Config{}); err == nil {
		t.Error("D=0 should error")
	}
	if _, err := NewEngine(Config{D: 8, K: -1}); err == nil {
		t.Error("negative K should error")
	}
	if _, err := NewEngine(Config{D: 8, KronShapes: [][2]int{{4, 4}}}); err == nil {
		t.Error("shapes inconsistent with D should error")
	}
	if _, err := NewEngine(Config{D: 8, KronShapes: [][2]int{{9, 8}}}); err == nil {
		t.Error("factor with rows > cols should error")
	}
}

func TestPreprocessNormsAndHashes(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	e := newTestEngine(t, Config{D: 16, Seed: 3})
	keys := tensor.RandomNormal(rng, 20, 16)
	vals := tensor.RandomNormal(rng, 20, 16)
	p, err := e.Preprocess(keys, vals)
	if err != nil {
		t.Fatal(err)
	}
	if p.N() != 20 {
		t.Fatalf("N = %d", p.N())
	}
	maxNorm := 0.0
	for i := 0; i < 20; i++ {
		want := float64(tensor.Norm(keys.Row(i)))
		if math.Abs(p.Norms[i]-want) > 1e-4 {
			t.Errorf("norm[%d] = %g, want %g", i, p.Norms[i], want)
		}
		if !p.Packed.At(i).Equal(e.HashVector(keys.Row(i))) {
			t.Errorf("hash[%d] inconsistent", i)
		}
		if want > maxNorm {
			maxNorm = want
		}
	}
	if math.Abs(p.MaxNorm-maxNorm) > 1e-4 {
		t.Errorf("MaxNorm = %g, want %g", p.MaxNorm, maxNorm)
	}
}

// TestPreprocessMatchesPerKeyHash holds Preprocess, which hashes all keys
// in one SignWords call per kernel batch and squares them in one
// tensor.SelfDots call, to a per-key HashVector and norm over n = 0…17 and
// 256, in float and Quantized mode; 0 rows stage as an empty prefix in
// both modes. The configurations
// cover the (4×4)^⊗3 sign kernel alone, two kernel batches beside a dense
// partial one (k = 160), and the generic d = 16 path.
func TestPreprocessMatchesPerKeyHash(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, cfg := range []Config{{D: 64}, {D: 64, K: 160}, {D: 16}} {
		for _, quant := range []bool{false, true} {
			cfg.Quantized, cfg.Seed = quant, 42
			e := newTestEngine(t, cfg)
			ref := newTestEngine(t, cfg)
			for _, n := range []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 256} {
				keys, vals := &tensor.Matrix{Cols: cfg.D}, &tensor.Matrix{Cols: cfg.D}
				if n > 0 {
					keys, vals = tensor.RandomNormal(rng, n, cfg.D), tensor.RandomNormal(rng, n, cfg.D)
				}
				p, err := e.Preprocess(keys, vals)
				if err != nil {
					t.Fatal(err)
				}
				if n == 0 {
					pe, err := e.PreprocessExact(keys, vals)
					if err != nil || p.N() != 0 || pe.N() != 0 {
						t.Fatalf("cfg %+v: 0 rows give %d and %d keys, err %v", cfg, p.N(), pe.N(), err)
					}
				}
				maxNorm := 0.0
				for i := 0; i < n; i++ {
					row := p.Keys.Row(i)
					if !p.Packed.At(i).Equal(ref.HashVector(row)) {
						t.Fatalf("cfg %+v n=%d: hash %d differs from HashVector", cfg, n, i)
					}
					want := math.Sqrt(float64(tensor.Dot(row, row)))
					if quant {
						want = normFormat.Quantize(ref.sqrtU.Sqrt(float64(tensor.Dot(row, row))))
					}
					if p.Norms[i] != want {
						t.Fatalf("cfg %+v n=%d: norm %d = %v, want %v", cfg, n, i, p.Norms[i], want)
					}
					maxNorm = math.Max(maxNorm, want)
				}
				if p.MaxNorm != maxNorm {
					t.Fatalf("cfg %+v n=%d: MaxNorm %v, want %v", cfg, n, p.MaxNorm, maxNorm)
				}
			}
		}
	}
}

// TestHashReorderedStateBatches restores an engine whose dense partial
// batch comes before its (4×4)^⊗3 batch, so the kernel batch starts at
// bit 32: its hash must still be ApplyTo + PackSigns per batch, in the
// restored order.
func TestHashReorderedStateBatches(t *testing.T) {
	st := newTestEngine(t, Config{D: 64, K: 96, Seed: 44}).State()
	st.Batches[0], st.Batches[1] = st.Batches[1], st.Batches[0]
	e, err := NewEngineFromState(st)
	if err != nil {
		t.Fatal(err)
	}
	keys := tensor.RandomNormal(rand.New(rand.NewSource(44)), 9, 64)
	p, err := e.Preprocess(keys, keys.Clone())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < keys.Rows; i++ {
		want := srp.NewBitVec(96)
		bit := 0
		for _, proj := range e.projs {
			out := make([]float32, proj.K)
			proj.ApplyTo(out, keys.Row(i), nil)
			srp.PackSigns(want.Words, bit, out)
			bit += proj.K
		}
		if !p.Packed.At(i).Equal(want) || !e.HashVector(keys.Row(i)).Equal(want) {
			t.Fatalf("key %d: Preprocess %x, HashVector %x, want %x", i, p.Packed.Row(i), e.HashVector(keys.Row(i)).Words, want.Words)
		}
	}
}

func TestPreprocessValidation(t *testing.T) {
	e := newTestEngine(t, Config{D: 16, Seed: 4})
	for _, tc := range []struct {
		name       string
		keys, vals *tensor.Matrix
	}{
		{"wrong_key_dim", tensor.New(4, 8), tensor.New(4, 8)},
		{"mismatched_value_rows", tensor.New(4, 16), tensor.New(5, 16)},
		{"mismatched_value_dim", tensor.New(4, 16), tensor.New(4, 8)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := e.Preprocess(tc.keys, tc.vals); err == nil {
				t.Errorf("%s should error", tc.name)
			}
		})
	}
}

func TestPreprocessQuantizedDoesNotMutateInput(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	e := newTestEngine(t, Config{D: 16, Quantized: true, Seed: 5})
	keys := tensor.RandomNormal(rng, 4, 16)
	vals := tensor.RandomNormal(rng, 4, 16)
	orig := keys.Clone()
	if _, err := e.Preprocess(keys, vals); err != nil {
		t.Fatal(err)
	}
	if tensor.MaxAbsDiff(keys, orig) != 0 {
		t.Error("Preprocess must not mutate caller's matrices in quantized mode")
	}
}

func TestAttendNoApproxMatchesExact(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	e := newTestEngine(t, Config{D: 64, Seed: 6})
	q, k, v, _ := clustered(rng, 24, 48, 64, 1.5)
	p, err := e.Preprocess(k, v)
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Attend(q, p, ExactThresholdNoApprox)
	if err != nil {
		t.Fatal(err)
	}
	if res.CandidateFraction(48) != 1 {
		t.Errorf("no-approx threshold should select all keys, fraction %g", res.CandidateFraction(48))
	}
	want := Exact(q, k, v, e.Config().Scale)
	if d := tensor.MaxAbsDiff(want, res.Output); d > 1e-4 {
		t.Errorf("no-approx output diverges from exact by %g", d)
	}
	if res.FallbackQueries != 0 {
		t.Error("no fallback expected with no-approx threshold")
	}
}

func TestAttendValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	e := newTestEngine(t, Config{D: 16, Seed: 7})
	k := tensor.RandomNormal(rng, 8, 16)
	p, err := e.Preprocess(k, k.Clone())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Attend(tensor.New(2, 8), p, 0); err == nil {
		t.Error("wrong query dim should error")
	}
}

func TestAttendFallbackOnImpossibleThreshold(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	e := newTestEngine(t, Config{D: 16, Seed: 8})
	q := tensor.RandomNormal(rng, 5, 16)
	k := tensor.RandomNormal(rng, 10, 16)
	p, err := e.Preprocess(k, k.Clone())
	if err != nil {
		t.Fatal(err)
	}
	// Threshold above any possible similarity: nothing passes; every query
	// must fall back to exactly one candidate.
	res, err := e.Attend(q, p, 10)
	if err != nil {
		t.Fatal(err)
	}
	if res.FallbackQueries != 5 {
		t.Errorf("FallbackQueries = %d, want 5", res.FallbackQueries)
	}
	for i, c := range res.CandidateCounts {
		if c != 1 {
			t.Errorf("query %d: candidates = %d, want 1 (fallback)", i, c)
		}
	}
	// Output rows must be finite and equal to the chosen value row.
	for i := 0; i < 5; i++ {
		y := res.Candidates[i][0]
		for j, got := range res.Output.Row(i) {
			if math.Abs(float64(got)-float64(p.Values.At(y, j))) > 1e-5 {
				t.Fatalf("fallback output should equal value row %d", y)
			}
		}
	}
}

func TestFilteringKeepsFidelityOnClusteredData(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	e := newTestEngine(t, Config{D: 64, Seed: 9})
	q, k, v, _ := clustered(rng, 64, 128, 64, 2)
	// Learn a conservative threshold (p = 1) on a held-out invocation.
	qc, kc, _, _ := clustered(rng, 64, 128, 64, 2)
	tt, err := NewThresholdTrainer(1, e.Config().Scale)
	if err != nil {
		t.Fatal(err)
	}
	if err := tt.Observe(qc, kc); err != nil {
		t.Fatal(err)
	}
	thr, err := tt.Threshold()
	if err != nil {
		t.Fatal(err)
	}
	p, err := e.Preprocess(k, v)
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Attend(q, p, thr)
	if err != nil {
		t.Fatal(err)
	}
	frac := res.CandidateFraction(128)
	if frac >= 0.9 {
		t.Errorf("filter should prune keys on clustered data, fraction %g", frac)
	}
	// Assert fidelity against both exact oracles: the bounds must hold no
	// matter which independent implementation defines "exact", and the two
	// measurements must agree with each other.
	fids := make([]Fidelity, 0, 2)
	for _, o := range Oracles() {
		fid, err := CompareExact(o, q, k, v, e.Config().Scale, res)
		if err != nil {
			t.Fatal(err)
		}
		if fid.MeanCosine < 0.95 {
			t.Errorf("oracle %v: fidelity too low: %v (fraction %g)", o, fid, frac)
		}
		if fid.RetainedMass < 0.8 {
			t.Errorf("oracle %v: retained mass too low: %v", o, fid)
		}
		fids = append(fids, fid)
	}
	if d := math.Abs(fids[0].RetainedMass - fids[1].RetainedMass); d > 1e-6 {
		t.Errorf("oracles disagree on retained mass by %g: %v vs %v", d, fids[0], fids[1])
	}
	if d := math.Abs(fids[0].MeanCosine - fids[1].MeanCosine); d > 1e-6 {
		t.Errorf("oracles disagree on mean cosine by %g: %v vs %v", d, fids[0], fids[1])
	}
}

func TestCandidateFractionMonotoneInThreshold(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	e := newTestEngine(t, Config{D: 64, Seed: 10})
	q, k, v, _ := clustered(rng, 32, 64, 64, 1.5)
	p, err := e.Preprocess(k, v)
	if err != nil {
		t.Fatal(err)
	}
	prev := math.Inf(1)
	for _, thr := range []float64{-2, 0, 0.2, 0.5, 1} {
		res, err := e.Attend(q, p, thr)
		if err != nil {
			t.Fatal(err)
		}
		f := res.CandidateFraction(64)
		if f > prev+1e-12 {
			t.Fatalf("candidate fraction must not increase with threshold (t=%g: %g > %g)", thr, f, prev)
		}
		prev = f
	}
}

func TestQuantizedEngineTracksFloat(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	eq := newTestEngine(t, Config{D: 64, Quantized: true, Seed: 11})
	ef := newTestEngine(t, Config{D: 64, Quantized: false, Seed: 11})
	q, k, v, _ := clustered(rng, 16, 32, 64, 1.5)
	pq, err := eq.Preprocess(k, v)
	if err != nil {
		t.Fatal(err)
	}
	pf, err := ef.Preprocess(k, v)
	if err != nil {
		t.Fatal(err)
	}
	rq, err := eq.Attend(q, pq, ExactThresholdNoApprox)
	if err != nil {
		t.Fatal(err)
	}
	rf, err := ef.Attend(q, pf, ExactThresholdNoApprox)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < q.Rows; i++ {
		if c := tensor.CosineSim(rq.Output.Row(i), rf.Output.Row(i)); c < 0.98 {
			t.Errorf("row %d: quantized output cosine %g, want > 0.98", i, c)
		}
	}
}

func TestSelectCandidatesReusesDst(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	e := newTestEngine(t, Config{D: 16, Seed: 12})
	k := tensor.RandomNormal(rng, 8, 16)
	p, err := e.Preprocess(k, k.Clone())
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]int, 0, 8)
	got := e.SelectCandidates(e.HashVector(k.Row(0)), p, ExactThresholdNoApprox, buf)
	if len(got) != 8 {
		t.Errorf("all 8 keys should pass, got %d", len(got))
	}
}

// Property: for any random inputs, the no-approx path reproduces exact
// attention.
func TestNoApproxEqualsExactProperty(t *testing.T) {
	e := newTestEngine(t, Config{D: 16, Seed: 13})
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		q := tensor.RandomNormal(rng, 1+rng.Intn(6), 16)
		k := tensor.RandomNormal(rng, 2+rng.Intn(12), 16)
		v := tensor.RandomNormal(rng, k.Rows, 16)
		p, err := e.Preprocess(k, v)
		if err != nil {
			return false
		}
		res, err := e.Attend(q, p, ExactThresholdNoApprox)
		if err != nil {
			return false
		}
		return tensor.MaxAbsDiff(Exact(q, k, v, e.Config().Scale), res.Output) < 1e-3
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// Property: every candidate index returned is a valid key index and the
// lists are duplicate-free.
func TestCandidateIndicesValidProperty(t *testing.T) {
	e := newTestEngine(t, Config{D: 16, Seed: 14})
	f := func(seed int64, thrRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(20)
		k := tensor.RandomNormal(rng, n, 16)
		q := tensor.RandomNormal(rng, 3, 16)
		p, err := e.Preprocess(k, k.Clone())
		if err != nil {
			return false
		}
		thr := float64(thrRaw)/64 - 2 // range [-2, 2)
		res, err := e.Attend(q, p, thr)
		if err != nil {
			return false
		}
		for _, cand := range res.Candidates {
			seen := map[int]bool{}
			for _, y := range cand {
				if y < 0 || y >= n || seen[y] {
					return false
				}
				seen[y] = true
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestCandidateFractionEdgeCases(t *testing.T) {
	r := &Result{}
	if r.CandidateFraction(10) != 0 {
		t.Error("empty result fraction should be 0")
	}
	r2 := &Result{CandidateCounts: []int{1}, TotalCandidates: 1}
	if r2.CandidateFraction(0) != 0 {
		t.Error("zero-key fraction should be 0")
	}
}

// TestNonFiniteInputsRejected plants NaN, +Inf and −Inf at the first, a
// middle and the last element of K, V and Q: each is refused with the
// matrix named, and nothing else is; with K and V both non-finite the key
// matrix is named. The check takes 32 elements per step where the CPU has
// AVX2: at d = 13 the matrices' 65 elements leave one for its tail loop,
// and at d = 37 their 185 leave 25.
func TestNonFiniteInputsRejected(t *testing.T) {
	for _, d := range []int{16, 13, 37} {
		e := newTestEngine(t, Config{D: d, Seed: 30})
		rng := rand.New(rand.NewSource(30))
		good := tensor.RandomNormal(rng, 5, d)
		pre, err := e.Preprocess(good, good.Clone())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e.Attend(good, pre, 0); err != nil {
			t.Fatalf("d=%d: finite query refused: %v", d, err)
		}
		for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			for _, at := range []int{0, len(good.Data) / 2, len(good.Data) - 1} {
				m := good.Clone()
				m.Data[at] = float32(bad)
				for _, c := range []struct {
					name string
					run  func() error
				}{
					{"key matrix", func() error { _, err := e.Preprocess(m, good); return err }},
					{"value matrix", func() error { _, err := e.Preprocess(good, m); return err }},
					{"key matrix", func() error { _, err := e.Preprocess(m, m); return err }},
					{"query matrix", func() error { _, err := e.Attend(m, pre, 0); return err }},
				} {
					want := "attention: " + c.name + " contains a non-finite value"
					if err := c.run(); err == nil || err.Error() != want {
						t.Errorf("d=%d: %v at element %d of the %s: error %v, want %q", d, bad, at, c.name, err, want)
					}
				}
			}
		}
	}
}

func TestCosLUTMatchesFormula(t *testing.T) {
	e := newTestEngine(t, Config{D: 16, Seed: 31})
	lut := e.CosLUT()
	if len(lut) != e.Config().K+1 {
		t.Fatalf("LUT has %d entries, want k+1 = %d", len(lut), e.Config().K+1)
	}
	for h := 0; h <= e.Config().K; h++ {
		want := srp.ApproxSimilarity(h, e.Config().K, e.Bias(), 1)
		if math.Abs(lut[h]-want) > 1e-12 {
			t.Errorf("LUT[%d] = %g, formula gives %g", h, lut[h], want)
		}
	}
	// Monotone non-increasing in Hamming distance.
	for h := 1; h < len(lut); h++ {
		if lut[h] > lut[h-1]+1e-12 {
			t.Errorf("LUT must be non-increasing at %d", h)
		}
	}
}

func TestQuantizedNormsUseEightBitFormat(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	e := newTestEngine(t, Config{D: 16, Quantized: true, Seed: 32})
	keys := tensor.RandomNormal(rng, 10, 16)
	pre, err := e.Preprocess(keys, keys.Clone())
	if err != nil {
		t.Fatal(err)
	}
	for i, n := range pre.Norms {
		if n != normFormat.Quantize(n) {
			t.Errorf("norm[%d] = %g not on the 8-bit grid", i, n)
		}
		if n < 0 || n > normFormat.Max() {
			t.Errorf("norm[%d] = %g outside the 8-bit range", i, n)
		}
	}
}

func TestEngineStateRoundTrip(t *testing.T) {
	for _, k := range []int{16, 64, 96} {
		e := newTestEngine(t, Config{D: 64, K: k, Seed: 60})
		re, err := NewEngineFromState(e.State())
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		if re.Bias() != e.Bias() {
			t.Errorf("k=%d: bias changed", k)
		}
		rng := rand.New(rand.NewSource(60))
		x := tensor.RandomNormal(rng, 1, 64).Row(0)
		if !re.HashVector(x).Equal(e.HashVector(x)) {
			t.Errorf("k=%d: restored engine hashes differently", k)
		}
		if re.HashMuls() != e.HashMuls() {
			t.Errorf("k=%d: hash cost changed", k)
		}
	}
}

func TestNewEngineFromStateValidation(t *testing.T) {
	e := newTestEngine(t, Config{D: 16, Seed: 61})
	good := e.State()

	bad := good
	bad.Bias = math.NaN()
	if _, err := NewEngineFromState(bad); err == nil {
		t.Error("NaN bias should error")
	}

	bad = good
	bad.Batches = nil
	if _, err := NewEngineFromState(bad); err == nil {
		t.Error("no batches should error")
	}

	bad = e.State()
	bad.Config.K = 99 // inconsistent with batch widths
	if _, err := NewEngineFromState(bad); err == nil {
		t.Error("k mismatch should error")
	}

	bad = e.State()
	bad.Batches[0][0] = [][]float32{{1, 2}, {3}} // ragged factor
	if _, err := NewEngineFromState(bad); err == nil {
		t.Error("ragged factor should error")
	}

	bad = e.State()
	bad.Config.D = 8 // batches map 16 dims
	if _, err := NewEngineFromState(bad); err == nil {
		t.Error("d mismatch should error")
	}
}
