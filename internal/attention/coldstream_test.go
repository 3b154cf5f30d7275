package attention

import (
	"bytes"
	"math"
	"math/rand"
	"strings"
	"testing"

	"elsa/internal/fixed"
	"elsa/internal/tensor"
)

// coldFidelityBound is the pinned cold-prefix fidelity bound for
// float-mode engines: demotion rounds each K/V element to the Q(1,5,3)
// grid (step 1/8, worst-case rounding error 1/16 per element), and the
// softmax reweighting that score perturbation induces stays within one
// quantization step for unit-scale inputs. Quantized engines demote
// bit-losslessly and owe an exact match instead.
var coldFidelityBound = fixed.QKV.Step()

func fillStream(t *testing.T, st *Stream, k, v *tensor.Matrix) {
	t.Helper()
	for i := 0; i < k.Rows; i++ {
		if err := st.Append(k.Row(i), v.Row(i)); err != nil {
			t.Fatal(err)
		}
	}
}

func TestColdStreamDemotesPastWatermark(t *testing.T) {
	e := newTestEngine(t, Config{D: 16, Seed: 3})
	st := e.NewStreamCold(0, 8)
	rng := rand.New(rand.NewSource(3))
	k := tensor.RandomNormal(rng, 40, 16)
	v := tensor.RandomNormal(rng, 40, 16)
	fillStream(t, st, k, v)
	if st.Len() != 40 {
		t.Fatalf("Len = %d", st.Len())
	}
	hot := st.Len() - st.ColdLen()
	if hot < 8 || hot >= 16 {
		t.Fatalf("hot tail %d tokens, want within [8, 16)", hot)
	}
	if st.ColdLen() == 0 {
		t.Fatal("no tokens demoted past the watermark")
	}
	// The cold store must actually be smaller than the f32 rows it
	// replaced: 9 packed bits vs 32.
	allHot := e.NewStream(0)
	fillStream(t, allHot, k, v)
	if st.StateBytes() >= allHot.StateBytes() {
		t.Fatalf("cold stream resident %dB, all-hot %dB", st.StateBytes(), allHot.StateBytes())
	}
}

// TestColdStreamFidelityFloat pins the float-mode cold-prefix fidelity
// bound: a watermarked stream's outputs stay within coldFidelityBound of
// the all-hot stream's, element-wise, across operating points.
func TestColdStreamFidelityFloat(t *testing.T) {
	e := newTestEngine(t, Config{D: 16, Seed: 4})
	rng := rand.New(rand.NewSource(4))
	k := tensor.RandomNormal(rng, 64, 16)
	v := tensor.RandomNormal(rng, 64, 16)
	hot := e.NewStream(0)
	cold := e.NewStreamCold(0, 8)
	fillStream(t, hot, k, v)
	fillStream(t, cold, k, v)
	if cold.ColdLen() == 0 {
		t.Fatal("watermarked stream demoted nothing")
	}
	q := tensor.RandomNormal(rng, 8, 16)
	for _, thr := range []float64{ExactThresholdNoApprox, 0.2} {
		for i := 0; i < q.Rows; i++ {
			want, _, err := hot.Query(q.Row(i), thr)
			if err != nil {
				t.Fatal(err)
			}
			got, _, err := cold.Query(q.Row(i), thr)
			if err != nil {
				t.Fatal(err)
			}
			for j := range want {
				if d := math.Abs(float64(got[j] - want[j])); d > coldFidelityBound {
					t.Fatalf("thr=%g query %d elem %d: cold diverges by %g > bound %g",
						thr, i, j, d, coldFidelityBound)
				}
			}
		}
	}
}

// TestColdStreamBitIdenticalQuantized: on a quantized engine the hot K/V
// rows are already on the Q(1,5,3) grid, so demotion is lossless and the
// watermarked stream must answer bit-identically to the all-hot one.
func TestColdStreamBitIdenticalQuantized(t *testing.T) {
	e := newTestEngine(t, Config{D: 16, Seed: 5, Quantized: true})
	rng := rand.New(rand.NewSource(5))
	k := tensor.RandomNormal(rng, 48, 16)
	v := tensor.RandomNormal(rng, 48, 16)
	hot := e.NewStream(0)
	cold := e.NewStreamCold(0, 6)
	fillStream(t, hot, k, v)
	fillStream(t, cold, k, v)
	if cold.ColdLen() == 0 {
		t.Fatal("watermarked stream demoted nothing")
	}
	q := tensor.RandomNormal(rng, 6, 16)
	for _, thr := range []float64{ExactThresholdNoApprox, 0.2} {
		for i := 0; i < q.Rows; i++ {
			want, wantStats, err := hot.Query(q.Row(i), thr)
			if err != nil {
				t.Fatal(err)
			}
			got, gotStats, err := cold.Query(q.Row(i), thr)
			if err != nil {
				t.Fatal(err)
			}
			if gotStats != wantStats {
				t.Fatalf("thr=%g query %d: stats %+v vs %+v", thr, i, gotStats, wantStats)
			}
			for j := range want {
				if got[j] != want[j] {
					t.Fatalf("thr=%g query %d elem %d: %g != %g (quantized demotion must be lossless)",
						thr, i, j, got[j], want[j])
				}
			}
		}
	}
}

// TestColdStreamRowsRoundTrip: Rows/Keys over a demoted stream return the
// dequantized prefix, and on a quantized engine that round-trip is exact.
func TestColdStreamRowsRoundTrip(t *testing.T) {
	e := newTestEngine(t, Config{D: 16, Seed: 6, Quantized: true})
	rng := rand.New(rand.NewSource(6))
	k := tensor.RandomNormal(rng, 30, 16)
	v := tensor.RandomNormal(rng, 30, 16)
	hot := e.NewStream(0)
	cold := e.NewStreamCold(0, 4)
	fillStream(t, hot, k, v)
	fillStream(t, cold, k, v)
	hk, hv := hot.Rows()
	ck, cv := cold.Rows()
	for i := range hk {
		for j := range hk[i] {
			if ck[i][j] != hk[i][j] || cv[i][j] != hv[i][j] {
				t.Fatalf("row %d elem %d: cold rows diverge from hot", i, j)
			}
		}
	}
}

func TestStreamExportImportRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		name      string
		quantized bool
		watermark int
	}{
		{"float-hot", false, 0},
		{"float-cold", false, 8},
		{"quantized-cold", true, 8},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := newTestEngine(t, Config{D: 16, Seed: 7, Quantized: tc.quantized})
			st := e.NewStreamCold(0, tc.watermark)
			rng := rand.New(rand.NewSource(7))
			k := tensor.RandomNormal(rng, 40, 16)
			v := tensor.RandomNormal(rng, 40, 16)
			fillStream(t, st, k, v)

			blob := st.Export()
			imported, err := e.ImportStream(blob)
			if err != nil {
				t.Fatal(err)
			}
			if imported.Len() != st.Len() || imported.ColdLen() != st.ColdLen() ||
				imported.Watermark() != st.Watermark() {
				t.Fatalf("imported n=%d cold=%d wm=%d, want n=%d cold=%d wm=%d",
					imported.Len(), imported.ColdLen(), imported.Watermark(),
					st.Len(), st.ColdLen(), st.Watermark())
			}
			// Byte-identical re-export pins the whole state: hot tail,
			// cold arena, hashes, norms.
			if !bytes.Equal(imported.Export(), blob) {
				t.Fatal("re-export of the imported stream differs from the original blob")
			}
			// Queries answer bit-identically, and the imported stream keeps
			// decoding: append more and compare against the original.
			q := tensor.RandomNormal(rng, 4, 16)
			extraK := tensor.RandomNormal(rng, 20, 16)
			extraV := tensor.RandomNormal(rng, 20, 16)
			fillStream(t, st, extraK, extraV)
			fillStream(t, imported, extraK, extraV)
			for _, thr := range []float64{ExactThresholdNoApprox, 0.2} {
				for i := 0; i < q.Rows; i++ {
					want, wantStats, err := st.Query(q.Row(i), thr)
					if err != nil {
						t.Fatal(err)
					}
					got, gotStats, err := imported.Query(q.Row(i), thr)
					if err != nil {
						t.Fatal(err)
					}
					if gotStats != wantStats {
						t.Fatalf("thr=%g query %d: stats diverge", thr, i)
					}
					for j := range want {
						if got[j] != want[j] {
							t.Fatalf("thr=%g query %d elem %d: imported stream diverges", thr, i, j)
						}
					}
				}
			}
		})
	}
}

func TestStreamImportRejectsMismatch(t *testing.T) {
	e := newTestEngine(t, Config{D: 16, Seed: 8})
	st := e.NewStream(0)
	rng := rand.New(rand.NewSource(8))
	k := tensor.RandomNormal(rng, 10, 16)
	fillStream(t, st, k, k)
	blob := st.Export()

	other := newTestEngine(t, Config{D: 16, Seed: 9})
	if _, err := other.ImportStream(blob); err == nil {
		t.Fatal("import under a different seed must fail the fingerprint check")
	}
	if _, err := e.ImportStream(blob[:len(blob)/2]); err == nil {
		t.Fatal("truncated blob must be rejected")
	}
	if _, err := e.ImportStream([]byte("not a stream state")); err == nil {
		t.Fatal("garbage blob must be rejected")
	}
	corrupt := append([]byte(nil), blob...)
	corrupt[4] = 99 // version field
	if _, err := e.ImportStream(corrupt); err == nil {
		t.Fatal("unknown version must be rejected")
	}
	// A hash with a bit past k=16 would index past the cos LUT.
	st.packed.Words[3] |= 1 << 40
	if _, err := e.ImportStream(st.Export()); err == nil || !strings.Contains(err.Error(), "hash 3 sets a bit past k=16") {
		t.Fatalf("hash bit past k: error %v", err)
	}
}

// TestColdStreamQueryZeroAlloc extends the PR-2/PR-3 zero-allocation
// contract to the demoted path: decoding against a stream with a cold
// prefix must stay allocation-free (cold rows dequantize into workspace
// scratch).
func TestColdStreamQueryZeroAlloc(t *testing.T) {
	for _, quantized := range []bool{false, true} {
		e := newTestEngine(t, Config{D: 16, Seed: 10, Quantized: quantized})
		st := e.NewStreamCold(0, 8)
		rng := rand.New(rand.NewSource(10))
		k := tensor.RandomNormal(rng, 40, 16)
		v := tensor.RandomNormal(rng, 40, 16)
		fillStream(t, st, k, v)
		if st.ColdLen() == 0 {
			t.Fatal("no cold prefix to exercise")
		}
		q := tensor.RandomNormal(rng, 1, 16).Row(0)
		dst := make([]float32, 16)
		var err error
		// Warm up so lazily-grown buffers (scores, weights) reach steady state.
		if dst, _, err = st.QueryWith(dst, q, 0.2); err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(20, func() {
			dst, _, err = st.QueryWith(dst, q, 0.2)
		})
		if err != nil {
			t.Fatal(err)
		}
		if allocs != 0 {
			t.Errorf("quantized=%t: cold-prefix query allocates %.1f/op, want 0", quantized, allocs)
		}
	}
}

func TestPackedCodesRoundTrip(t *testing.T) {
	p := fixed.NewPackedCodes(fixed.QKV, 7, 0)
	rng := rand.New(rand.NewSource(11))
	rows := make([][]float32, 9)
	for i := range rows {
		row := make([]float32, 7)
		for j := range row {
			// Mix grid-aligned and off-grid values, including the format
			// extremes.
			switch j % 3 {
			case 0:
				row[j] = float32(fixed.QKV.Quantize(rng.NormFloat64() * 10))
			case 1:
				row[j] = float32(rng.NormFloat64() * 100) // saturates
			default:
				row[j] = float32(rng.NormFloat64())
			}
		}
		rows[i] = row
		p.AppendRow(row)
	}
	if p.Rows() != len(rows) {
		t.Fatalf("Rows = %d", p.Rows())
	}
	dst := make([]float32, 7)
	for i, row := range rows {
		p.DecodeInto(dst, i)
		for j, v := range row {
			want := float32(fixed.QKV.Quantize(float64(v)))
			if dst[j] != want {
				t.Fatalf("row %d elem %d: decode %g, want %g", i, j, dst[j], want)
			}
		}
	}
	// Serialization round trip through the raw words.
	q, err := fixed.PackedCodesFromWords(fixed.QKV, 7, p.Rows(), p.Words())
	if err != nil {
		t.Fatal(err)
	}
	for i, row := range rows {
		q.DecodeInto(dst, i)
		for j, v := range row {
			if want := float32(fixed.QKV.Quantize(float64(v))); dst[j] != want {
				t.Fatalf("rebuilt arena row %d elem %d: %g != %g", i, j, dst[j], want)
			}
		}
	}
	if _, err := fixed.PackedCodesFromWords(fixed.QKV, 7, 3, p.Words()); err == nil {
		t.Fatal("word-count mismatch must be rejected")
	}
}
