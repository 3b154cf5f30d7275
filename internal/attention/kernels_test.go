package attention

import (
	"math"
	"math/rand"
	"testing"

	"elsa/internal/tensor"
)

// refWeightedSumFloat is the row-at-a-time float softmax·V loop the
// blocked weightedSum kernel replaced: every candidate's value row is
// added into out element by element. The blocked kernel must match it bit
// for bit.
func refWeightedSumFloat(out []float32, cand []int, scores []float64, p *Preprocessed, ws *Workspace) {
	for j := range out {
		out[j] = 0
	}
	maxs := math.Inf(-1)
	for _, s := range scores {
		if s > maxs {
			maxs = s
		}
	}
	sumexp := 0.0
	w := make([]float64, len(scores))
	for ci, s := range scores {
		w[ci] = math.Exp(s - maxs)
		sumexp += w[ci]
	}
	inv := 1 / sumexp
	for ci, y := range cand {
		wy := w[ci] * inv
		vrow := p.valueRow(y, ws)
		for j := range out {
			out[j] += float32(wy * float64(vrow[j]))
		}
	}
}

// refLinearScanRow is the key-at-a-time online-softmax loop the tiled
// linearScanRow replaced. The tiled kernel must match it bit for bit.
func refLinearScanRow(out []float32, qrow []float32, scale float64, p *Preprocessed, ws *Workspace, exp func(float64) float64) {
	acc := make([]float64, len(out))
	m := math.Inf(-1)
	sum := 0.0
	scale32 := float32(scale)
	for y := 0; y < p.N(); y++ {
		dot := tensor.Dot(qrow, p.keyRow(y, ws))
		if scale != 1 {
			dot *= scale32
		}
		l := float64(dot)
		var w float64
		if l > m {
			if !math.IsInf(m, -1) {
				r := exp(m - l)
				sum *= r
				for j := range acc {
					acc[j] *= r
				}
			}
			m = l
			w = 1
		} else {
			w = exp(l - m)
		}
		sum += w
		vrow := p.valueRow(y, ws)
		for j := range acc {
			acc[j] += w * float64(vrow[j])
		}
	}
	inv := 1 / sum
	for j := range out {
		out[j] = float32(acc[j] * inv)
	}
}

// assertBitsEqual fails unless got and want hold the same float32 bits.
func assertBitsEqual(t *testing.T, what string, got, want []float32) {
	t.Helper()
	for j := range want {
		if math.Float32bits(got[j]) != math.Float32bits(want[j]) {
			t.Fatalf("%s col %d: kernel %v (%#08x), reference %v (%#08x)", what, j,
				got[j], math.Float32bits(got[j]), want[j], math.Float32bits(want[j]))
		}
	}
}

// randomAscending returns the keys 0..n-1 each kept with probability
// frac, ascending, with at least one key.
func randomAscending(rng *rand.Rand, n int, frac float64) []int {
	var cand []int
	for y := 0; y < n; y++ {
		if rng.Float64() < frac {
			cand = append(cand, y)
		}
	}
	if len(cand) == 0 {
		cand = append(cand, rng.Intn(n))
	}
	return cand
}

// kernelStream fills a stream with n tokens whose keys give query q
// random logits, or strictly ascending ones when ascending is set (the
// linear scan then rescales its state at every key).
func kernelStream(t *testing.T, e *Engine, rng *rand.Rand, q []float32, n, watermark int, ascending bool) *Stream {
	t.Helper()
	d := len(q)
	st := e.NewStreamCold(0, watermark)
	key, val := make([]float32, d), make([]float32, d)
	for y := 0; y < n; y++ {
		for j := range key {
			if ascending {
				key[j] = q[j] * float32(y+1) / float32(n)
			} else {
				key[j] = float32(rng.NormFloat64())
			}
			val[j] = float32(rng.NormFloat64() * 4)
		}
		if err := st.Append(key, val); err != nil {
			t.Fatal(err)
		}
	}
	return st
}

// TestKernelsMatchReference pins the blocked softmax·V kernel and the
// tiled linear scan to the row-at-a-time loops they replaced, bit for
// bit, for every head dimension from 1 to 96 (so every column remainder
// mod 8), over resident streams and ones with a one-token and a
// mid-sequence cold prefix, with random and strictly ascending logits,
// and with candidate lists from a single key (the filter's fallback) to
// every key.
func TestKernelsMatchReference(t *testing.T) {
	const n = 75 // two full 32-key tiles and a partial one
	rng := rand.New(rand.NewSource(41))
	for d := 1; d <= 96; d++ {
		e := newTestEngine(t, Config{D: d, Seed: int64(d), BiasSamples: 32})
		ws := NewWorkspace(e)
		out, want := make([]float32, d), make([]float32, d)
		for _, watermark := range []int{0, 1, n / 4} {
			for _, ascending := range []bool{false, true} {
				q := tensor.RandomNormal(rng, 1, d).Row(0)
				st := kernelStream(t, e, rng, q, n, watermark, ascending)
				p := st.snapshot()
				if watermark > 0 && p.Cold.N() == 0 {
					t.Fatalf("d=%d watermark %d: no cold prefix", d, watermark)
				}
				linearScanRow(out, q, e.cfg.Scale, p, ws, ws.acc, math.Exp)
				refLinearScanRow(want, q, e.cfg.Scale, p, ws, math.Exp)
				assertBitsEqual(t, "linear scan", out, want)

				for _, cand := range [][]int{
					{rng.Intn(n)},
					randomAscending(rng, n, 0.25),
					randomAscending(rng, n, 0.7),
					randomAscending(rng, n, 1),
				} {
					scores := make([]float64, len(cand))
					for ci, y := range cand {
						scores[ci] = float64(tensor.Dot(q, p.keyRow(y, ws))) * e.cfg.Scale
					}
					e.weightedSum(out, cand, scores, p, ws)
					refWeightedSumFloat(want, cand, scores, p, ws)
					assertBitsEqual(t, "weighted sum", out, want)
				}
			}
		}
	}
}

// TestExactThresholdZeroNormKeys is the regression test for keys whose
// norms are all zero. The filter's cut is t·MaxNorm = -0 there, and no
// cos·0 exceeds -0, so the exact threshold once selected nothing and fell
// back to the first key. Exact ops, causal ones included, now take every
// key without running the filter and agree with the linear-scan oracle:
// all logits are 0, so the output is the mean of the values.
func TestExactThresholdZeroNormKeys(t *testing.T) {
	const n, d = 4, 8
	for _, quantized := range []bool{false, true} {
		e := newTestEngine(t, Config{D: d, Seed: 3, Quantized: quantized})
		k, v := tensor.New(n, d), tensor.New(n, d)
		for i := 0; i < n; i++ {
			v.Row(i)[0] = float32(i + 1)
		}
		q := tensor.New(1, d)
		q.Row(0)[0] = 1
		p, err := e.Preprocess(k, v)
		if err != nil {
			t.Fatal(err)
		}
		res, err := e.AttendWith(NewWorkspace(e), q, p, ExactThresholdNoApprox)
		if err != nil {
			t.Fatal(err)
		}
		if res.FallbackQueries != 0 || res.CandidateCounts[0] != n {
			t.Errorf("quantized=%v: %d fallbacks, %d candidates; want 0 and %d",
				quantized, res.FallbackQueries, res.CandidateCounts[0], n)
		}
		if quantized {
			// The LUT exponent and reciprocal units round the mean.
			continue
		}
		if got := res.Output.Row(0)[0]; got != 2.5 {
			t.Errorf("exact scores output %v, want 2.5 (the mean of V[.][0])", got)
		}
		pe, err := e.PreprocessExact(k, v)
		if err != nil {
			t.Fatal(err)
		}
		scan, err := e.AttendLinearScanWith(NewWorkspace(e), q, pe)
		if err != nil {
			t.Fatal(err)
		}
		assertWithinBound(t, res.Output, scan.Output, v)

		// Causal attention at the exact threshold: query i averages
		// V[0..i], (i+2)/2 in column 0.
		qc := tensor.New(n, d)
		for i := 0; i < n; i++ {
			qc.Row(i)[0] = 1
		}
		causal, err := e.AttendCausal(qc, p, ExactThresholdNoApprox)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			if got, want := causal.Output.Row(i)[0], float32(i+2)/2; got != want || causal.CandidateCounts[i] != i+1 {
				t.Errorf("causal query %d: output %v over %d keys, want %v over %d", i, got, causal.CandidateCounts[i], want, i+1)
			}
		}
	}
}

// FuzzExactThresholdMatchesLinearScan is the engine-level differential
// suite between the two exact backends as callers reach them: AttendWith
// at ExactThresholdNoApprox over Preprocess output against
// AttendLinearScanWith over PreprocessExact output. Beyond the free-
// function generators of FuzzLinearScanMatchesScores it adds all-zero
// keys (mode 5) and a single non-zero key (mode 6), the inputs where the
// filter's zero-norm cut used to drop every key.
func FuzzExactThresholdMatchesLinearScan(f *testing.F) {
	f.Add(uint8(0), int64(1), uint8(4), uint8(16), uint8(8))
	f.Add(uint8(4), int64(2), uint8(2), uint8(40), uint8(7))
	f.Add(uint8(5), int64(3), uint8(3), uint8(4), uint8(8))
	f.Add(uint8(5), int64(4), uint8(1), uint8(1), uint8(1))
	f.Add(uint8(6), int64(5), uint8(3), uint8(9), uint8(16))
	f.Add(uint8(6), int64(6), uint8(2), uint8(1), uint8(5))
	f.Fuzz(func(t *testing.T, mode uint8, seed int64, nqRaw, nRaw, dRaw uint8) {
		nq := int(nqRaw)%8 + 1
		n := int(nRaw)%64 + 1
		d := int(dRaw)%24 + 1
		e := newTestEngine(t, Config{D: d, Seed: seed, BiasSamples: 32})
		var q, k, v *tensor.Matrix
		switch mode % 7 {
		case 5, 6:
			rng := rand.New(rand.NewSource(seed))
			q = tensor.RandomNormal(rng, nq, d)
			v = tensor.RandomNormal(rng, n, d)
			k = tensor.New(n, d)
			if mode%7 == 6 {
				copy(k.Row(rng.Intn(n)), tensor.RandomNormal(rng, 1, d).Row(0))
			}
		default:
			q, k, v = buildFuzzCase(mode, seed, nq, n, d, e.cfg.Scale)
		}
		p, err := e.Preprocess(k, v)
		if err != nil {
			t.Fatal(err)
		}
		res, err := e.AttendWith(NewWorkspace(e), q, p, ExactThresholdNoApprox)
		if err != nil {
			t.Fatal(err)
		}
		if res.FallbackQueries != 0 || res.TotalCandidates != nq*n {
			t.Fatalf("exact threshold: %d fallbacks, %d candidates; want 0 and %d",
				res.FallbackQueries, res.TotalCandidates, nq*n)
		}
		pe, err := e.PreprocessExact(k, v)
		if err != nil {
			t.Fatal(err)
		}
		scan, err := e.AttendLinearScanWith(NewWorkspace(e), q, pe)
		if err != nil {
			t.Fatal(err)
		}
		assertWithinBound(t, res.Output, scan.Output, v)
	})
}

// TestExactThresholdZeroAlloc pins the exact scores backend's steady
// state, which skips hashing and the filter: AttendWith at
// ExactThresholdNoApprox over PreprocessExact output allocates nothing.
func TestExactThresholdZeroAlloc(t *testing.T) {
	e, q, p, _ := benchSetup(t, 64, 64, false)
	pe, err := e.PreprocessExact(p.Keys, p.Values)
	if err != nil {
		t.Fatal(err)
	}
	ws := NewWorkspace(e)
	if _, err := e.AttendWith(ws, q, pe, ExactThresholdNoApprox); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := e.AttendWith(ws, q, pe, ExactThresholdNoApprox); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("exact-threshold AttendWith allocates %.1f objects/op, want 0", allocs)
	}
}

// TestLinearScanTiledZeroAlloc pins the tiled linear scan over more than
// one tile of keys: AttendLinearScanWith allocates nothing once warm.
func TestLinearScanTiledZeroAlloc(t *testing.T) {
	e, q, p, _ := benchSetup(t, 100, 64, false)
	pe, err := e.PreprocessExact(p.Keys, p.Values)
	if err != nil {
		t.Fatal(err)
	}
	ws := NewWorkspace(e)
	if _, err := e.AttendLinearScanWith(ws, q, pe); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := e.AttendLinearScanWith(ws, q, pe); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("AttendLinearScanWith allocates %.1f objects/op, want 0", allocs)
	}
}
