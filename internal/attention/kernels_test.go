package attention

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"elsa/internal/srp"
	"elsa/internal/tensor"
)

// refWeightedSumFloat is the row-at-a-time float softmax·V loop the
// blocked weightedSum kernel replaced: each candidate's weight is rounded
// to float32 once, and its value row is added into out element by element
// as o += float32(float32(w)·v), candidates ascending. The blocked kernel
// must match it bit for bit.
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
		wy := float32(w[ci] * inv)
		vrow := p.valueRow(y, ws)
		for j := range out {
			out[j] += float32(wy * vrow[j])
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

// kernelDims are the head dimensions the kernel tests run: every one
// from 1 to 96, so every column remainder mod 8 below and above one
// 64-column block, then 100 (a block, four 8-column steps and a 4-column
// tail), 127 and 136 (two blocks and one step).
func kernelDims() []int {
	var dims []int
	for d := 1; d <= 96; d++ {
		dims = append(dims, d)
	}
	return append(dims, 100, 127, 136)
}

// TestKernelsMatchReference pins the blocked softmax·V kernel and the
// tiled linear scan to the row-at-a-time loops they replaced, bit for
// bit, for every head dimension kernelDims lists, over resident streams and ones with a one-token and a
// mid-sequence cold prefix, with random and strictly ascending logits,
// and with candidate lists from a single key (the filter's fallback) to
// every key.
func TestKernelsMatchReference(t *testing.T) {
	const n = 75 // two full 32-key tiles and a partial one
	rng := rand.New(rand.NewSource(41))
	for _, d := range kernelDims() {
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
				linearScanRow(out, q, e.cfg.Scale, p, ws, ws.acc, nil)
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
// AttendLinearScanWith over PreprocessExact output, within
// WithinLinearScanBound. AttendWith, AttendCausal and a resident
// stream's QueryWith, all at the exact threshold, must also stay within
// the worst-case error budget (n+2)·u·S_j + 2u·|o_j| of ExactLinearScan
// (assertRowWithinBudget). Beyond the free-function generators of
// FuzzLinearScanMatchesScores it adds all-zero keys (mode 5) and a single
// non-zero key (mode 6), the inputs where the filter's zero-norm cut used
// to drop every key.
func FuzzExactThresholdMatchesLinearScan(f *testing.F) {
	f.Add(uint8(0), int64(1), uint8(4), uint8(16), uint8(8))
	f.Add(uint8(4), int64(2), uint8(2), uint8(40), uint8(7))
	f.Add(uint8(5), int64(3), uint8(3), uint8(4), uint8(8))
	f.Add(uint8(5), int64(4), uint8(1), uint8(1), uint8(1))
	f.Add(uint8(6), int64(5), uint8(3), uint8(9), uint8(16))
	f.Add(uint8(6), int64(6), uint8(2), uint8(1), uint8(5))
	// Logits near −200, where the two backends' logits differ by the
	// linear scan's float32 rounding of dot·scale.
	f.Add(uint8(3), int64(4), uint8(1), uint8(84), uint8(82))
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

		worst := float64(n + 2)
		oracle := ExactLinearScan(q, k, v, e.cfg.Scale)
		st := e.NewStream(n)
		for y := 0; y < n; y++ {
			if err := st.Append(k.Row(y), v.Row(y)); err != nil {
				t.Fatal(err)
			}
		}
		out := make([]float32, d)
		for i := 0; i < nq; i++ {
			assertRowWithinBudget(t, "AttendWith", res.Output.Row(i), oracle.Row(i), q.Row(i), k, v, n, e.cfg.Scale, worst)
			if _, _, err := st.QueryWith(out, q.Row(i), ExactThresholdNoApprox); err != nil {
				t.Fatal(err)
			}
			assertRowWithinBudget(t, "QueryWith", out, oracle.Row(i), q.Row(i), k, v, n, e.cfg.Scale, worst)
		}
		// Causal query i, the fuzzed queries in turn, attends keys 0..i.
		qc := tensor.New(n, d)
		for i := 0; i < n; i++ {
			copy(qc.Row(i), q.Row(i%nq))
		}
		causal, err := e.AttendCausal(qc, p, ExactThresholdNoApprox)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			want := ExactLinearScan(rowsOf(qc, i, i+1), rowsOf(k, 0, i+1), rowsOf(v, 0, i+1), e.cfg.Scale)
			assertRowWithinBudget(t, "AttendCausal", causal.Output.Row(i), want.Row(0), qc.Row(i), k, v, i+1, e.cfg.Scale, float64(i+3))
		}
	})
}

// TestExactThresholdMatchesLinearScanAtScale holds the float32 softmax·V
// sum to the linear-scan oracle's float64 one at lengths the fuzz suite
// does not reach: n = 512, 2048 and 4096 keys, d = 64 (whole 64-column
// blocks) and 68 (a block and a 4-column tail). Each case runs AttendWith
// at ExactThresholdNoApprox and a resident stream's QueryWith at the same
// threshold, and both must stay within WithinLinearScanBound of
// ExactLinearScan, and within two error budgets (assertRowWithinBudget):
// the worst case, c = n+2, and the tighter c = 4√n. The worst element
// uses at most 3.5% of the first and 19% of the second; a copy that
// truncates each softmax weight to 9 mantissa bits right after
// scaleWeights fails the √n budget in all 48 cases, by 1.8× at the
// least, and the worst-case one in 28. The value rows are normal draws,
// draws scaled to 1e30 (large |V|), 1000 plus a normal draw (every
// float32 partial sum grows in one direction, where rounding drift adds
// up), and rows of ±1000 alternating by key plus a normal draw, whose
// weighted sum nearly cancels.
func TestExactThresholdMatchesLinearScanAtScale(t *testing.T) {
	const nq = 4
	families := []struct {
		name  string
		value func(rng *rand.Rand, y int) float32
	}{
		{"normal", func(rng *rand.Rand, y int) float32 { return float32(rng.NormFloat64()) }},
		{"large", func(rng *rand.Rand, y int) float32 { return float32(rng.NormFloat64() * 1e30) }},
		{"offset", func(rng *rand.Rand, y int) float32 { return float32(1000 + rng.NormFloat64()) }},
		{"cancelling", func(rng *rand.Rand, y int) float32 {
			return float32(float64(1-2*(y%2))*1000 + rng.NormFloat64())
		}},
	}
	for _, d := range []int{64, 68} {
		e := newTestEngine(t, Config{D: d, Seed: int64(d), BiasSamples: 32})
		ws := NewWorkspace(e)
		for _, n := range []int{512, 2048, 4096} {
			for fi, fam := range families {
				rng := rand.New(rand.NewSource(int64(n*d + fi)))
				q := tensor.RandomNormal(rng, nq, d)
				k := tensor.RandomNormal(rng, n, d)
				v := tensor.New(n, d)
				for y := 0; y < n; y++ {
					for j := range v.Row(y) {
						v.Row(y)[j] = fam.value(rng, y)
					}
				}
				scan := ExactLinearScan(q, k, v, e.cfg.Scale)

				p, err := e.Preprocess(k, v)
				if err != nil {
					t.Fatal(err)
				}
				res, err := e.AttendWith(ws, q, p, ExactThresholdNoApprox)
				if err != nil {
					t.Fatal(err)
				}
				t.Run(fmt.Sprintf("d=%d/n=%d/%s/AttendWith", d, n, fam.name), func(t *testing.T) {
					assertWithinBound(t, res.Output, scan, v)
					assertBudgets(t, res.Output, scan, q, k, v, e.cfg.Scale)
				})

				st := e.NewStream(n)
				for y := 0; y < n; y++ {
					if err := st.Append(k.Row(y), v.Row(y)); err != nil {
						t.Fatal(err)
					}
				}
				out := tensor.New(nq, d)
				for i := 0; i < nq; i++ {
					if _, _, err := st.QueryWith(out.Row(i), q.Row(i), ExactThresholdNoApprox); err != nil {
						t.Fatal(err)
					}
				}
				t.Run(fmt.Sprintf("d=%d/n=%d/%s/QueryWith", d, n, fam.name), func(t *testing.T) {
					assertWithinBound(t, out, scan, v)
					assertBudgets(t, out, scan, q, k, v, e.cfg.Scale)
				})
			}
		}
	}
}

// assertBudgets holds every row of out to the same row of the linear-scan
// output scan within the worst-case budget (n+2)·u·S_j + 2u·|o_j| and
// the √n budget 4√n·u·S_j + 2u·|o_j| over all n keys.
func assertBudgets(t *testing.T, out, scan, q, k, v *tensor.Matrix, scale float64) {
	t.Helper()
	n := k.Rows
	for i := 0; i < q.Rows; i++ {
		assertRowWithinBudget(t, "worst-case budget", out.Row(i), scan.Row(i), q.Row(i), k, v, n, scale, float64(n+2))
		assertRowWithinBudget(t, "√n budget", out.Row(i), scan.Row(i), q.Row(i), k, v, n, scale, 4*math.Sqrt(float64(n)))
	}
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

// withGoKernels runs f with the assembly kernels switched off, so every
// kernel takes its Go loops.
func withGoKernels(f func()) {
	saved := tensor.HasAVX2
	tensor.HasAVX2 = false
	defer func() { tensor.HasAVX2 = saved }()
	f()
}

// plantedValue returns a normal draw scaled by s, or now and then a value
// where a reordered, fused or lane-swapped sum shows: a signed zero, a
// subnormal, or a value large enough that a key's products overflow to
// ±Inf (and opposite infinities then make NaN).
func plantedValue(rng *rand.Rand, s float64) float32 {
	switch rng.Intn(20) {
	case 0:
		return 0
	case 1:
		return float32(math.Copysign(0, -1))
	case 2:
		return float32(rng.NormFloat64() * 1e-40)
	case 3:
		return float32(rng.NormFloat64() * 1e20)
	default:
		return float32(rng.NormFloat64() * s)
	}
}

// plantedStream appends n tokens with planted keys and values to a stream
// of e with the given cold watermark.
func plantedStream(t *testing.T, e *Engine, rng *rand.Rand, n, watermark int) *Stream {
	t.Helper()
	st := e.NewStreamCold(0, watermark)
	key, val := make([]float32, e.cfg.D), make([]float32, e.cfg.D)
	for y := 0; y < n; y++ {
		for j := range key {
			key[j] = plantedValue(rng, 1)
			val[j] = plantedValue(rng, 4)
		}
		if err := st.Append(key, val); err != nil {
			t.Fatal(err)
		}
	}
	return st
}

// refScanTile is addScanTile one key and one column at a time.
func refScanTile(acc []float64, w, r []float64, vals []float32) {
	d := len(acc)
	for t := range w {
		for j := range acc {
			if r[t] != 1 {
				acc[j] *= r[t]
			}
			acc[j] += float64(w[t] * float64(vals[t*d+j]))
		}
	}
}

// checkScoreKernels holds the scoring helper, the softmax·V sum and the
// linear scan for query q over p's keys, first with the AVX2 kernels
// (where the CPU has them) and then with their Go loops, to tensor.Dot,
// refWeightedSumFloat and refLinearScanRow bit for bit. The scan's
// float64 sums reach its output only through a float32 rounding, which
// hides most changes to their low bits, so addScanTile's sums over p's
// first hot tile are also held to refScanTile directly.
func checkScoreKernels(t *testing.T, e *Engine, p *Preprocessed, q []float32, cands [][]int) {
	t.Helper()
	d := e.cfg.D
	ws, refWS := NewWorkspace(e), NewWorkspace(e)
	out, want := make([]float32, d), make([]float32, d)
	rng := rand.New(rand.NewSource(int64(d)))
	tn := min(p.Keys.Rows, scanTile)
	tile := p.Values.Data[:tn*d]
	w, r := make([]float64, tn), make([]float64, tn)
	for i := range w {
		w[i], r[i] = rng.Float64(), 1
		if rng.Intn(3) == 0 {
			r[i] = rng.Float64()
		}
	}
	acc0 := make([]float64, d)
	for j := range acc0 {
		acc0[j] = rng.NormFloat64()
	}
	acc, refAcc := make([]float64, d), make([]float64, d)
	for _, kernel := range []string{"AVX2", "Go"} {
		run := func(f func()) { f() }
		switch {
		case kernel == "Go":
			run = withGoKernels
		case !tensor.HasAVX2:
			continue
		}
		run(func() {
			copy(acc, acc0)
			copy(refAcc, acc0)
			addScanTile(acc, w, r, tile)
			refScanTile(refAcc, w, r, tile)
			for j := range acc {
				if math.Float64bits(acc[j]) != math.Float64bits(refAcc[j]) {
					t.Fatalf("%s scan tile col %d: %v, want %v", kernel, j, acc[j], refAcc[j])
				}
			}
			refLinearScanRow(want, q, e.cfg.Scale, p, refWS, math.Exp)
			linearScanRow(out, q, e.cfg.Scale, p, ws, ws.acc, nil)
			assertBitsEqual(t, kernel+" linear scan", out, want)
			linearScanRow(out, q, e.cfg.Scale, p, ws, ws.acc, math.Exp)
			assertBitsEqual(t, kernel+" linear scan, per-key exp", out, want)
			for _, cand := range cands {
				ws.cand = append(ws.cand[:0], cand...)
				e.scoreCandidates(ws, q, p)
				dots := make([]float32, len(cand))
				scores := make([]float64, len(cand))
				for ci, y := range cand {
					dots[ci] = tensor.Dot(q, p.keyRow(y, refWS))
					scores[ci] = float64(dots[ci]) * e.cfg.Scale
				}
				assertBitsEqual(t, kernel+" dot", ws.dots, dots)
				for ci := range scores {
					if math.Float64bits(ws.scores[ci]) != math.Float64bits(scores[ci]) {
						t.Fatalf("%s score %d: %v, want %v", kernel, ci, ws.scores[ci], scores[ci])
					}
				}
				e.weightedSum(out, cand, ws.scores, p, ws)
				refWeightedSumFloat(want, cand, scores, p, refWS)
				assertBitsEqual(t, kernel+" weighted sum", out, want)
			}
		})
	}
}

// TestScoreKernelsMatchGeneric runs every head dimension kernelDims
// lists (every remainder mod 4, mod 8 and mod 32) over resident streams and ones with
// a one-token and a mid-sequence cold prefix, with planted signed zeros,
// subnormals and overflowing products, and candidate lists of no key, one
// key, a count that is not a multiple of 4, and every key.
func TestScoreKernelsMatchGeneric(t *testing.T) {
	if !tensor.HasAVX2 {
		t.Log("no AVX2 here: only the Go loops are checked")
	}
	const n = 75
	rng := rand.New(rand.NewSource(43))
	all := make([]int, n)
	for y := range all {
		all[y] = y
	}
	for _, d := range kernelDims() {
		e := newTestEngine(t, Config{D: d, Seed: int64(d), BiasSamples: 32})
		for _, watermark := range []int{0, 1, n / 4} {
			p := plantedStream(t, e, rng, n, watermark).snapshot()
			q := make([]float32, d)
			for j := range q {
				q[j] = plantedValue(rng, 1)
			}
			odd := randomAscending(rng, n, 0.4)
			if len(odd)%4 == 0 {
				odd = odd[1:]
			}
			checkScoreKernels(t, e, p, q, [][]int{nil, {rng.Intn(n)}, odd, all})
		}
	}
}

// FuzzScoreKernels draws the head dimension (1 to 136: up to two
// 64-column blocks, and every tail), key count, cold watermark and
// candidate density from the input, and lets its bytes overwrite keys,
// values and the query with arbitrary finite float32 bit patterns.
func FuzzScoreKernels(f *testing.F) {
	f.Add(int64(1), uint8(64), uint8(40), uint8(0), uint8(128), []byte{})
	f.Add(int64(2), uint8(63), uint8(9), uint8(1), uint8(255), []byte{0, 0, 0, 0x80, 1, 0, 0, 0})
	f.Add(int64(3), uint8(20), uint8(70), uint8(2), uint8(30), []byte{0xff, 0xff, 0x7f, 0x7f})
	f.Fuzz(func(t *testing.T, seed int64, dRaw, nRaw, wmRaw, fracRaw uint8, bits []byte) {
		d := int(dRaw)%136 + 1
		n := int(nRaw)%80 + 1
		watermark := []int{0, 1, n / 3}[int(wmRaw)%3]
		rng := rand.New(rand.NewSource(seed))
		e := newTestEngine(t, Config{D: d, Seed: seed, BiasSamples: 32})
		keys := make([]float32, n*d)
		vals := make([]float32, n*d)
		q := make([]float32, d)
		for i := range keys {
			keys[i], vals[i] = plantedValue(rng, 1), plantedValue(rng, 4)
		}
		for j := range q {
			q[j] = plantedValue(rng, 1)
		}
		// Each 4 bytes overwrite one element of keys, values or q; a
		// non-finite pattern loses its top exponent bit.
		for i := 0; i+4 <= len(bits); i += 4 {
			v := math.Float32frombits(binary.LittleEndian.Uint32(bits[i:]))
			if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
				v = math.Float32frombits(math.Float32bits(v) &^ (1 << 30))
			}
			switch k := rng.Intn(len(keys) + len(vals) + d); {
			case k < len(keys):
				keys[k] = v
			case k < len(keys)+len(vals):
				vals[k-len(keys)] = v
			default:
				q[k-len(keys)-len(vals)] = v
			}
		}
		st := e.NewStreamCold(0, watermark)
		for y := 0; y < n; y++ {
			if err := st.Append(keys[y*d:(y+1)*d], vals[y*d:(y+1)*d]); err != nil {
				t.Fatal(err)
			}
		}
		cand := randomAscending(rng, n, float64(fracRaw)/255)
		checkScoreKernels(t, e, st.snapshot(), q, [][]int{cand})
	})
}

// refSelect is the key-at-a-time candidate scan and the separate
// fallback argmax that selectKeys fuses.
func refSelect(e *Engine, q []uint64, p *Preprocessed, n int, cut float64) ([]int, int) {
	var cand []int
	for y := 0; y < n; y++ {
		if e.cosLUT[p.Packed.HammingAt(q, y)]*p.Norms[y] > cut {
			cand = append(cand, y)
		}
	}
	best, bestSim := 0, math.Inf(-1)
	for y := 0; y < n; y++ {
		if sim := e.cosLUT[p.Packed.HammingAt(q, y)] * p.Norms[y]; sim > bestSim {
			best, bestSim = y, sim
		}
	}
	return cand, best
}

// plantedArena returns n keys' k-bit hashes and norms for query q, with
// ties planted: now and then a key copies an earlier key's hash and norm,
// or takes the query's own hash, and some norms are zero, +Inf or NaN.
func plantedArena(rng *rand.Rand, k, n int, q []uint64) *Preprocessed {
	p := &Preprocessed{Packed: srp.NewPackedHashes(k, n), Norms: make([]float64, n)}
	w := p.Packed.W
	for y := 0; y < n; y++ {
		row := p.Packed.Row(y)
		switch r := rng.Intn(10); {
		case r < 2 && y > 0:
			src := rng.Intn(y)
			copy(row, p.Packed.Row(src))
			p.Norms[y] = p.Norms[src]
			continue
		case r == 2:
			copy(row, q)
		default:
			for i := range row {
				row[i] = rng.Uint64()
			}
		}
		if k%64 != 0 {
			row[w-1] &= 1<<(k%64) - 1
		}
		switch rng.Intn(16) {
		case 0:
			p.Norms[y] = 0
		case 1:
			p.Norms[y] = math.Inf(1)
		case 2:
			p.Norms[y] = math.NaN()
		default:
			p.Norms[y] = float64(rng.Intn(4)) + 0.5
		}
		p.MaxNorm = max(p.MaxNorm, p.Norms[y])
	}
	return p
}

// TestSelectKernelMatchesGeneric holds selectKeys, with the AVX2 kernel
// and with its Go loop, to the key-at-a-time scan and the separate
// first-wins argmax it replaced: the same candidate list after a kept
// prefix of dst, and the same fallback key, for one-word hashes (k = 64
// and 16, the kernel's case) and two-word ones, n = 0…17 and longer
// arenas, planted ties, and cuts that reject every key, admit every key
// or equal a key's similarity.
func TestSelectKernelMatchesGeneric(t *testing.T) {
	if !tensor.HasAVX2 {
		t.Log("no AVX2 here: only the Go loop is checked")
	}
	rng := rand.New(rand.NewSource(47))
	for _, k := range []int{64, 16, 100} {
		e := newTestEngine(t, Config{D: 16, K: k, Seed: int64(k), BiasSamples: 32})
		for n := 0; n <= 80; n++ {
			if n > 17 && n%7 != 0 {
				continue
			}
			q := make([]uint64, srp.WordsPerHash(k))
			for i := range q {
				q[i] = rng.Uint64()
			}
			if k%64 != 0 {
				q[len(q)-1] &= 1<<(k%64) - 1
			}
			p := plantedArena(rng, k, n, q)
			cuts := []float64{math.Inf(1), math.Inf(-1), 0, rng.Float64() * p.MaxNorm}
			if n > 0 {
				y := rng.Intn(n)
				cuts = append(cuts, e.cosLUT[p.Packed.HammingAt(q, y)]*p.Norms[y])
			}
			for _, cut := range cuts {
				wantCand, wantBest := refSelect(e, q, p, n, cut)
				for _, kernel := range []string{"AVX2", "Go"} {
					run := func(f func()) { f() }
					switch {
					case kernel == "Go":
						run = withGoKernels
					case !tensor.HasAVX2:
						continue
					}
					run(func() {
						dst := []int{-7, -8}
						cand, best := e.selectKeys(q, p, n, cut, dst)
						if cand[0] != -7 || cand[1] != -8 || !slices.Equal(cand[2:], wantCand) || best != wantBest {
							t.Fatalf("%s k=%d n=%d cut=%v: candidates %v best %d, want %v best %d",
								kernel, k, n, cut, cand, best, append([]int{-7, -8}, wantCand...), wantBest)
						}
					})
				}
			}
		}
	}
}

// BenchmarkSelectCandidates times one query's candidate scan over 256
// keys at d = k = 64 with the benchmark threshold, through the AVX2
// kernel and through the Go loop.
func BenchmarkSelectCandidates(b *testing.B) {
	e, q, p, thr := benchSetup(b, 256, 64, false)
	qh := e.HashVector(q.Row(0))
	dst := make([]int, 0, 256)
	for _, kernel := range []string{"AVX2", "Go"} {
		run := func(f func()) { f() }
		switch {
		case kernel == "Go":
			run = withGoKernels
		case !tensor.HasAVX2:
			continue
		}
		b.Run(kernel, func(b *testing.B) {
			run(func() {
				for i := 0; i < b.N; i++ {
					dst, _ = e.selectKeys(qh.Words, p, p.Packed.N, thr*p.MaxNorm, dst[:0])
				}
			})
		})
	}
}
