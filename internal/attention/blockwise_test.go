package attention

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"elsa/internal/tensor"
)

func TestBlockwiseNoApproxEqualsExact(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	e := newTestEngine(t, Config{D: 16, Seed: 1})
	q := tensor.RandomNormal(rng, 8, 16)
	k := tensor.RandomNormal(rng, 50, 16)
	v := tensor.RandomNormal(rng, 50, 16)
	for _, bs := range []int{7, 16, 50, 100} {
		res, err := e.BlockwiseAttend(q, k, v, bs, ExactThresholdNoApprox)
		if err != nil {
			t.Fatal(err)
		}
		want := Exact(q, k, v, e.Config().Scale)
		if d := tensor.MaxAbsDiff(want, res.Output); d > 1e-4 {
			t.Errorf("block size %d: diverges from exact by %g", bs, d)
		}
		if res.TotalCandidates != 8*50 {
			t.Errorf("block size %d: candidates %d, want all pairs", bs, res.TotalCandidates)
		}
	}
}

// assertSameResult fails unless got and want agree bit for bit in every
// output element, candidate list and tally.
func assertSameResult(t *testing.T, what string, got, want *Result) {
	t.Helper()
	for i := 0; i < want.Output.Rows; i++ {
		assertBitsEqual(t, what, got.Output.Row(i), want.Output.Row(i))
		if !slices.Equal(got.Candidates[i], want.Candidates[i]) {
			t.Fatalf("%s: query %d candidates %v, want %v", what, i, got.Candidates[i], want.Candidates[i])
		}
	}
	if !slices.Equal(got.CandidateCounts, want.CandidateCounts) ||
		got.TotalCandidates != want.TotalCandidates || got.FallbackQueries != want.FallbackQueries {
		t.Fatalf("%s: tallies differ: got %d candidates, %d fallbacks; want %d, %d", what,
			got.TotalCandidates, got.FallbackQueries, want.TotalCandidates, want.FallbackQueries)
	}
}

// One block is one ordinary invocation: in float and Quantized mode, at a
// selective threshold, at one no key passes (every query falls back) and
// at the exact threshold, the output is Attend's bit for bit.
func TestBlockwiseSingleBlockEqualsAttend(t *testing.T) {
	for _, quantized := range []bool{false, true} {
		rng := rand.New(rand.NewSource(2))
		e := newTestEngine(t, Config{D: 16, Seed: 2, Quantized: quantized})
		q, k, v, _ := clustered(rng, 12, 30, 16, 1.5)
		// Unclustered queries select fewer keys, so some fall back at 0.15.
		q = &tensor.Matrix{Rows: 18, Cols: 16, Data: append(q.Data, tensor.RandomNormal(rng, 6, 16).Data...)}
		pre, err := e.Preprocess(k, v)
		if err != nil {
			t.Fatal(err)
		}
		sawFallback := false
		for _, thr := range []float64{0.15, 0.6, 10, ExactThresholdNoApprox} {
			direct, err := e.Attend(q, pre, thr)
			if err != nil {
				t.Fatal(err)
			}
			for _, bs := range []int{30, 31, 1 << 20} {
				block, err := e.BlockwiseAttend(q, k, v, bs, thr)
				if err != nil {
					t.Fatal(err)
				}
				assertSameResult(t, "single block", block, direct)
			}
			sawFallback = sawFallback || direct.FallbackQueries > 0
		}
		if !sawFallback {
			t.Fatal("no threshold made a query fall back")
		}
	}
}

func TestBlockwiseValidation(t *testing.T) {
	e := newTestEngine(t, Config{D: 16, Seed: 3})
	q := tensor.New(2, 16)
	k := tensor.New(8, 16)
	if _, err := e.BlockwiseAttend(q, k, k.Clone(), 0, 0); err == nil {
		t.Error("zero block size should error")
	}
	if _, err := e.BlockwiseAttend(q, k, tensor.New(7, 16), 4, 0); err == nil {
		t.Error("key/value mismatch should error")
	}
	if _, err := e.BlockwiseAttend(tensor.New(2, 8), k, k.Clone(), 4, 0); err == nil {
		t.Error("wrong query dim should error")
	}
	for _, bad := range []float32{float32(math.NaN()), float32(math.Inf(1))} {
		qb := q.Clone()
		qb.Set(1, 3, bad)
		if _, err := e.BlockwiseAttend(qb, k, k.Clone(), 4, 0.1); err == nil {
			t.Errorf("query holding %v should error", bad)
		}
	}
}

func TestBlockwiseFallbackWhenNothingSelected(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	e := newTestEngine(t, Config{D: 16, Seed: 4})
	q := tensor.RandomNormal(rng, 3, 16)
	k := tensor.RandomNormal(rng, 24, 16)
	v := tensor.RandomNormal(rng, 24, 16)
	res, err := e.BlockwiseAttend(q, k, v, 8, 10) // impossible threshold
	if err != nil {
		t.Fatal(err)
	}
	if res.FallbackQueries != 3 {
		t.Errorf("FallbackQueries = %d, want 3", res.FallbackQueries)
	}
	for i := 0; i < 3; i++ {
		if len(res.Candidates[i]) != 1 {
			t.Errorf("query %d: fallback should yield one candidate", i)
		}
		y := res.Candidates[i][0]
		for j, got := range res.Output.Row(i) {
			if math.Abs(float64(got-v.At(y, j))) > 1e-6 {
				t.Fatalf("fallback output should equal value row %d", y)
			}
		}
	}
}

// Property: with filtering disabled the output does not depend on the
// partition of the keys, bit for bit.
func TestBlockwiseBlockSizeInvariance(t *testing.T) {
	e := newTestEngine(t, Config{D: 16, Seed: 5})
	f := func(seed int64, bsRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 10 + rng.Intn(40)
		q := tensor.RandomNormal(rng, 3, 16)
		k := tensor.RandomNormal(rng, n, 16)
		v := tensor.RandomNormal(rng, n, 16)
		bs := 1 + int(bsRaw)%n
		a, err := e.BlockwiseAttend(q, k, v, bs, ExactThresholdNoApprox)
		if err != nil {
			return false
		}
		b, err := e.BlockwiseAttend(q, k, v, n, ExactThresholdNoApprox)
		if err != nil {
			return false
		}
		for i, x := range a.Output.Data {
			if math.Float32bits(x) != math.Float32bits(b.Output.Data[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// At the exact threshold every key is a candidate, even when every key is
// zero and so no approximate similarity exceeds any cut.
func TestBlockwiseExactAttendsZeroKeys(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	e := newTestEngine(t, Config{D: 16, Seed: 7})
	q := tensor.RandomNormal(rng, 4, 16)
	k := tensor.New(12, 16)
	v := tensor.RandomNormal(rng, 12, 16)
	want := Exact(q, k, v, e.Config().Scale)
	for _, bs := range []int{1, 5, 12} {
		res, err := e.BlockwiseAttend(q, k, v, bs, ExactThresholdNoApprox)
		if err != nil {
			t.Fatal(err)
		}
		if res.TotalCandidates != 4*12 || res.FallbackQueries != 0 {
			t.Fatalf("block size %d: %d candidates, %d fallbacks; want every key, none",
				bs, res.TotalCandidates, res.FallbackQueries)
		}
		if d := tensor.MaxAbsDiff(want, res.Output); d > 1e-5 {
			t.Errorf("block size %d: diverges from the value mean by %g", bs, d)
		}
	}
}

// Each block filters its window as one ordinary invocation over that
// block alone would, and the output is the softmax over the union of the
// blocks' candidates, globally indexed and ascending.
func TestBlockwiseCandidateIndexing(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	e := newTestEngine(t, Config{D: 16, Seed: 6})
	q, k, v, _ := clustered(rng, 8, 40, 16, 1.5)
	const bs, thr = 13, 0.1
	res, err := e.BlockwiseAttend(q, k, v, bs, thr)
	if err != nil {
		t.Fatal(err)
	}
	scale := e.Config().Scale
	for qi, cand := range res.Candidates {
		var want []int
		for lo := 0; lo < 40; lo += bs {
			hi := min(lo+bs, 40)
			pre, err := e.Preprocess(rowsOf(k, lo, hi), rowsOf(v, lo, hi))
			if err != nil {
				t.Fatal(err)
			}
			for _, y := range e.SelectCandidates(e.HashVector(q.Row(qi)), pre, thr, nil) {
				want = append(want, lo+y)
			}
		}
		if len(want) == 0 {
			continue // a fallback query; TestBlockwiseFallbackWhenNothingSelected
		}
		if !slices.Equal(cand, want) {
			t.Fatalf("query %d: candidates %v, want the per-block union %v", qi, cand, want)
		}
		// Reference softmax over the union, in float64.
		maxs := math.Inf(-1)
		for _, y := range cand {
			maxs = max(maxs, float64(tensor.Dot(q.Row(qi), k.Row(y)))*scale)
		}
		ref := make([]float64, 16)
		sum := 0.0
		for _, y := range cand {
			w := math.Exp(float64(tensor.Dot(q.Row(qi), k.Row(y)))*scale - maxs)
			sum += w
			for j, x := range v.Row(y) {
				ref[j] += w * float64(x)
			}
		}
		for j, got := range res.Output.Row(qi) {
			if d := math.Abs(float64(got) - ref[j]/sum); d > 1e-5 {
				t.Fatalf("query %d col %d: %v, union softmax %v", qi, j, got, ref[j]/sum)
			}
		}
	}
}

// rowsOf returns a view of rows [lo, hi) of m.
func rowsOf(m *tensor.Matrix, lo, hi int) *tensor.Matrix {
	return &tensor.Matrix{Rows: hi - lo, Cols: m.Cols, Data: m.Data[lo*m.Cols : hi*m.Cols]}
}
