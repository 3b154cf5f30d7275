package kron

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"elsa/internal/tensor"
)

func TestKroneckerKnown(t *testing.T) {
	a, _ := tensor.FromRows([][]float32{{1, 2}, {3, 4}})
	b, _ := tensor.FromRows([][]float32{{0, 5}, {6, 7}})
	k := Kronecker(a, b)
	want, _ := tensor.FromRows([][]float32{
		{0, 5, 0, 10},
		{6, 7, 12, 14},
		{0, 15, 0, 20},
		{18, 21, 24, 28},
	})
	if d := tensor.MaxAbsDiff(k, want); d != 0 {
		t.Errorf("Kronecker mismatch, max diff %g", d)
	}
}

func TestKroneckerOfOrthogonalIsOrthogonal(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a, _ := tensor.RandomOrthonormal(rng, 4, 4)
	b, _ := tensor.RandomOrthonormal(rng, 4, 4)
	if !tensor.IsOrthonormalRows(Kronecker(a, b), 1e-3) {
		t.Error("Kronecker of orthogonal matrices must be orthogonal")
	}
}

func TestNewProjectionValidation(t *testing.T) {
	if _, err := NewProjection(); err == nil {
		t.Error("no factors should error")
	}
	if _, err := NewRandomOrthogonal(rand.New(rand.NewSource(1))); err == nil {
		t.Error("no shapes should error")
	}
	if _, err := NewRandomOrthogonal(rand.New(rand.NewSource(1)), [2]int{5, 3}); err == nil {
		t.Error("rows > cols factor should error")
	}
}

func TestStandardShapes(t *testing.T) {
	cases := []struct {
		d    int
		want [][2]int
	}{
		{64, [][2]int{{4, 4}, {4, 4}, {4, 4}}},
		{27, [][2]int{{3, 3}, {3, 3}, {3, 3}}},
		{16, [][2]int{{4, 4}, {4, 4}}},
		{7, [][2]int{{7, 7}}},
	}
	for _, c := range cases {
		got := StandardShapes(c.d)
		if len(got) != len(c.want) {
			t.Errorf("StandardShapes(%d) = %v, want %v", c.d, got, c.want)
			continue
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("StandardShapes(%d)[%d] = %v, want %v", c.d, i, got[i], c.want[i])
			}
		}
	}
}

// The core equivalence: the structured Apply must agree with the dense
// matrix-vector product for 2- and 3-factor square and rectangular cases.
func TestApplyMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	shapeSets := [][][2]int{
		{{8, 8}, {8, 8}},         // paper's 2-factor d=64
		{{4, 4}, {4, 4}, {4, 4}}, // paper's 3-factor d=64
		{{2, 4}, {4, 4}},         // rectangular: k=8, d=16
		{{3, 3}, {2, 5}},         // mixed shapes: k=6, d=15
		{{5, 5}},                 // single factor degenerates to dense
	}
	for _, shapes := range shapeSets {
		p, err := NewRandomOrthogonal(rng, shapes...)
		if err != nil {
			t.Fatalf("shapes %v: %v", shapes, err)
		}
		dense := p.Dense()
		if dense.Rows != p.K || dense.Cols != p.D {
			t.Fatalf("dense shape %dx%d, want %dx%d", dense.Rows, dense.Cols, p.K, p.D)
		}
		for trial := 0; trial < 8; trial++ {
			x := tensor.RandomNormal(rng, 1, p.D).Row(0)
			fast := p.Apply(x)
			slow := dense.MulVec(x)
			for i := range fast {
				if math.Abs(float64(fast[i]-slow[i])) > 1e-4 {
					t.Fatalf("shapes %v: fast/dense mismatch at %d: %g vs %g", shapes, i, fast[i], slow[i])
				}
			}
		}
	}
}

func TestApplyPanicsOnWrongLength(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	p, _ := NewRandomOrthogonal(rng, [2]int{4, 4}, [2]int{4, 4})
	defer func() {
		if recover() == nil {
			t.Error("wrong input length should panic")
		}
	}()
	p.Apply(make([]float32, 15))
}

// Multiplication accounting from the paper: dense 4096, two-factor 1024,
// three-factor 768 for d = k = 64.
func TestMulCountMatchesPaper(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	if DenseMulCount(64, 64) != 4096 {
		t.Error("dense count should be 4096")
	}
	p2, _ := NewRandomOrthogonal(rng, [2]int{8, 8}, [2]int{8, 8})
	if got := p2.MulCount(); got != 1024 {
		t.Errorf("two-factor count = %d, want 1024 (2·d^1.5)", got)
	}
	p3, _ := NewRandomOrthogonal(rng, [2]int{4, 4}, [2]int{4, 4}, [2]int{4, 4})
	if got := p3.MulCount(); got != 768 {
		t.Errorf("three-factor count = %d, want 768 (3·d^4/3)", got)
	}
}

func TestProjectionPreservesNorm(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	p, err := NewRandomOrthogonal(rng, [2]int{4, 4}, [2]int{4, 4}, [2]int{4, 4})
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 10; trial++ {
		x := tensor.RandomNormal(rng, 1, 64).Row(0)
		y := p.Apply(x)
		if math.Abs(float64(tensor.Norm(y))-float64(tensor.Norm(x))) > 1e-3 {
			t.Fatal("square orthogonal Kronecker projection must preserve norms")
		}
	}
}

func TestFactorsAccessor(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	p, _ := NewRandomOrthogonal(rng, [2]int{4, 4}, [2]int{4, 4})
	if len(p.Factors()) != 2 {
		t.Error("Factors should return both factors")
	}
}

// Property: Apply is linear — A(αx + y) == αAx + Ay.
func TestApplyLinearity(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p, err := NewRandomOrthogonal(rng, [2]int{4, 4}, [2]int{4, 4})
		if err != nil {
			return false
		}
		x := tensor.RandomNormal(rng, 1, 16).Row(0)
		y := tensor.RandomNormal(rng, 1, 16).Row(0)
		alpha := float32(rng.NormFloat64())
		comb := make([]float32, 16)
		for i := range comb {
			comb[i] = alpha*x[i] + y[i]
		}
		lhs := p.Apply(comb)
		ax, ay := p.Apply(x), p.Apply(y)
		for i := range lhs {
			if math.Abs(float64(lhs[i]-(alpha*ax[i]+ay[i]))) > 1e-3 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Property: the dense expansion of a random orthogonal Kronecker projection
// has orthonormal rows for square factors.
func TestDenseExpansionOrthogonal(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p, err := NewRandomOrthogonal(rng, [2]int{4, 4}, [2]int{4, 4}, [2]int{4, 4})
		if err != nil {
			return false
		}
		return tensor.IsOrthonormalRows(p.Dense(), 1e-3)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}

// TestDenseExpansionOrthogonalSeeds pins the draws that once missed the
// 1e-3 bound because a nearly dependent factor row kept its float32
// cancellation error: the seed testing/quick found, and a sweep over
// seeds 16000–16999, which holds two more.
func TestDenseExpansionOrthogonalSeeds(t *testing.T) {
	seeds := []int64{7543373458506690659}
	for s := int64(16000); s < 17000; s++ {
		seeds = append(seeds, s)
	}
	for _, seed := range seeds {
		p, err := NewRandomOrthogonal(rand.New(rand.NewSource(seed)), StandardShapes(64)...)
		if err != nil {
			t.Fatal(err)
		}
		if !tensor.IsOrthonormalRows(p.Dense(), 1e-3) {
			t.Errorf("seed %d: dense expansion is not orthonormal within 1e-3", seed)
		}
	}
}

// refModeProductInto is the zero-fill, accumulate-into-memory mode
// product the store-once kernel replaced. The kernel must match it bit
// for bit.
func refModeProductInto(out, src []float32, pre, post int, a *tensor.Matrix) {
	cur := a.Cols
	for i := range out {
		out[i] = 0
	}
	for pi := 0; pi < pre; pi++ {
		for r := 0; r < a.Rows; r++ {
			arow := a.Row(r)
			dst := out[(pi*a.Rows+r)*post : (pi*a.Rows+r+1)*post]
			for c := 0; c < cur; c++ {
				av := arow[c]
				if av == 0 {
					continue
				}
				src := src[(pi*cur+c)*post : (pi*cur+c+1)*post]
				for q, sv := range src {
					dst[q] += float32(av * sv)
				}
			}
		}
	}
}

// refApply chains refModeProductInto over p's factors.
func refApply(p *Projection, x []float32) []float32 {
	src := x
	for mode, f := range p.factors {
		out := make([]float32, p.modePre[mode]*f.Rows*p.modePost[mode])
		refModeProductInto(out, src, p.modePre[mode], p.modePost[mode], f)
		src = out
	}
	return src
}

// TestApplyMatchesReference pins ApplyTo to the accumulate-into-memory
// mode product bit for bit, across the standard shapes, rectangular and
// mixed factors, factors with zero entries (the zero-skip), and inputs
// holding zeros, negative zeros and infinities.
func TestApplyMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	negZero := float32(math.Copysign(0, -1))
	for _, shapes := range [][][2]int{
		StandardShapes(64),
		StandardShapes(16),
		StandardShapes(20),
		{{2, 4}, {4, 4}, {3, 4}},
		{{4, 4}, {3, 5}},
		{{1, 4}, {8, 8}},
		{{4, 4}},
	} {
		p, err := NewRandomOrthogonal(rng, shapes...)
		if err != nil {
			t.Fatal(err)
		}
		for fi, f := range p.factors {
			if fi%2 == 0 {
				f.Data[rng.Intn(len(f.Data))] = 0
			}
		}
		scratch := make([]float32, p.ScratchLen())
		got := make([]float32, p.K)
		for trial := 0; trial < 20; trial++ {
			x := make([]float32, p.D)
			for i := range x {
				switch rng.Intn(6) {
				case 0:
					x[i] = 0
				case 1:
					x[i] = negZero
				default:
					x[i] = float32(rng.NormFloat64())
				}
			}
			if trial%4 == 3 {
				// Only a non-finite input tells a skipped zero entry from
				// an added 0·x.
				x[rng.Intn(len(x))] = float32(math.Inf(1))
			}
			p.ApplyTo(got, x, scratch)
			want := refApply(p, x)
			for i := range want {
				if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
					t.Fatalf("shapes %v trial %d: out[%d] = %v, reference %v", shapes, trial, i, got[i], want[i])
				}
			}
		}
	}
}
