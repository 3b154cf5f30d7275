// Package kron implements the Kronecker-product-structured orthogonal
// projections ELSA uses for cheap hash computation (§III-C of the paper).
//
// A k×d projection matrix A expressed as a Kronecker product of F small
// factors A = A₁ ⊗ A₂ ⊗ … ⊗ A_F can be applied to a vector with
// successive mode products instead of a dense k·d multiply. For d = k = 64
// the paper's two-factor (8×8 ⊗ 8×8) form costs 1024 = 2·d^{3/2}
// multiplications and the three-factor (4×4)^⊗3 form costs 768 = 3·d^{4/3},
// versus 4096 = d² dense.
package kron

import (
	"fmt"
	"math/rand"

	"elsa/internal/tensor"
)

// Kronecker returns the explicit Kronecker product A ⊗ B. Used for
// verification and for expanding a structured projection to its dense
// equivalent; the fast path never materializes it.
func Kronecker(a, b *tensor.Matrix) *tensor.Matrix {
	out := tensor.New(a.Rows*b.Rows, a.Cols*b.Cols)
	for ia := 0; ia < a.Rows; ia++ {
		for ja := 0; ja < a.Cols; ja++ {
			av := a.At(ia, ja)
			if av == 0 {
				continue
			}
			for ib := 0; ib < b.Rows; ib++ {
				row := out.Row(ia*b.Rows + ib)
				brow := b.Row(ib)
				base := ja * b.Cols
				for jb, bv := range brow {
					row[base+jb] += av * bv
				}
			}
		}
	}
	return out
}

// Projection is a k×d orthogonal projection represented as a Kronecker
// product of small factors. It is immutable after construction and safe for
// concurrent use.
type Projection struct {
	factors []*tensor.Matrix
	inDims  []int // column counts of each factor; product == D
	outDims []int // row counts of each factor; product == K
	// modePre[m]/modePost[m] are the flattened sizes before/after mode m at
	// the moment it is contracted (modes 0..m-1 already mapped to outDims).
	// They are fixed by the factor shapes, so Apply need not rebuild a dims
	// slice per call.
	modePre, modePost []int
	// maxInter is the largest intermediate tensor any mode product emits;
	// ApplyTo sizes its ping-pong scratch from it.
	maxInter int
	// k444 is the sign kernel of the (4×4)^⊗3 shape, nil for any other
	// shape and for factors with a zero entry.
	k444 *kernel444
	D, K int
}

// NewProjection wraps the given factors (outermost first). Each factor may
// be rectangular; the composite maps prod(cols) dimensions to prod(rows)
// hash bits.
func NewProjection(factors ...*tensor.Matrix) (*Projection, error) {
	if len(factors) == 0 {
		return nil, fmt.Errorf("kron: need at least one factor")
	}
	p := &Projection{factors: factors, D: 1, K: 1}
	for _, f := range factors {
		p.inDims = append(p.inDims, f.Cols)
		p.outDims = append(p.outDims, f.Rows)
		p.D *= f.Cols
		p.K *= f.Rows
	}
	pre := 1
	post := p.D
	for _, f := range factors {
		post /= f.Cols
		p.modePre = append(p.modePre, pre)
		p.modePost = append(p.modePost, post)
		if out := pre * f.Rows * post; out > p.maxInter {
			p.maxInter = out
		}
		pre *= f.Rows
	}
	p.k444 = newKernel444(factors)
	return p, nil
}

// ScratchLen is the float32 scratch length ApplyTo needs for its
// intermediate mode products: zero for a single factor (the product goes
// straight into dst), otherwise two ping-pong buffers of the largest
// intermediate size.
func (p *Projection) ScratchLen() int {
	if len(p.factors) == 1 {
		return 0
	}
	return 2 * p.maxInter
}

// NewRandomOrthogonal builds a projection whose factors are independent
// random matrices with orthonormal rows, so the composite also has
// orthonormal rows (Kronecker products of orthogonal matrices are
// orthogonal). shapes lists (rows, cols) per factor, outermost first; every
// factor needs rows <= cols.
func NewRandomOrthogonal(rng *rand.Rand, shapes ...[2]int) (*Projection, error) {
	if len(shapes) == 0 {
		return nil, fmt.Errorf("kron: need at least one factor shape")
	}
	factors := make([]*tensor.Matrix, len(shapes))
	for i, s := range shapes {
		f, err := tensor.RandomOrthonormal(rng, s[0], s[1])
		if err != nil {
			return nil, fmt.Errorf("kron: factor %d: %w", i, err)
		}
		factors[i] = f
	}
	return NewProjection(factors...)
}

// StandardShapes returns the paper's preferred factorization for a square
// k = d projection: three equal factors when d is a perfect cube, two when
// it is a perfect square, otherwise a single dense factor. For d = 64 this
// yields the (4×4)^⊗3 configuration used by the hash computation module.
func StandardShapes(d int) [][2]int {
	if r, ok := intRoot(d, 3); ok {
		return [][2]int{{r, r}, {r, r}, {r, r}}
	}
	if r, ok := intRoot(d, 2); ok {
		return [][2]int{{r, r}, {r, r}}
	}
	return [][2]int{{d, d}}
}

func intRoot(n, p int) (int, bool) {
	for r := 1; ; r++ {
		v := 1
		for i := 0; i < p; i++ {
			v *= r
		}
		if v == n {
			return r, true
		}
		if v > n {
			return 0, false
		}
	}
}

// Factors returns the underlying factor matrices (outermost first). The
// returned slice must not be mutated.
func (p *Projection) Factors() []*tensor.Matrix { return p.factors }

// Apply computes A·x via successive mode products. The input x is treated
// as a row-major tensor of shape inDims; each factor contracts its mode.
func (p *Projection) Apply(x []float32) []float32 {
	out := make([]float32, p.K)
	p.ApplyTo(out, x, nil)
	return out
}

// ApplyTo computes A·x into dst (length K) without allocating when scratch
// has at least ScratchLen() elements; a nil or short scratch is replaced by
// a fresh one. dst, x and scratch must not overlap. The arithmetic is
// identical to Apply, so hash bits computed through reused workspace
// buffers match the allocating path bit for bit.
func (p *Projection) ApplyTo(dst, x, scratch []float32) {
	if len(x) != p.D {
		panic(fmt.Sprintf("kron: input length %d, want %d", len(x), p.D))
	}
	if len(dst) != p.K {
		panic(fmt.Sprintf("kron: output length %d, want %d", len(dst), p.K))
	}
	last := len(p.factors) - 1
	if last == 0 {
		modeProductInto(dst, x, p.modePre[0], p.modePost[0], p.factors[0])
		return
	}
	if need := p.ScratchLen(); len(scratch) < need {
		scratch = make([]float32, need)
	}
	bufA := scratch[:p.maxInter]
	bufB := scratch[p.maxInter : 2*p.maxInter]
	src := x
	for mode, f := range p.factors {
		outLen := p.modePre[mode] * f.Rows * p.modePost[mode]
		var out []float32
		switch {
		case mode == last:
			out = dst
		case mode%2 == 0:
			out = bufA[:outLen]
		default:
			out = bufB[:outLen]
		}
		modeProductInto(out, src, p.modePre[mode], p.modePost[mode], f)
		src = out
	}
}

// modeProductInto contracts factor a against the current mode of the
// row-major tensor src, whose flattened shape is pre × a.Cols × post,
// writing the pre × a.Rows × post result into out. Each output element is
// summed in a register and stored once: starting from zero, it adds
// a[r][c]·src[c] in ascending c, skipping zero factor entries. That is the
// operation order of an accumulate-into-zeroed-memory loop, so the result
// is bit-identical to it. Each product is rounded to float32 before it is
// added, so no architecture fuses the two and the sign kernels, which do
// the same, agree with it everywhere.
func modeProductInto(out, src []float32, pre, post int, a *tensor.Matrix) {
	cur, rows := a.Cols, a.Rows
	if len(src) != pre*cur*post {
		panic(fmt.Sprintf("kron: mode input length %d, want %d", len(src), pre*cur*post))
	}
	for pi := 0; pi < pre; pi++ {
		in := src[pi*cur*post : (pi+1)*cur*post]
		o := out[pi*rows*post : (pi+1)*rows*post]
		for r := 0; r < rows; r++ {
			arow := a.Row(r)
			for q := 0; q < post; q++ {
				s := float32(0)
				for c, av := range arow {
					if av != 0 {
						s += float32(av * in[c*post+q])
					}
				}
				o[r*post+q] = s
			}
		}
	}
}

// MulCount returns the exact number of scalar multiplications Apply performs
// (ignoring zero-skipping), matching the paper's accounting: for the
// three-factor (4×4)^⊗3 case on d = 64 this is 768 = 3·d^{4/3}.
func (p *Projection) MulCount() int {
	dims := make([]int, len(p.inDims))
	copy(dims, p.inDims)
	total := 0
	for mode, f := range p.factors {
		pre, post := 1, 1
		for i := 0; i < mode; i++ {
			pre *= dims[i]
		}
		for i := mode + 1; i < len(dims); i++ {
			post *= dims[i]
		}
		total += pre * post * f.Rows * f.Cols
		dims[mode] = f.Rows
	}
	return total
}

// DenseMulCount is the multiplication cost of the unstructured k×d projection.
func DenseMulCount(k, d int) int { return k * d }

// Dense expands the projection to its explicit k×d matrix by chaining
// Kronecker products. Intended for tests and cross-validation only.
func (p *Projection) Dense() *tensor.Matrix {
	out := p.factors[0]
	for _, f := range p.factors[1:] {
		out = Kronecker(out, f)
	}
	return out
}
