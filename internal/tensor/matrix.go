// Package tensor implements the dense linear-algebra substrate the ELSA
// reproduction is built on: row-major float32 matrices, the handful of BLAS
// kernels self-attention needs (matmul, transposed matmul, dot products,
// norms, row softmax), and orthogonalization helpers for sign random
// projection.
//
// The package is deliberately small and dependency-free: the paper's
// workloads use d = 64 and n <= 512 per attention head, so cache-friendly
// straightforward loops are fast enough, and keeping every numeric step
// visible makes the fixed-point and simulator cross-checks auditable. The
// one exception is the attention engine's scoring step: DotRows and
// SelfDots run an AVX2 kernel where the CPU has one, bit-identical to Dot.
package tensor

import (
	"fmt"
	"math"
	"slices"
)

// Matrix is a dense row-major float32 matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float32 // len == Rows*Cols
}

// New allocates a zero matrix of the given shape. It panics on non-positive
// dimensions, which indicate a programming error rather than bad input data.
func New(rows, cols int) *Matrix {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("tensor: invalid shape %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float32, rows*cols)}
}

// FromRows builds a matrix from a slice of equal-length rows, copying the
// data.
func FromRows(rows [][]float32) (*Matrix, error) {
	if len(rows) == 0 || len(rows[0]) == 0 {
		return nil, fmt.Errorf("tensor: FromRows needs at least one non-empty row")
	}
	cols := len(rows[0])
	m := New(len(rows), cols)
	for i, r := range rows {
		if len(r) != cols {
			return nil, fmt.Errorf("tensor: ragged row %d: got %d cols, want %d", i, len(r), cols)
		}
		copy(m.Data[i*cols:(i+1)*cols], r)
	}
	return m, nil
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float32 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float32) { m.Data[i*m.Cols+j] = v }

// Row returns row i as a slice aliasing the matrix storage. Mutating the
// returned slice mutates the matrix.
func (m *Matrix) Row(i int) []float32 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// Clone returns a deep copy. A matrix with no rows clones to another.
func (m *Matrix) Clone() *Matrix {
	return &Matrix{Rows: m.Rows, Cols: m.Cols, Data: slices.Clone(m.Data[:m.Rows*m.Cols])}
}

// Shape returns (rows, cols).
func (m *Matrix) Shape() (int, int) { return m.Rows, m.Cols }

// String renders a compact shape-tagged description, not the full contents.
func (m *Matrix) String() string { return fmt.Sprintf("Matrix(%dx%d)", m.Rows, m.Cols) }

// Transpose returns a new matrix that is the transpose of m.
func (m *Matrix) Transpose() *Matrix {
	t := New(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j, v := range row {
			t.Data[j*t.Cols+i] = v
		}
	}
	return t
}

// MatMul returns a*b. It panics on shape mismatch: shapes are static
// properties of the model configuration, so a mismatch is a bug, not input
// error.
func MatMul(a, b *Matrix) *Matrix {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("tensor: matmul shape mismatch %dx%d · %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	out := New(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		arow := a.Row(i)
		orow := out.Row(i)
		for k, av := range arow {
			if av == 0 {
				continue
			}
			brow := b.Row(k)
			for j, bv := range brow {
				orow[j] += av * bv
			}
		}
	}
	return out
}

// MatMulT returns a*bᵀ without materializing the transpose; this is the
// similarity-computation shape Q·Kᵀ from the paper's step one. The inner
// loop is blocked four b-rows at a time with the row slices hoisted out, so
// each pass over arow feeds four independent accumulators and the bounds
// checks stay outside the hot loop.
func MatMulT(a, b *Matrix) *Matrix {
	if a.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: matmulT shape mismatch %dx%d · (%dx%d)ᵀ", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	out := New(a.Rows, b.Rows)
	for i := 0; i < a.Rows; i++ {
		matMulTRow(out.Row(i), a.Row(i), b)
	}
	return out
}

// matMulTRow fills orow with arow·bᵀ. Shared by the serial and parallel
// MatMulT so their floating-point summation order — and hence their outputs —
// stay bitwise identical. Each block of four b-rows uses the same strided
// four-accumulator order as Dot, with each product rounded on its own as
// Dot rounds it, so partial blocks (handled by Dot directly) also match.
func matMulTRow(orow, arow []float32, b *Matrix) {
	j := 0
	for ; j+4 <= b.Rows; j += 4 {
		b0 := b.Row(j)[:len(arow)]
		b1 := b.Row(j + 1)[:len(arow)]
		b2 := b.Row(j + 2)[:len(arow)]
		b3 := b.Row(j + 3)[:len(arow)]
		var p00, p01, p02, p03 float32
		var p10, p11, p12, p13 float32
		var p20, p21, p22, p23 float32
		var p30, p31, p32, p33 float32
		k := 0
		for ; k+4 <= len(arow); k += 4 {
			a0, a1, a2, a3 := arow[k], arow[k+1], arow[k+2], arow[k+3]
			p00 += float32(a0 * b0[k])
			p01 += float32(a1 * b0[k+1])
			p02 += float32(a2 * b0[k+2])
			p03 += float32(a3 * b0[k+3])
			p10 += float32(a0 * b1[k])
			p11 += float32(a1 * b1[k+1])
			p12 += float32(a2 * b1[k+2])
			p13 += float32(a3 * b1[k+3])
			p20 += float32(a0 * b2[k])
			p21 += float32(a1 * b2[k+1])
			p22 += float32(a2 * b2[k+2])
			p23 += float32(a3 * b2[k+3])
			p30 += float32(a0 * b3[k])
			p31 += float32(a1 * b3[k+1])
			p32 += float32(a2 * b3[k+2])
			p33 += float32(a3 * b3[k+3])
		}
		for ; k < len(arow); k++ {
			av := arow[k]
			p00 += float32(av * b0[k])
			p10 += float32(av * b1[k])
			p20 += float32(av * b2[k])
			p30 += float32(av * b3[k])
		}
		orow[j] = (p00 + p01) + (p02 + p03)
		orow[j+1] = (p10 + p11) + (p12 + p13)
		orow[j+2] = (p20 + p21) + (p22 + p23)
		orow[j+3] = (p30 + p31) + (p32 + p33)
	}
	for ; j < b.Rows; j++ {
		orow[j] = Dot(arow, b.Row(j))
	}
}

// MulVec returns m·x for a column vector x.
func (m *Matrix) MulVec(x []float32) []float32 {
	if len(x) != m.Cols {
		panic(fmt.Sprintf("tensor: mulvec shape mismatch %dx%d · %d", m.Rows, m.Cols, len(x)))
	}
	out := make([]float32, m.Rows)
	for i := 0; i < m.Rows; i++ {
		out[i] = Dot(m.Row(i), x)
	}
	return out
}

// Scale multiplies every element by s in place and returns m.
func (m *Matrix) Scale(s float32) *Matrix {
	for i := range m.Data {
		m.Data[i] *= s
	}
	return m
}

// Dot returns the inner product of equal-length vectors. The loop runs four
// independent accumulators so the multiply-adds pipeline instead of
// serializing on one dependency chain; re-slicing b to len(a) hoists the
// bounds check out of the loop. Each product is converted to float32 on
// its own, so no compiler may fuse it into the add: the sum is the same
// on every architecture, and the same as the AVX2 kernels'.
func Dot(a, b []float32) float32 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("tensor: dot length mismatch %d vs %d", len(a), len(b)))
	}
	b = b[:len(a)]
	var s0, s1, s2, s3 float32
	i := 0
	for ; i+4 <= len(a); i += 4 {
		s0 += float32(a[i] * b[i])
		s1 += float32(a[i+1] * b[i+1])
		s2 += float32(a[i+2] * b[i+2])
		s3 += float32(a[i+3] * b[i+3])
	}
	for ; i < len(a); i++ {
		s0 += float32(a[i] * b[i])
	}
	return (s0 + s1) + (s2 + s3)
}

// DotRows sets dst[i] = Dot(q, x[(rows[i]-base)·d:][:d]) for each i, with
// d = len(q): q against a gathered list of x's d-wide rows. Where the CPU
// has AVX2 and d is a multiple of 4, the rows go through an assembly
// kernel that computes each product bit for bit as Dot does; otherwise
// each is one Dot call. It panics when dst is shorter than rows or a row
// lies outside x.
func DotRows(dst, q, x []float32, rows []int, base int) {
	d, n := len(q), len(rows)
	if len(dst) < n {
		panic(fmt.Sprintf("tensor: DotRows output length %d < %d rows", len(dst), n))
	}
	if d == 0 {
		clear(dst[:n])
		return
	}
	nx := len(x) / d
	for _, y := range rows {
		if uint(y-base) >= uint(nx) {
			panic(fmt.Sprintf("tensor: DotRows row %d outside %d rows from base %d", y, nx, base))
		}
	}
	if !HasAVX2 || d%4 != 0 || n == 0 {
		for i, y := range rows {
			dst[i] = Dot(q, x[(y-base)*d:(y-base+1)*d])
		}
		return
	}
	n8 := n &^ 7
	if n8 > 0 {
		dotRows8(&dst[0], &q[0], d, &x[0], &rows[0], base, n8)
	}
	if n8 < n {
		// The last n mod 8 rows, padded to a block with copies of the last.
		var idx [8]int
		var out [8]float32
		copy(idx[:], rows[n8:])
		for k := n - n8; k < 8; k++ {
			idx[k] = rows[n-1]
		}
		dotRows8(&out[0], &q[0], d, &x[0], &idx[0], base, 8)
		copy(dst[n8:n], out[:])
	}
}

// SelfDots sets dst[i] = Dot(r, r) for each d-wide row r of x, through the
// same kernel choice as DotRows; fewer than eight rows take Dot.
func SelfDots(dst, x []float32, d int) {
	n := len(x) / d
	if len(dst) < n {
		panic(fmt.Sprintf("tensor: SelfDots output length %d < %d rows", len(dst), n))
	}
	if !HasAVX2 || d%4 != 0 || n < 8 {
		for i := 0; i < n; i++ {
			r := x[i*d : (i+1)*d]
			dst[i] = Dot(r, r)
		}
		return
	}
	selfDots8(&dst[0], &x[0], d, n&^7)
	if n%8 != 0 {
		// The last eight rows again: the overlap rewrites equal values.
		selfDots8(&dst[n-8], &x[(n-8)*d], d, 8)
	}
}

// Norm returns the Euclidean (L2) norm of v.
func Norm(v []float32) float32 {
	var s float64
	for _, x := range v {
		s += float64(x) * float64(x)
	}
	return float32(math.Sqrt(s))
}

// Normalize scales v to unit norm in place and returns its original norm.
// A zero vector is left unchanged.
func Normalize(v []float32) float32 {
	n := Norm(v)
	if n == 0 {
		return 0
	}
	inv := 1 / n
	for i := range v {
		v[i] *= inv
	}
	return n
}

// Angle returns the angle in radians between vectors a and b, clamped into
// [0, π] against floating-point drift.
func Angle(a, b []float32) float64 {
	na, nb := Norm(a), Norm(b)
	if na == 0 || nb == 0 {
		return math.Pi / 2
	}
	c := float64(Dot(a, b)) / (float64(na) * float64(nb))
	if c > 1 {
		c = 1
	}
	if c < -1 {
		c = -1
	}
	return math.Acos(c)
}

// Softmax overwrites row with its softmax, using the max-subtraction trick
// for numerical stability, and returns the sum of exponentials (useful for
// cross-checking the accelerator's sum-of-exponent register).
func Softmax(row []float32) float64 {
	if len(row) == 0 {
		return 0
	}
	maxv := row[0]
	for _, v := range row[1:] {
		if v > maxv {
			maxv = v
		}
	}
	sum := 0.0
	for i, v := range row {
		e := math.Exp(float64(v - maxv))
		row[i] = float32(e)
		sum += e
	}
	inv := 1 / sum
	for i := range row {
		row[i] = float32(float64(row[i]) * inv)
	}
	return sum
}

// SoftmaxRows applies Softmax to every row of m.
func SoftmaxRows(m *Matrix) {
	for i := 0; i < m.Rows; i++ {
		Softmax(m.Row(i))
	}
}

// MaxAbsDiff returns the maximum absolute elementwise difference between two
// equally-shaped matrices.
func MaxAbsDiff(a, b *Matrix) float64 {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		panic("tensor: MaxAbsDiff shape mismatch")
	}
	maxd := 0.0
	for i, v := range a.Data {
		d := math.Abs(float64(v) - float64(b.Data[i]))
		if d > maxd {
			maxd = d
		}
	}
	return maxd
}

// CosineSim returns the cosine similarity between two equal-length vectors,
// the fidelity metric used to compare approximate and exact attention
// outputs.
func CosineSim(a, b []float32) float64 {
	na, nb := Norm(a), Norm(b)
	if na == 0 || nb == 0 {
		if na == 0 && nb == 0 {
			return 1
		}
		return 0
	}
	return float64(Dot(a, b)) / (float64(na) * float64(nb))
}
