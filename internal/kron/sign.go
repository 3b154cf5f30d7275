package kron

import (
	"fmt"

	"elsa/internal/tensor"
)

// kernel444 holds the factors of a (4×4)^⊗3 projection with no zero entry
// in the layouts its sign kernels read. f is the three factors' row-major
// entries back to back (factor m, row r, column c at 16m + 4r + c), for
// sign444. simd is signs444's table, one YMM register's eight float32
// lanes per entry, so the kernel multiplies by an entry straight from
// memory: entry 4r + c holds a[r][c] in every lane (factor 0); entry
// 16 + 4h + c holds b[2h][c] in lanes 0–3 and b[2h+1][c] in lanes 4–7
// (factor 1); entry 24 + c holds c[l mod 4][c] in lane l (factor 2).
type kernel444 struct {
	f    [48]float32
	simd [28][8]float32
}

// newKernel444 returns the sign kernel for factors when they are three
// 4×4 matrices with no zero entry, and nil otherwise. A zero entry needs
// the generic mode product, which skips it: 0·Inf is NaN, so multiplying
// by it would change the sum.
func newKernel444(factors []*tensor.Matrix) *kernel444 {
	if len(factors) != 3 {
		return nil
	}
	k := &kernel444{}
	for m, a := range factors {
		if a.Rows != 4 || a.Cols != 4 {
			return nil
		}
		for i, v := range a.Data[:16] {
			if v == 0 {
				return nil
			}
			k.f[16*m+i] = v
		}
	}
	for l := 0; l < 8; l++ {
		for e := 0; e < 16; e++ {
			k.simd[e][l] = k.f[e]
		}
		for c := 0; c < 4; c++ {
			k.simd[16+c][l] = k.f[16+4*(l/4)+c]
			k.simd[20+c][l] = k.f[16+4*(2+l/4)+c]
			k.simd[24+c][l] = k.f[32+4*(l%4)+c]
		}
	}
	return k
}

// SignKernel reports whether p is a (4×4)^⊗3 projection with no zero
// factor entry, the shape whose sign hashes SignWords computes.
func (p *Projection) SignKernel() bool { return p.k444 != nil }

// SignWords writes the 64 sign bits of A·x for each row x of xs, a
// row-major n×64 matrix, into dst[i·stride] for row i: bit j is set when
// (A·x)[j] >= 0, so −0 sets it and NaN does not, as srp.PackSigns does.
// Every element of A·x is summed exactly as ApplyTo sums it, so each word
// equals ApplyTo followed by PackSigns bit for bit. Where the CPU has AVX2
// the rows go through the assembly kernel signs444, elsewhere through the
// pure-Go sign444. p must have a sign kernel (SignKernel).
func (p *Projection) SignWords(dst []uint64, stride int, xs []float32) {
	k := p.k444
	if k == nil {
		panic("kron: SignWords needs a (4×4)^⊗3 projection with no zero factor entry")
	}
	if len(xs)%64 != 0 {
		panic(fmt.Sprintf("kron: input length %d is not a whole number of 64-element rows", len(xs)))
	}
	n := len(xs) / 64
	if n == 0 {
		return
	}
	if stride < 1 || len(dst) < (n-1)*stride+1 {
		panic(fmt.Sprintf("kron: output length %d cannot hold %d words %d apart", len(dst), n, stride))
	}
	if tensor.HasAVX2 {
		signs444(&dst[0], stride, &xs[0], n, &k.simd)
		return
	}
	for i := 0; i < n; i++ {
		dst[i*stride] = sign444(&k.f, (*[64]float32)(xs[64*i:64*i+64]))
	}
}

// sign444 is the pure-Go (4×4)^⊗3 sign kernel. It runs the three mode
// products of ApplyTo with each factor's 16 entries held in locals: every
// output element starts from +0 and adds a[r][c]·x in ascending c, the
// generic mode product's order for a factor with no zero entry. Each
// product is converted to float32 on its own, so no compiler may fuse it
// into the add. The last mode sets each sign bit as it produces the
// element.
func sign444(f *[48]float32, x *[64]float32) uint64 {
	var t0, t1 [64]float32

	// Mode 0: x is 4×16, t0[16r+q] = Σc a[r][c]·x[16c+q].
	a00, a01, a02, a03 := f[0], f[1], f[2], f[3]
	a10, a11, a12, a13 := f[4], f[5], f[6], f[7]
	a20, a21, a22, a23 := f[8], f[9], f[10], f[11]
	a30, a31, a32, a33 := f[12], f[13], f[14], f[15]
	for q := 0; q < 16; q++ {
		x0, x1, x2, x3 := x[q], x[16+q], x[32+q], x[48+q]
		t0[q] = float32(0) + float32(a00*x0) + float32(a01*x1) + float32(a02*x2) + float32(a03*x3)
		t0[16+q] = float32(0) + float32(a10*x0) + float32(a11*x1) + float32(a12*x2) + float32(a13*x3)
		t0[32+q] = float32(0) + float32(a20*x0) + float32(a21*x1) + float32(a22*x2) + float32(a23*x3)
		t0[48+q] = float32(0) + float32(a30*x0) + float32(a31*x1) + float32(a32*x2) + float32(a33*x3)
	}

	// Mode 1: t0 is 4×4×4, t1[16p+4r+q] = Σc b[r][c]·t0[16p+4c+q].
	b00, b01, b02, b03 := f[16], f[17], f[18], f[19]
	b10, b11, b12, b13 := f[20], f[21], f[22], f[23]
	b20, b21, b22, b23 := f[24], f[25], f[26], f[27]
	b30, b31, b32, b33 := f[28], f[29], f[30], f[31]
	for p := 0; p < 64; p += 16 {
		for q := p; q < p+4; q++ {
			// The masks only let the compiler drop the bounds checks.
			x0, x1, x2, x3 := t0[q&63], t0[(q+4)&63], t0[(q+8)&63], t0[(q+12)&63]
			t1[q&63] = float32(0) + float32(b00*x0) + float32(b01*x1) + float32(b02*x2) + float32(b03*x3)
			t1[(q+4)&63] = float32(0) + float32(b10*x0) + float32(b11*x1) + float32(b12*x2) + float32(b13*x3)
			t1[(q+8)&63] = float32(0) + float32(b20*x0) + float32(b21*x1) + float32(b22*x2) + float32(b23*x3)
			t1[(q+12)&63] = float32(0) + float32(b30*x0) + float32(b31*x1) + float32(b32*x2) + float32(b33*x3)
		}
	}

	// Mode 2: t1 is 16×4, element 4p+r = Σc c[r][c]·t1[4p+c], and its
	// sign is bit 4p+r of the hash.
	c00, c01, c02, c03 := f[32], f[33], f[34], f[35]
	c10, c11, c12, c13 := f[36], f[37], f[38], f[39]
	c20, c21, c22, c23 := f[40], f[41], f[42], f[43]
	c30, c31, c32, c33 := f[44], f[45], f[46], f[47]
	var w uint64
	for p := 0; p < 16; p++ {
		x0, x1, x2, x3 := t1[4*p], t1[4*p+1], t1[4*p+2], t1[4*p+3]
		s0 := float32(0) + float32(c00*x0) + float32(c01*x1) + float32(c02*x2) + float32(c03*x3)
		s1 := float32(0) + float32(c10*x0) + float32(c11*x1) + float32(c12*x2) + float32(c13*x3)
		s2 := float32(0) + float32(c20*x0) + float32(c21*x1) + float32(c22*x2) + float32(c23*x3)
		s3 := float32(0) + float32(c30*x0) + float32(c31*x1) + float32(c32*x2) + float32(c33*x3)
		w |= (nonNeg(s0) | nonNeg(s1)<<1 | nonNeg(s2)<<2 | nonNeg(s3)<<3) << (4 * p)
	}
	return w
}

// nonNeg is 1 when s >= 0 (−0 included) and 0 otherwise (NaN included);
// the compiler turns it into a flag set, not a branch.
func nonNeg(s float32) uint64 {
	if s >= 0 {
		return 1
	}
	return 0
}
