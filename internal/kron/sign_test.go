package kron

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"

	"elsa/internal/srp"
	"elsa/internal/tensor"
)

// genericSignWord is the reference hash: the generic mode products
// (ApplyTo), then srp.PackSigns.
func genericSignWord(p *Projection, x []float32) uint64 {
	out := make([]float32, p.K)
	p.ApplyTo(out, x, nil)
	w := make([]uint64, 1)
	srp.PackSigns(w, 0, out)
	return w[0]
}

// checkSignKernels holds the pure-Go kernel, the AVX2 kernel (where the
// CPU has it) and SignWords to the generic hash of every 64-element row of
// xs.
func checkSignKernels(t testing.TB, p *Projection, xs []float32) {
	t.Helper()
	n := len(xs) / 64
	want := make([]uint64, n)
	for i := range want {
		x := xs[64*i : 64*i+64]
		want[i] = genericSignWord(p, x)
		if got := sign444(&p.k444.f, (*[64]float32)(x)); got != want[i] {
			t.Fatalf("row %d %v: pure-Go kernel %016x, generic %016x", i, x, got, want[i])
		}
	}
	// Two words per row, the second a sentinel: each kernel writes
	// exactly its own words.
	const sentinel = 0x5a5a5a5a5a5a5a5a
	dst := make([]uint64, 2*n)
	check := func(kernel string) {
		t.Helper()
		for i, w := range want {
			if dst[2*i] != w || dst[2*i+1] != sentinel {
				t.Fatalf("%s row %d %v: %016x then %016x, want %016x (generic) then the sentinel",
					kernel, i, xs[64*i:64*i+64], dst[2*i], dst[2*i+1], w)
			}
		}
	}
	for i := range dst {
		dst[i] = sentinel
	}
	if tensor.HasAVX2 {
		signs444(&dst[0], 2, &xs[0], n, &p.k444.simd)
		check("AVX2 kernel")
	}
	p.SignWords(dst, 2, xs)
	check("SignWords")
}

func newSignProjection(t testing.TB, seed int64) *Projection {
	t.Helper()
	p, err := NewRandomOrthogonal(rand.New(rand.NewSource(seed)), StandardShapes(64)...)
	if err != nil {
		t.Fatal(err)
	}
	if !p.SignKernel() {
		t.Fatalf("seed %d: random orthonormal (4×4)^⊗3 factors have no sign kernel", seed)
	}
	return p
}

// specialFloats are the inputs where a reordered, fused or zero-skipping
// sum would show: signed zeros, subnormals, values whose products
// overflow, infinities and NaNs.
var specialFloats = []float32{
	0, float32(math.Copysign(0, -1)),
	math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32,
	math.Float32frombits(0x007fffff), -math.Float32frombits(0x007fffff),
	math.MaxFloat32, -math.MaxFloat32, 3e38, -3e38,
	float32(math.Inf(1)), float32(math.Inf(-1)),
	float32(math.NaN()), math.Float32frombits(0xffc00001),
}

// TestSignKernelsMatchGeneric runs 20,000 random rows, many with planted
// special values, through every kernel against the generic hash. Every
// tenth row is zero (+0 or −0) but for up to three elements, so many of
// its outputs are exactly zero, where ≥ and > differ.
func TestSignKernelsMatchGeneric(t *testing.T) {
	if !tensor.HasAVX2 {
		t.Log("no AVX2 here: only the pure-Go kernel is checked")
	}
	rng := rand.New(rand.NewSource(91))
	value := func(special bool) float32 {
		switch r := rng.Intn(40); {
		case special && r < len(specialFloats):
			return specialFloats[r]
		case r == 39:
			return float32(rng.NormFloat64() * 1e-39) // subnormal range
		default:
			return float32(rng.NormFloat64())
		}
	}
	for trial := 0; trial < 50; trial++ {
		p := newSignProjection(t, int64(trial))
		xs := make([]float32, 400*64)
		for i := 0; i < 400; i++ {
			row := xs[64*i : 64*i+64]
			if i%10 != 0 {
				for j := range row {
					row[j] = value(trial%2 == 1)
				}
				continue
			}
			for j := range row {
				row[j] = specialFloats[rng.Intn(2)]
			}
			for k := rng.Intn(4); k > 0; k-- {
				row[rng.Intn(64)] = value(true)
			}
		}
		checkSignKernels(t, p, xs)
	}
}

// TestSignKernelShape pins which projections get the sign kernel: only
// three 4×4 factors, and only with no zero entry.
func TestSignKernelShape(t *testing.T) {
	rng := rand.New(rand.NewSource(92))
	for _, shapes := range [][][2]int{StandardShapes(16), StandardShapes(27), {{64, 64}}, {{4, 4}, {4, 4}, {2, 4}}} {
		p, err := NewRandomOrthogonal(rng, shapes...)
		if err != nil {
			t.Fatal(err)
		}
		if p.SignKernel() {
			t.Errorf("shapes %v: got a sign kernel", shapes)
		}
	}
	p := newSignProjection(t, 93)
	f := make([]*tensor.Matrix, 3)
	for i, a := range p.Factors() {
		f[i] = a.Clone()
	}
	f[1].Data[5] = 0
	q, err := NewProjection(f...)
	if err != nil {
		t.Fatal(err)
	}
	if q.SignKernel() {
		t.Error("a factor with a zero entry got the sign kernel")
	}
}

// FuzzHashKernels feeds arbitrary float32 bit patterns, 1–17 rows of
// them, through the generic hash, the pure-Go kernel and the AVX2 kernel:
// all must agree bit for bit and none may panic.
func FuzzHashKernels(f *testing.F) {
	special := make([]byte, 0, 4*len(specialFloats))
	for _, v := range specialFloats {
		special = binary.LittleEndian.AppendUint32(special, math.Float32bits(v))
	}
	f.Add(int64(1), uint8(0), special)
	f.Add(int64(2), uint8(7), special)
	f.Add(int64(3), uint8(16), []byte{0, 0, 0x80, 0x7f, 0, 0, 0x80, 0xff})
	f.Add(int64(4), uint8(9), []byte{})
	f.Fuzz(func(t *testing.T, seed int64, rows uint8, raw []byte) {
		p := newSignProjection(t, seed%64)
		n := 1 + int(rows)%17
		xs := make([]float32, 64*n)
		if len(raw) >= 4 {
			// The pattern repeats to fill every row, shifted by one
			// element per row so rows differ.
			m := len(raw) / 4
			for i := range xs {
				j := (i + i/64) % m
				xs[i] = math.Float32frombits(binary.LittleEndian.Uint32(raw[4*j:]))
			}
		}
		checkSignKernels(t, p, xs)
	})
}

// BenchmarkSignWords hashes 256 rows through SignWords (the AVX2 kernel
// where the CPU has it) and through the pure-Go kernel alone.
func BenchmarkSignWords(b *testing.B) {
	p := newSignProjection(b, 1)
	xs := tensor.RandomNormal(rand.New(rand.NewSource(2)), 256, 64).Data
	dst := make([]uint64, 256)
	b.Run("SignWords", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			p.SignWords(dst, 1, xs)
		}
	})
	b.Run("pure-Go", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for r := range dst {
				dst[r] = sign444(&p.k444.f, (*[64]float32)(xs[64*r:64*r+64]))
			}
		}
	})
}
