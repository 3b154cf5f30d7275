package tensor

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

// expEdges are the inputs where math.Exp branches or its result changes
// form: signed zeros, subnormals, infinities, NaN, the ends of the
// kernel's [-708, 709] range and the neighbours of each, the subnormal
// and underflow boundary near -708.4 and -745.1, and the overflow one
// near 709.78.
var expEdges = []float64{
	0, math.Copysign(0, -1), math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
	2.2250738585072014e-308, -2.2250738585072014e-308, 1e-300, -1e-300,
	math.Inf(1), math.Inf(-1), math.NaN(), -math.NaN(),
	-708, math.Nextafter(-708, -1000), math.Nextafter(-708, 0), -708.3964185322641, -708.4, -708.5,
	709, math.Nextafter(709, 1000), math.Nextafter(709, 0), 709.78, 709.782712893384, 709.8, 710,
	-745.1332191019411, -745.2, -746, -1e10, 1e10, -math.MaxFloat64, math.MaxFloat64,
	1, -1, 0.5, -0.5, math.Ln2, -math.Ln2, 1e-17, -1e-17,
}

// expInput draws from the ranges softmax and the linear scan feed the
// kernel, the whole kernel range, and arbitrary bit patterns.
func expInput(rng *rand.Rand) float64 {
	switch rng.Intn(8) {
	case 0:
		return expEdges[rng.Intn(len(expEdges))]
	case 1:
		return math.Float64frombits(rng.Uint64())
	case 2:
		return rng.Float64()*1460 - 750
	case 3:
		return rng.Float64()*2 - 1
	case 4:
		return -rng.ExpFloat64() * 4
	default:
		return -rng.Float64() * 40
	}
}

// checkExp fails unless ExpInto(src) equals math.Exp element by element,
// bit for bit (every NaN counts as equal to every other NaN).
func checkExp(t *testing.T, what string, src []float64) {
	t.Helper()
	dst := make([]float64, len(src))
	ExpInto(dst, src)
	for i, x := range src {
		want := math.Exp(x)
		if math.Float64bits(dst[i]) != math.Float64bits(want) && !(math.IsNaN(dst[i]) && math.IsNaN(want)) {
			t.Fatalf("%s: exp(%v) [%d of %d] = %v (%#016x), math.Exp gives %v (%#016x)", what, x, i, len(src),
				dst[i], math.Float64bits(dst[i]), want, math.Float64bits(want))
		}
	}
}

// TestExpIntoMatchesMathExp holds ExpInto, with the kernel and with the
// Go loop, to math.Exp bit for bit on 2^20 drawn inputs and every edge,
// in place and out of place, for lengths 0 to 9 (every remainder mod 4,
// and blocks mixing edge lanes with ordinary ones) and long runs. The
// kernel reproduces the Go runtime's amd64 exp sequence, so a toolchain
// that changes it fails here.
func TestExpIntoMatchesMathExp(t *testing.T) {
	if !HasAVX2 || !hasFMA {
		t.Log("no AVX2 and FMA here: only the Go loop is checked")
	}
	rng := rand.New(rand.NewSource(11))
	src := make([]float64, 1<<20)
	for i := range src {
		src[i] = expInput(rng)
	}
	for _, kernel := range []string{"kernel", "Go"} {
		run := func(f func()) { f() }
		if kernel == "Go" {
			run = withGo
		}
		run(func() {
			checkExp(t, kernel+" drawn", src)
			checkExp(t, kernel+" edges", expEdges)
			for n := 0; n <= 9; n++ {
				for off := 0; off+n <= 4096; off += n + 1 {
					checkExp(t, kernel+" ragged", src[off:off+n])
				}
			}
			inPlace := append([]float64(nil), src[:4099]...)
			ExpInto(inPlace, inPlace)
			for i, x := range src[:4099] {
				if want := math.Exp(x); math.Float64bits(inPlace[i]) != math.Float64bits(want) && !math.IsNaN(want) {
					t.Fatalf("%s in place: exp(%v) = %v, want %v", kernel, x, inPlace[i], want)
				}
			}
		})
	}
	// The kernel must take every block of in-range inputs itself.
	if HasAVX2 && hasFMA {
		in := make([]float64, 64)
		for i := range in {
			in[i] = rng.Float64()*1417 - 708
		}
		out := make([]float64, len(in))
		if got := exp4(&out[0], &in[0], len(in)); got != len(in) {
			t.Fatalf("exp4 stopped at %d of %d in-range inputs", got, len(in))
		}
	}
}

// FuzzExpInto feeds arbitrary float64 bit patterns, eight bytes each,
// through ExpInto against math.Exp.
func FuzzExpInto(f *testing.F) {
	f.Add([]byte{})
	f.Add(binary.LittleEndian.AppendUint64(nil, math.Float64bits(-708.4)))
	seed := []byte{}
	for _, x := range expEdges {
		seed = binary.LittleEndian.AppendUint64(seed, math.Float64bits(x))
	}
	f.Add(seed)
	f.Fuzz(func(t *testing.T, raw []byte) {
		src := make([]float64, len(raw)/8)
		for i := range src {
			src[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
		}
		checkExp(t, "fuzz", src)
		withGo(func() { checkExp(t, "fuzz Go", src) })
	})
}

// BenchmarkExpInto times 64 softmax-range exponentials plus their
// left-to-right sum, the shape of one query's softmax, through ExpInto
// and through a math.Exp loop.
func BenchmarkExpInto(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	src := make([]float64, 64)
	for i := range src {
		src[i] = -rng.Float64() * 12
	}
	dst := make([]float64, len(src))
	var sink float64
	b.Run("ExpInto", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ExpInto(dst, src)
			s := 0.0
			for _, v := range dst {
				s += v
			}
			sink += s
		}
	})
	b.Run("math.Exp", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			s := 0.0
			for j, x := range src {
				dst[j] = math.Exp(x)
				s += dst[j]
			}
			sink += s
		}
	})
	_ = sink
}
