package tensor

import (
	"math"
	"math/rand"
	"testing"
)

// plantedFloat returns a normal draw, or now and then a value where a
// reordered or fused sum shows: a signed zero, a subnormal, or a large
// value whose products overflow to ±Inf (two of opposite sign make NaN).
func plantedFloat(rng *rand.Rand) float32 {
	switch rng.Intn(24) {
	case 0:
		return 0
	case 1:
		return float32(math.Copysign(0, -1))
	case 2:
		return float32(rng.NormFloat64() * 1e-39)
	case 3:
		return math.SmallestNonzeroFloat32 * float32(1-2*rng.Intn(2))
	case 4:
		return float32(rng.NormFloat64() * 1e20)
	default:
		return float32(rng.NormFloat64())
	}
}

// withGo runs f with the assembly kernels switched off.
func withGo(f func()) {
	saved := HasAVX2
	HasAVX2 = false
	defer func() { HasAVX2 = saved }()
	f()
}

func checkBits(t *testing.T, what string, got, want []float32) {
	t.Helper()
	for i := range want {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf("%s [%d]: %v (%#08x), Dot gives %v (%#08x)", what, i,
				got[i], math.Float32bits(got[i]), want[i], math.Float32bits(want[i]))
		}
	}
}

// TestDotKernelsMatchDot holds DotRows and SelfDots, with the AVX2
// kernels and with the Go loops, and the kernels called directly, to Dot
// bit for bit for every d from 1 to 96 and row lists of 0 to 40 rows in
// any order, repeats included, on inputs with planted signed zeros,
// subnormals and overflowing products.
func TestDotKernelsMatchDot(t *testing.T) {
	if !HasAVX2 {
		t.Log("no AVX2 here: only the Go loops are checked")
	}
	rng := rand.New(rand.NewSource(7))
	for d := 1; d <= 96; d++ {
		for _, n := range []int{0, 1, 3, 7, 8, 9, 16, 21, 40} {
			const spare = 5
			x := make([]float32, (n+spare)*d)
			for i := range x {
				x[i] = plantedFloat(rng)
			}
			q := make([]float32, d)
			for i := range q {
				q[i] = plantedFloat(rng)
			}
			base := rng.Intn(3)
			rows := make([]int, n)
			want := make([]float32, n)
			for i := range rows {
				y := rng.Intn(n + spare)
				rows[i] = y + base
				want[i] = Dot(q, x[y*d:(y+1)*d])
			}
			got := make([]float32, n)
			DotRows(got, q, x, rows, base)
			checkBits(t, "DotRows", got, want)
			withGo(func() { DotRows(got, q, x, rows, base) })
			checkBits(t, "DotRows (Go)", got, want)
			if HasAVX2 && d%4 == 0 && n%8 == 0 && n > 0 {
				clear(got)
				dotRows8(&got[0], &q[0], d, &x[0], &rows[0], base, n)
				checkBits(t, "dotRows8", got, want)
			}

			self := x[:n*d]
			for i := range want {
				r := self[i*d : (i+1)*d]
				want[i] = Dot(r, r)
			}
			SelfDots(got, self, d)
			checkBits(t, "SelfDots", got, want)
			withGo(func() { SelfDots(got, self, d) })
			checkBits(t, "SelfDots (Go)", got, want)
			if HasAVX2 && d%4 == 0 && n%8 == 0 && n > 0 {
				clear(got)
				selfDots8(&got[0], &self[0], d, n)
				checkBits(t, "selfDots8", got, want)
			}
		}
	}
}

func TestDotRowsPanicsOutsideX(t *testing.T) {
	x := make([]float32, 3*4)
	q := make([]float32, 4)
	dst := make([]float32, 1)
	for _, tc := range []struct {
		name string
		rows []int
		base int
	}{
		{"past the end", []int{3}, 0},
		{"below base", []int{1}, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Error("DotRows did not panic")
				}
			}()
			DotRows(dst, q, x, tc.rows, tc.base)
		})
	}
}

// BenchmarkDotRows scores one d = 64 query against 256 gathered rows,
// through DotRows (the AVX2 kernel where the CPU has it) and through Dot.
func BenchmarkDotRows(b *testing.B) {
	const n, d = 256, 64
	rng := rand.New(rand.NewSource(1))
	x := RandomNormal(rng, n, d)
	q := RandomNormal(rng, 1, d).Row(0)
	rows := make([]int, n)
	for i := range rows {
		rows[i] = i
	}
	dst := make([]float32, n)
	b.Run("DotRows", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			DotRows(dst, q, x.Data, rows, 0)
		}
	})
	b.Run("Dot", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for r, y := range rows {
				dst[r] = Dot(q, x.Row(y))
			}
		}
	})
}
