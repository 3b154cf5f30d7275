package tensor

import "math"

// ExpInto sets dst[i] = math.Exp(src[i]) for every i < len(src), bit for
// bit; dst must be at least as long as src and may be src itself. Where
// the CPU has AVX2 and FMA, whole blocks of four go through exp4, the
// Go runtime's fused math.Exp sequence run on four lanes; a block with
// an element outside [-708, 709] or a NaN, and the last len(src) mod 4
// elements, call math.Exp. Elsewhere every element calls math.Exp.
func ExpInto(dst, src []float64) {
	dst = dst[:len(src)]
	i := 0
	if HasAVX2 && hasFMA {
		for n := len(src) &^ 3; i < n; {
			i += exp4(&dst[i], &src[i], n-i)
			if i < n {
				for end := i + 4; i < end; i++ {
					dst[i] = math.Exp(src[i])
				}
			}
		}
	}
	for ; i < len(src); i++ {
		dst[i] = math.Exp(src[i])
	}
}
