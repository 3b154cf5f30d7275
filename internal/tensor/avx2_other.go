//go:build !amd64

package tensor

// HasAVX2 is false off amd64: every kernel runs its Go loop.
var HasAVX2 = false

const hasFMA = false

func dotRows8(dst *float32, q *float32, d int, x *float32, rows *int, base int, n int) {
	panic("tensor: no AVX2 dot kernel on this architecture")
}

func selfDots8(dst *float32, x *float32, d int, n int) {
	panic("tensor: no AVX2 dot kernel on this architecture")
}

func exp4(dst *float64, src *float64, n int) int {
	panic("tensor: no AVX2 exp kernel on this architecture")
}
