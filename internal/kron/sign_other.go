//go:build !amd64

package kron

func signs444(dst *uint64, stride int, xs *float32, n int, simd *[28][8]float32) {
	panic("kron: no AVX2 sign kernel on this architecture")
}
