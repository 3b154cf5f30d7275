//go:build !amd64

package kron

// hasAVX2 is false off amd64: SignWords hashes every row in sign444.
const hasAVX2 = false

func signs444(dst *uint64, stride int, xs *float32, n int, simd *[28][8]float32) {
	panic("kron: no AVX2 sign kernel on this architecture")
}
