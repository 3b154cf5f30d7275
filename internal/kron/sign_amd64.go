package kron

// signs444 writes the sign word of each of the n >= 1 64-element rows at
// xs to dst, stride words apart, holding eight elements of a row per YMM
// register. simd is kernel444.simd. Each lane sums one output element
// with sign444's float operations in sign444's order: VXORPS for the +0
// start, then VMULPS and VADDPS per term in ascending c, never FMA; a sign
// is VCMPPS's ordered ≥ against +0.
//
//go:noescape
func signs444(dst *uint64, stride int, xs *float32, n int, simd *[28][8]float32)
