package kron

// hasAVX2 reports whether the CPU executes AVX2 and the OS saves YMM
// state, so SignWords may hash through signs444.
var hasAVX2 = detectAVX2()

func detectAVX2() bool {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&osxsave == 0 || ecx&avx == 0 {
		return false
	}
	// XCR0 bits 1 and 2: the OS saves the XMM and the upper YMM halves.
	if xgetbv()&6 != 6 {
		return false
	}
	const avx2 = 1 << 5
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&avx2 != 0
}

// cpuid executes CPUID with the given leaf and subleaf.
func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

// xgetbv returns the low half of extended control register XCR0.
func xgetbv() (eax uint32)

// signs444 writes the sign word of each of the n >= 1 64-element rows at
// xs to dst, stride words apart, holding eight elements of a row per YMM
// register. simd is kernel444.simd. Each lane sums one output element
// with sign444's float operations in sign444's order: VXORPS for the +0
// start, then VMULPS and VADDPS per term in ascending c, never FMA; a sign
// is VCMPPS's ordered ≥ against +0.
//
//go:noescape
func signs444(dst *uint64, stride int, xs *float32, n int, simd *[28][8]float32)
