package tensor

// HasAVX2 reports whether the CPU executes AVX2 and the OS saves YMM
// state. Package initialisation sets it, and the assembly kernels of this
// package, kron and attention run only while it is set. Tests clear it to
// run the Go loops; nothing else writes it.
var HasAVX2 = detectAVX2()

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

// dotRows8 sets dst[i] = Dot(q, x[(rows[i]-base)·d:][:d]) for i < n, where
// n is a positive multiple of 8 and d of 4. Each 128-bit half of a YMM
// register holds one key: its lane l sums q[4c+l]·key[4c+l] for c
// ascending, VMULPS then VADDPS from +0, which is Dot's s_l. Two VHADDPS
// then form (s0+s1)+(s2+s3).
//
//go:noescape
func dotRows8(dst *float32, q *float32, d int, x *float32, rows *int, base int, n int)

// selfDots8 sets dst[i] = Dot(r_i, r_i) for the n contiguous d-wide rows
// r_i at x, n a positive multiple of 8 and d of 4, in dotRows8's lane
// order.
//
//go:noescape
func selfDots8(dst *float32, x *float32, d int, n int)
