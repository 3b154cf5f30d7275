#include "textflag.h"

// Every lane of every register below is one element of one mode's
// output. R8 points at kernel444.simd, 32 bytes per entry.

// ROW sums one register of outputs into acc: +0, then for c = 0..3 the
// factor entry at off+32c(R8) times Yc, each product rounded to float32
// before it is added (VMULPS then VADDPS, never FMA).
#define ROW(off, acc, tmp) \
	VXORPS acc, acc, acc; \
	VMULPS off+0(R8), Y0, tmp; \
	VADDPS tmp, acc, acc; \
	VMULPS off+32(R8), Y1, tmp; \
	VADDPS tmp, acc, acc; \
	VMULPS off+64(R8), Y2, tmp; \
	VADDPS tmp, acc, acc; \
	VMULPS off+96(R8), Y3, tmp; \
	VADDPS tmp, acc, acc

// DUP copies each 4-element chunk of lo and hi into both halves of a
// register: chunk c of (lo, hi) goes to Yc.
#define DUP(lo, hi) \
	VPERM2F128 $0x00, lo, lo, Y0; \
	VPERM2F128 $0x11, lo, lo, Y1; \
	VPERM2F128 $0x00, hi, hi, Y2; \
	VPERM2F128 $0x11, hi, hi, Y3

// SIGNBYTE finishes hash bits 8k..8k+7 from u, which holds t1[4P+c] for
// two consecutive P, one per 128-bit half: it spreads element c of each
// half over that half in Yc, sums mode 2 into Y12, and stores the ordered
// compare against +0 (Y15), lane i as bit i, to byte k of the word at DI.
#define SIGNBYTE(u, k) \
	VPERMILPS $0x00, u, Y0; \
	VPERMILPS $0x55, u, Y1; \
	VPERMILPS $0xAA, u, Y2; \
	VPERMILPS $0xFF, u, Y3; \
	ROW(768, Y12, Y13); \
	VCMPPS    $0x1D, Y15, Y12, Y14; \
	VMOVMSKPS Y14, BX; \
	MOVB      BX, k(DI)

// func signs444(dst *uint64, stride int, xs *float32, n int, simd *[28][8]float32)
//
// For each of the n ≥ 1 rows of 64 elements at xs, writes its sign word
// to dst, stride words apart. Mode 0 keeps the row's layout: a register
// holds t0[16r+q] for q in 0–7 (Y4–Y7, r = 0..3) or 8–15 (Y8–Y11). Mode 1
// takes one r at a time, both register halves reading the same chunks
// against different factor rows, so its registers hold t1[16r+4s+q] for
// s = 0,1 (Y4–Y7) or s = 2,3 (Y8–Y11). Mode 2's eight signs per register
// are then eight consecutive hash bits: one byte of the word.
TEXT ·signs444(SB), NOSPLIT, $0-40
	MOVQ   dst+0(FP), DI
	MOVQ   stride+8(FP), DX
	SHLQ   $3, DX
	MOVQ   xs+16(FP), AX
	MOVQ   n+24(FP), CX
	MOVQ   simd+32(FP), R8
	VXORPS Y15, Y15, Y15

row:
	// Mode 0, against entries 0–15: a[r][c] in every lane.
	VMOVUPS 0(AX), Y0
	VMOVUPS 64(AX), Y1
	VMOVUPS 128(AX), Y2
	VMOVUPS 192(AX), Y3
	ROW(0, Y4, Y12)
	ROW(128, Y5, Y13)
	ROW(256, Y6, Y14)
	ROW(384, Y7, Y12)
	VMOVUPS 32(AX), Y0
	VMOVUPS 96(AX), Y1
	VMOVUPS 160(AX), Y2
	VMOVUPS 224(AX), Y3
	ROW(0, Y8, Y13)
	ROW(128, Y9, Y14)
	ROW(256, Y10, Y12)
	ROW(384, Y11, Y13)

	// Mode 1, against entries 16–23: b[2h][c] and b[2h+1][c] per half.
	DUP(Y4, Y8)
	ROW(512, Y4, Y12)
	ROW(640, Y8, Y13)
	DUP(Y5, Y9)
	ROW(512, Y5, Y14)
	ROW(640, Y9, Y12)
	DUP(Y6, Y10)
	ROW(512, Y6, Y13)
	ROW(640, Y10, Y14)
	DUP(Y7, Y11)
	ROW(512, Y7, Y12)
	ROW(640, Y11, Y13)

	// Mode 2, against entries 24–27: c[l mod 4][c] in lane l.
	SIGNBYTE(Y4, 0)
	SIGNBYTE(Y8, 1)
	SIGNBYTE(Y5, 2)
	SIGNBYTE(Y9, 3)
	SIGNBYTE(Y6, 4)
	SIGNBYTE(Y10, 5)
	SIGNBYTE(Y7, 6)
	SIGNBYTE(Y11, 7)

	ADDQ $256, AX
	ADDQ DX, DI
	DECQ CX
	JNZ  row
	VZEROUPPER
	RET
