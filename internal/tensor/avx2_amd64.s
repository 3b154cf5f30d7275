#include "textflag.h"

// Both dot kernels take eight keys per block. Key k of the block sits in
// the low half of Y(k mod 4) and key k+4 in its high half, so the four
// accumulators Y0–Y3 hold keys (0|4), (1|5), (2|6), (3|7). CX walks the
// row in 16-byte chunks; DX is the row length in bytes.

// PAIR adds chunk CX of keys lo (low half) and hi (high half) times mul
// into acc: VMULPS then VADDPS, never FMA, so each lane rounds its product
// before the add as Dot's scalar code does.
#define PAIR(lo, hi, tx, ty, mul, acc) \
	VMOVUPS     (lo)(CX*1), tx; \
	VINSERTF128 $1, (hi)(CX*1), ty, ty; \
	VMULPS      mul, ty, ty; \
	VADDPS      ty, acc, acc

// FINISH turns the four accumulators into the block's eight dot products,
// in key order, and stores them at dst. The first VHADDPS pair makes
// s0+s1 and s2+s3 per key; the last adds the two.
#define FINISH(dst) \
	VHADDPS Y1, Y0, Y0; \
	VHADDPS Y3, Y2, Y2; \
	VHADDPS Y2, Y0, Y0; \
	VMOVUPS Y0, dst

#define ZEROACC \
	VXORPS Y0, Y0, Y0; \
	VXORPS Y1, Y1, Y1; \
	VXORPS Y2, Y2, Y2; \
	VXORPS Y3, Y3, Y3

// ROWPTR loads rows[k] from CX and turns it into x + (rows[k]-base)·DX.
#define ROWPTR(k, reg) \
	MOVQ  (8*k)(CX), reg; \
	SUBQ  base+40(FP), reg; \
	IMULQ DX, reg; \
	ADDQ  x+24(FP), reg

// func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-4
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	RET

// func dotRows8(dst *float32, q *float32, d int, x *float32, rows *int, base int, n int)
TEXT ·dotRows8(SB), NOSPLIT, $0-56
	MOVQ q+8(FP), AX
	MOVQ d+16(FP), DX
	SHLQ $2, DX
	XORQ BX, BX

block:
	MOVQ rows+32(FP), CX
	LEAQ (CX)(BX*8), CX
	ROWPTR(0, R8)
	ROWPTR(1, R9)
	ROWPTR(2, R10)
	ROWPTR(3, R11)
	ROWPTR(4, R12)
	ROWPTR(5, R13)
	ROWPTR(6, SI)
	ROWPTR(7, DI)
	ZEROACC
	XORQ CX, CX

chunk:
	VBROADCASTF128 (AX)(CX*1), Y4
	PAIR(R8, R12, X5, Y5, Y4, Y0)
	PAIR(R9, R13, X6, Y6, Y4, Y1)
	PAIR(R10, SI, X7, Y7, Y4, Y2)
	PAIR(R11, DI, X8, Y8, Y4, Y3)
	ADDQ $16, CX
	CMPQ CX, DX
	JLT  chunk

	MOVQ dst+0(FP), CX
	FINISH((CX)(BX*4))
	ADDQ $8, BX
	CMPQ BX, n+48(FP)
	JLT  block
	VZEROUPPER
	RET

// func selfDots8(dst *float32, x *float32, d int, n int)
TEXT ·selfDots8(SB), NOSPLIT, $0-32
	MOVQ x+8(FP), R8
	MOVQ d+16(FP), DX
	SHLQ $2, DX
	XORQ BX, BX

self:
	LEAQ (R8)(DX*1), R9
	LEAQ (R9)(DX*1), R10
	LEAQ (R10)(DX*1), R11
	LEAQ (R11)(DX*1), R12
	LEAQ (R12)(DX*1), R13
	LEAQ (R13)(DX*1), SI
	LEAQ (SI)(DX*1), DI
	ZEROACC
	XORQ CX, CX

selfchunk:
	PAIR(R8, R12, X5, Y5, Y5, Y0)
	PAIR(R9, R13, X6, Y6, Y6, Y1)
	PAIR(R10, SI, X7, Y7, Y7, Y2)
	PAIR(R11, DI, X8, Y8, Y8, Y3)
	ADDQ $16, CX
	CMPQ CX, DX
	JLT  selfchunk

	MOVQ dst+0(FP), CX
	FINISH((CX)(BX*4))
	LEAQ (DI)(DX*1), R8
	ADDQ $8, BX
	CMPQ BX, n+24(FP)
	JLT  self
	VZEROUPPER
	RET
