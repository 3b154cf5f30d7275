#include "textflag.h"

// Both kernels hold a block of columns in registers across every row:
// 32 columns in eight registers, then 4 columns in one. A column's sum
// sees the rows in order, so each register lane runs the scalar loop's
// operations for its own column and no instruction mixes two lanes.
// R10 points at the current row's first column of the block; Y8 holds
// the row's weight in every lane.

// WACC adds float32(w·float64(v)) for the 4 values at off(R10) into acc.
#define WACC(off, acc, ty, tx) \
	VCVTPS2PD  off(R10), ty; \
	VMULPD     Y8, ty, ty; \
	VCVTPD2PSY ty, tx; \
	VADDPS     tx, acc, acc

// SACC adds w·float64(v) for the 4 values at off(R10) into acc: VMULPD
// then VADDPD, never FMA.
#define SACC(off, acc, t) \
	VCVTPS2PD off(R10), t; \
	VMULPD    Y8, t, t; \
	VADDPD    t, acc, acc

// WROW points R10 at row rows[BX] of vals (R9), minus base (R13), at the
// block's column byte offset R12, and broadcasts w[BX] into Y8.
#define WROW \
	VBROADCASTSD (R8)(BX*8), Y8; \
	MOVQ         (SI)(BX*8), R10; \
	SUBQ         R13, R10; \
	IMULQ        DX, R10; \
	ADDQ         R9, R10; \
	ADDQ         R12, R10

// func weightedRowsAVX2(out *float32, cols int, w *float64, vals *float32, rows *int, n int, base int, d int)
TEXT ·weightedRowsAVX2(SB), NOSPLIT, $0-64
	MOVQ out+0(FP), DI
	MOVQ cols+8(FP), R11
	SHLQ $2, R11
	MOVQ w+16(FP), R8
	MOVQ vals+24(FP), R9
	MOVQ rows+32(FP), SI
	MOVQ n+40(FP), CX
	MOVQ base+48(FP), R13
	MOVQ d+56(FP), DX
	SHLQ $2, DX
	XORQ R12, R12

wide:
	LEAQ    128(R12), AX
	CMPQ    AX, R11
	JGT     narrow
	VMOVUPS 0(DI)(R12*1), X0
	VMOVUPS 16(DI)(R12*1), X1
	VMOVUPS 32(DI)(R12*1), X2
	VMOVUPS 48(DI)(R12*1), X3
	VMOVUPS 64(DI)(R12*1), X4
	VMOVUPS 80(DI)(R12*1), X5
	VMOVUPS 96(DI)(R12*1), X6
	VMOVUPS 112(DI)(R12*1), X7
	XORQ    BX, BX

widerow:
	WROW
	WACC(0, X0, Y9, X9)
	WACC(16, X1, Y10, X10)
	WACC(32, X2, Y11, X11)
	WACC(48, X3, Y12, X12)
	WACC(64, X4, Y9, X9)
	WACC(80, X5, Y10, X10)
	WACC(96, X6, Y11, X11)
	WACC(112, X7, Y12, X12)
	INCQ BX
	CMPQ BX, CX
	JLT  widerow

	VMOVUPS X0, 0(DI)(R12*1)
	VMOVUPS X1, 16(DI)(R12*1)
	VMOVUPS X2, 32(DI)(R12*1)
	VMOVUPS X3, 48(DI)(R12*1)
	VMOVUPS X4, 64(DI)(R12*1)
	VMOVUPS X5, 80(DI)(R12*1)
	VMOVUPS X6, 96(DI)(R12*1)
	VMOVUPS X7, 112(DI)(R12*1)
	MOVQ    AX, R12
	JMP     wide

narrow:
	LEAQ    16(R12), AX
	CMPQ    AX, R11
	JGT     wdone
	VMOVUPS (DI)(R12*1), X0
	XORQ    BX, BX

narrowrow:
	WROW
	WACC(0, X0, Y9, X9)
	INCQ BX
	CMPQ BX, CX
	JLT  narrowrow

	VMOVUPS X0, (DI)(R12*1)
	MOVQ    AX, R12
	JMP     narrow

wdone:
	VZEROUPPER
	RET

// func scanTileAVX2(acc *float64, cols int, w *float64, r *float64, vals *float32, n int, d int)
//
// R12 is the block's first column. A rescale factor whose bits are
// those of 1.0 (R13) is skipped, as the Go loop skips r == 1.
TEXT ·scanTileAVX2(SB), NOSPLIT, $0-56
	MOVQ acc+0(FP), DI
	MOVQ cols+8(FP), R11
	MOVQ w+16(FP), R8
	MOVQ r+24(FP), R9
	MOVQ vals+32(FP), SI
	MOVQ n+40(FP), CX
	MOVQ d+48(FP), DX
	SHLQ $2, DX
	MOVQ $0x3ff0000000000000, R13
	XORQ R12, R12

swide:
	LEAQ    32(R12), AX
	CMPQ    AX, R11
	JGT     snarrow
	VMOVUPD 0(DI)(R12*8), Y0
	VMOVUPD 32(DI)(R12*8), Y1
	VMOVUPD 64(DI)(R12*8), Y2
	VMOVUPD 96(DI)(R12*8), Y3
	VMOVUPD 128(DI)(R12*8), Y4
	VMOVUPD 160(DI)(R12*8), Y5
	VMOVUPD 192(DI)(R12*8), Y6
	VMOVUPD 224(DI)(R12*8), Y7
	LEAQ    (SI)(R12*4), R10
	XORQ    BX, BX

swidekey:
	CMPQ         (R9)(BX*8), R13
	JEQ          swideadd
	VBROADCASTSD (R9)(BX*8), Y8
	VMULPD       Y8, Y0, Y0
	VMULPD       Y8, Y1, Y1
	VMULPD       Y8, Y2, Y2
	VMULPD       Y8, Y3, Y3
	VMULPD       Y8, Y4, Y4
	VMULPD       Y8, Y5, Y5
	VMULPD       Y8, Y6, Y6
	VMULPD       Y8, Y7, Y7

swideadd:
	VBROADCASTSD (R8)(BX*8), Y8
	SACC(0, Y0, Y9)
	SACC(16, Y1, Y10)
	SACC(32, Y2, Y11)
	SACC(48, Y3, Y12)
	SACC(64, Y4, Y9)
	SACC(80, Y5, Y10)
	SACC(96, Y6, Y11)
	SACC(112, Y7, Y12)
	ADDQ         DX, R10
	INCQ         BX
	CMPQ         BX, CX
	JLT          swidekey

	VMOVUPD Y0, 0(DI)(R12*8)
	VMOVUPD Y1, 32(DI)(R12*8)
	VMOVUPD Y2, 64(DI)(R12*8)
	VMOVUPD Y3, 96(DI)(R12*8)
	VMOVUPD Y4, 128(DI)(R12*8)
	VMOVUPD Y5, 160(DI)(R12*8)
	VMOVUPD Y6, 192(DI)(R12*8)
	VMOVUPD Y7, 224(DI)(R12*8)
	MOVQ    AX, R12
	JMP     swide

snarrow:
	LEAQ    4(R12), AX
	CMPQ    AX, R11
	JGT     sdone
	VMOVUPD (DI)(R12*8), Y0
	LEAQ    (SI)(R12*4), R10
	XORQ    BX, BX

snarrowkey:
	CMPQ         (R9)(BX*8), R13
	JEQ          snarrowadd
	VBROADCASTSD (R9)(BX*8), Y8
	VMULPD       Y8, Y0, Y0

snarrowadd:
	VBROADCASTSD (R8)(BX*8), Y8
	SACC(0, Y0, Y9)
	ADDQ         DX, R10
	INCQ         BX
	CMPQ         BX, CX
	JLT          snarrowkey

	VMOVUPD Y0, (DI)(R12*8)
	MOVQ    AX, R12
	JMP     snarrow

sdone:
	VZEROUPPER
	RET
