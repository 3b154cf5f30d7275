#include "textflag.h"

// The two accumulate kernels, weightedRowsAVX2 and scanTileAVX2, hold a
// block of columns in registers across every row, eight registers wide:
// 64 float32 columns (weightedRowsAVX2) or 32 float64 columns
// (scanTileAVX2), then one register of 8 or 4 columns at a time. A
// column's sum sees the rows in order, so each register lane runs the
// scalar loop's operations for its own column and no instruction mixes
// two lanes.
// R10 points at the current row's first column of the block; Y8 holds
// the row's weight in every lane.

// WACC adds float32(w·v) for the 8 values at off(R10) into acc: one
// VMULPS by the float32 weight, then VADDPS, never FMA.
#define WACC(off, acc, t) \
	VMULPS off(R10), Y8, t; \
	VADDPS t, acc, acc

// SACC adds w·float64(v) for the 4 values at off(R10) into acc: VMULPD
// then VADDPD, never FMA.
#define SACC(off, acc, t) \
	VCVTPS2PD off(R10), t; \
	VMULPD    Y8, t, t; \
	VADDPD    t, acc, acc

// WROW points R10 at row rows[BX] of vals (R9), minus base (R13), at the
// block's column byte offset R12, and broadcasts float32(w[BX]) into Y8.
#define WROW \
	VCVTSD2SS    (R8)(BX*8), X8, X8; \
	VBROADCASTSS X8, Y8; \
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
	LEAQ    256(R12), AX
	CMPQ    AX, R11
	JGT     narrow
	VMOVUPS 0(DI)(R12*1), Y0
	VMOVUPS 32(DI)(R12*1), Y1
	VMOVUPS 64(DI)(R12*1), Y2
	VMOVUPS 96(DI)(R12*1), Y3
	VMOVUPS 128(DI)(R12*1), Y4
	VMOVUPS 160(DI)(R12*1), Y5
	VMOVUPS 192(DI)(R12*1), Y6
	VMOVUPS 224(DI)(R12*1), Y7
	XORQ    BX, BX

widerow:
	WROW
	WACC(0, Y0, Y9)
	WACC(32, Y1, Y10)
	WACC(64, Y2, Y11)
	WACC(96, Y3, Y12)
	WACC(128, Y4, Y9)
	WACC(160, Y5, Y10)
	WACC(192, Y6, Y11)
	WACC(224, Y7, Y12)
	INCQ BX
	CMPQ BX, CX
	JLT  widerow

	VMOVUPS Y0, 0(DI)(R12*1)
	VMOVUPS Y1, 32(DI)(R12*1)
	VMOVUPS Y2, 64(DI)(R12*1)
	VMOVUPS Y3, 96(DI)(R12*1)
	VMOVUPS Y4, 128(DI)(R12*1)
	VMOVUPS Y5, 160(DI)(R12*1)
	VMOVUPS Y6, 192(DI)(R12*1)
	VMOVUPS Y7, 224(DI)(R12*1)
	MOVQ    AX, R12
	JMP     wide

narrow:
	LEAQ    32(R12), AX
	CMPQ    AX, R11
	JGT     wdone
	VMOVUPS (DI)(R12*1), Y0
	XORQ    BX, BX

narrowrow:
	WROW
	WACC(0, Y0, Y9)
	INCQ BX
	CMPQ BX, CX
	JLT  narrowrow

	VMOVUPS Y0, (DI)(R12*1)
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

// -Inf, and the step between two blocks of select keys. The kernels
// below load constants from memory or VEX registers only: one legacy SSE
// instruction while a YMM upper half is dirty stalls them.
DATA neginf<>+0(SB)/8, $0xfff0000000000000
GLOBL neginf<>(SB), RODATA|NOPTR, $8
DATA selstep<>+0(SB)/8, $4
GLOBL selstep<>(SB), RODATA|NOPTR, $8

// func maxAVX2(x *float64, n int) float64
TEXT ·maxAVX2(SB), NOSPLIT, $0-24
	MOVQ         x+0(FP), SI
	MOVQ         n+8(FP), CX
	VBROADCASTSD neginf<>(SB), Y0
	XORQ         BX, BX

maxloop:
	VMOVUPD (SI)(BX*8), Y1
	VMAXPD  Y0, Y1, Y0
	ADDQ    $4, BX
	CMPQ    BX, CX
	JLT     maxloop

	// The four lane maxima are not NaN, so the order they meet in does
	// not change the value.
	VEXTRACTF128 $1, Y0, X1
	VMAXPD       X0, X1, X0
	VPERMILPD    $1, X0, X1
	VMAXSD       X0, X1, X0
	VMOVSD       X0, ret+16(FP)
	VZEROUPPER
	RET

// func scaleAVX2(x *float64, n int, s float64)
TEXT ·scaleAVX2(SB), NOSPLIT, $0-24
	MOVQ         x+0(FP), SI
	MOVQ         n+8(FP), CX
	VBROADCASTSD s+16(FP), Y1
	XORQ         BX, BX

scaleloop:
	VMULPD  (SI)(BX*8), Y1, Y0
	VMOVUPD Y0, (SI)(BX*8)
	ADDQ    $4, BX
	CMPQ    BX, CX
	JLT     scaleloop
	VZEROUPPER
	RET

// The first block's key indices.
DATA selfirst<>+0(SB)/8, $0
DATA selfirst<>+8(SB)/8, $1
DATA selfirst<>+16(SB)/8, $2
DATA selfirst<>+24(SB)/8, $3
GLOBL selfirst<>(SB), RODATA|NOPTR, $32

// COSLUT sets x to popcount(q ^ hashes[BX+i]), key BX+i's Hamming
// distance and so its cos-LUT index. Four scalar POPCNTs and LUT loads
// per block measured about 10% faster than a VPSHUFB nibble-table
// popcount and a VGATHERQPD of the same four entries.
#define COSLUT(i, x) \
	MOVQ    (8*i)(SI)(BX*8), x; \
	XORQ    R11, x; \
	POPCNTQ x, x

// selpack<>+32·m holds the VPERMD indices that move the 64-bit lanes
// set in the 4-bit mask m to the front, in order.
DATA selpack<>+0(SB)/8, $0x0000000000000000
DATA selpack<>+8(SB)/8, $0x0000000000000000
DATA selpack<>+16(SB)/8, $0x0000000000000000
DATA selpack<>+24(SB)/8, $0x0000000000000000
DATA selpack<>+32(SB)/8, $0x0000000100000000
DATA selpack<>+40(SB)/8, $0x0000000000000000
DATA selpack<>+48(SB)/8, $0x0000000000000000
DATA selpack<>+56(SB)/8, $0x0000000000000000
DATA selpack<>+64(SB)/8, $0x0000000300000002
DATA selpack<>+72(SB)/8, $0x0000000000000000
DATA selpack<>+80(SB)/8, $0x0000000000000000
DATA selpack<>+88(SB)/8, $0x0000000000000000
DATA selpack<>+96(SB)/8, $0x0000000100000000
DATA selpack<>+104(SB)/8, $0x0000000300000002
DATA selpack<>+112(SB)/8, $0x0000000000000000
DATA selpack<>+120(SB)/8, $0x0000000000000000
DATA selpack<>+128(SB)/8, $0x0000000500000004
DATA selpack<>+136(SB)/8, $0x0000000000000000
DATA selpack<>+144(SB)/8, $0x0000000000000000
DATA selpack<>+152(SB)/8, $0x0000000000000000
DATA selpack<>+160(SB)/8, $0x0000000100000000
DATA selpack<>+168(SB)/8, $0x0000000500000004
DATA selpack<>+176(SB)/8, $0x0000000000000000
DATA selpack<>+184(SB)/8, $0x0000000000000000
DATA selpack<>+192(SB)/8, $0x0000000300000002
DATA selpack<>+200(SB)/8, $0x0000000500000004
DATA selpack<>+208(SB)/8, $0x0000000000000000
DATA selpack<>+216(SB)/8, $0x0000000000000000
DATA selpack<>+224(SB)/8, $0x0000000100000000
DATA selpack<>+232(SB)/8, $0x0000000300000002
DATA selpack<>+240(SB)/8, $0x0000000500000004
DATA selpack<>+248(SB)/8, $0x0000000000000000
DATA selpack<>+256(SB)/8, $0x0000000700000006
DATA selpack<>+264(SB)/8, $0x0000000000000000
DATA selpack<>+272(SB)/8, $0x0000000000000000
DATA selpack<>+280(SB)/8, $0x0000000000000000
DATA selpack<>+288(SB)/8, $0x0000000100000000
DATA selpack<>+296(SB)/8, $0x0000000700000006
DATA selpack<>+304(SB)/8, $0x0000000000000000
DATA selpack<>+312(SB)/8, $0x0000000000000000
DATA selpack<>+320(SB)/8, $0x0000000300000002
DATA selpack<>+328(SB)/8, $0x0000000700000006
DATA selpack<>+336(SB)/8, $0x0000000000000000
DATA selpack<>+344(SB)/8, $0x0000000000000000
DATA selpack<>+352(SB)/8, $0x0000000100000000
DATA selpack<>+360(SB)/8, $0x0000000300000002
DATA selpack<>+368(SB)/8, $0x0000000700000006
DATA selpack<>+376(SB)/8, $0x0000000000000000
DATA selpack<>+384(SB)/8, $0x0000000500000004
DATA selpack<>+392(SB)/8, $0x0000000700000006
DATA selpack<>+400(SB)/8, $0x0000000000000000
DATA selpack<>+408(SB)/8, $0x0000000000000000
DATA selpack<>+416(SB)/8, $0x0000000100000000
DATA selpack<>+424(SB)/8, $0x0000000500000004
DATA selpack<>+432(SB)/8, $0x0000000700000006
DATA selpack<>+440(SB)/8, $0x0000000000000000
DATA selpack<>+448(SB)/8, $0x0000000300000002
DATA selpack<>+456(SB)/8, $0x0000000500000004
DATA selpack<>+464(SB)/8, $0x0000000700000006
DATA selpack<>+472(SB)/8, $0x0000000000000000
DATA selpack<>+480(SB)/8, $0x0000000100000000
DATA selpack<>+488(SB)/8, $0x0000000300000002
DATA selpack<>+496(SB)/8, $0x0000000500000004
DATA selpack<>+504(SB)/8, $0x0000000700000006
GLOBL selpack<>(SB), RODATA|NOPTR, $512

// func selectAVX2(dst *int, hashes *uint64, q uint64, lut *float64, norms *float64, cut float64, n int, best *[4]int, bestSim *[4]float64) int
//
// Y11 holds cut, Y10 and Y9 each lane's best similarity and key, Y8 the
// block's key indices and Y7 the step between blocks; R11 is the query
// word.
TEXT ·selectAVX2(SB), NOSPLIT, $0-80
	MOVQ         dst+0(FP), DI
	MOVQ         hashes+8(FP), SI
	MOVQ         q+16(FP), R11
	MOVQ         lut+24(FP), R8
	MOVQ         norms+32(FP), R9
	MOVQ         n+48(FP), CX
	VBROADCASTSD cut+40(FP), Y11
	VBROADCASTSD neginf<>(SB), Y10
	VPXOR        Y9, Y9, Y9
	VMOVDQU      selfirst<>(SB), Y8
	VPBROADCASTQ selstep<>(SB), Y7
	XORQ         BX, BX
	XORQ         DX, DX

selblock:
	// The four keys' cos-LUT entries: lanes 0 and 1 in X3, 2 and 3 in X4.
	COSLUT(0, R12)
	COSLUT(1, R13)
	COSLUT(2, R10)
	COSLUT(3, AX)
	VMOVSD      (R8)(R12*8), X3
	VMOVHPD     (R8)(R13*8), X3, X3
	VMOVSD      (R8)(R10*8), X4
	VMOVHPD     (R8)(AX*8), X4, X4
	VINSERTF128 $1, X4, Y3, Y3

	// sim = lut[h]·norm, compared with cut and with the lane's best.
	VMULPD    (R9)(BX*8), Y3, Y3
	VCMPPD    $0x1e, Y11, Y3, Y4 // sim > cut, ordered
	VMOVMSKPD Y4, AX
	VCMPPD    $0x1e, Y10, Y3, Y5 // sim > best, ordered
	VBLENDVPD Y5, Y3, Y10, Y10
	VBLENDVPD Y5, Y8, Y9, Y9

	// The block's passing keys, packed to the front, go to dst at the
	// cursor, which then moves past them. The store's other lanes land
	// at or below key BX+3 and are overwritten or lie past the result.
	SHLQ    $5, AX
	LEAQ    selpack<>(SB), R10
	VMOVDQU (R10)(AX*1), Y6
	VPERMD  Y8, Y6, Y6
	VMOVDQU Y6, (DI)(DX*8)
	SHRQ    $5, AX
	POPCNTQ AX, AX
	ADDQ    AX, DX
	VPADDQ  Y7, Y8, Y8
	ADDQ    $4, BX
	CMPQ    BX, CX
	JLT     selblock

	MOVQ    best+56(FP), AX
	VMOVDQU Y9, (AX)
	MOVQ    bestSim+64(FP), AX
	VMOVUPD Y10, (AX)
	MOVQ    DX, ret+72(FP)
	VZEROUPPER
	RET

// func finiteAVX2(x *float32, n int) float32
TEXT ·finiteAVX2(SB), NOSPLIT, $0-20
	MOVQ   x+0(FP), SI
	MOVQ   n+8(FP), CX
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	VXORPS Y4, Y4, Y4
	XORQ   BX, BX

finiteloop:
	VMULPS 0(SI)(BX*4), Y4, Y5
	VADDPS Y5, Y0, Y0
	VMULPS 32(SI)(BX*4), Y4, Y6
	VADDPS Y6, Y1, Y1
	VMULPS 64(SI)(BX*4), Y4, Y7
	VADDPS Y7, Y2, Y2
	VMULPS 96(SI)(BX*4), Y4, Y8
	VADDPS Y8, Y3, Y3
	ADDQ   $32, BX
	CMPQ   BX, CX
	JLT    finiteloop

	VADDPS       Y1, Y0, Y0
	VADDPS       Y3, Y2, Y2
	VADDPS       Y2, Y0, Y0
	VEXTRACTF128 $1, Y0, X1
	VADDPS       X1, X0, X0
	VHADDPS      X0, X0, X0
	VHADDPS      X0, X0, X0
	VMOVSS       X0, ret+16(FP)
	VZEROUPPER
	RET
