#include "textflag.h"

// exp4 runs the FMA branch of the Go runtime's amd64 math.Exp
// ($GOROOT/src/math/exp_amd64.s, Shibata's SLEEF sequence) on four lanes
// at once. Every step is the scalar step's packed twin with the same
// operands in the same order, so each lane rounds exactly as math.Exp
// does. The constants are the scalar file's decimal literals, so the
// assembler turns them into the same bits.

#define LOG2E 1.4426950408889634073599246810018920
#define LN2U 0.69314718055966295651160180568695068359375
#define LN2L 0.28235290563031577122588448175013436025525412068e-12

// QUAD defines a 32-byte read-only symbol holding val in each lane.
#define QUAD(name, val) \
	DATA name<>+0(SB)/8, $val; \
	DATA name<>+8(SB)/8, $val; \
	DATA name<>+16(SB)/8, $val; \
	DATA name<>+24(SB)/8, $val; \
	GLOBL name<>(SB), RODATA|NOPTR, $32

QUAD(explo, -708.0)
QUAD(exphi, 709.0)
QUAD(explog2e, LOG2E)
QUAD(expln2u, LN2U)
QUAD(expln2l, LN2L)
QUAD(expsixteenth, 0.0625)
QUAD(expc8, 2.4801587301587301587e-5)
QUAD(expc7, 1.9841269841269841270e-4)
QUAD(expc6, 1.3888888888888888889e-3)
QUAD(expc5, 8.3333333333333333333e-3)
QUAD(expc4, 4.1666666666666666667e-2)
QUAD(expc3, 1.6666666666666666667e-1)
QUAD(exphalf, 0.5)
QUAD(expone, 1.0)
QUAD(exptwo, 2.0)
QUAD(expbias, 1023)

// func exp4(dst *float64, src *float64, n int) int
//
// Y0 is the reduced argument and then the result, Y1 the polynomial, X2
// the exponent k as int32s and Y2 then 2^k.
TEXT ·exp4(SB), NOSPLIT, $0-32
	MOVQ    dst+0(FP), DI
	MOVQ    src+8(FP), SI
	MOVQ    n+16(FP), CX
	VMOVUPD explo<>(SB), Y14
	VMOVUPD exphi<>(SB), Y15
	XORQ    BX, BX

block:
	CMPQ BX, CX
	JGE  done

	// A lane outside [-708, 709], or a NaN, ends the run: math.Exp may
	// take a branch there (overflow, a subnormal result, ±Inf) that the
	// packed sequence does not.
	VMOVUPD   (SI)(BX*8), Y0
	VCMPPD    $0x1d, Y14, Y0, Y1 // x >= -708, ordered
	VCMPPD    $0x12, Y15, Y0, Y2 // x <= 709, ordered
	VANDPD    Y2, Y1, Y1
	VMOVMSKPD Y1, AX
	CMPQ      AX, $15
	JNE       done

	// k = round(x·log2e); x -= k·LN2U; x -= k·LN2L, each fused.
	VMULPD       explog2e<>(SB), Y0, Y1
	VCVTPD2DQY   Y1, X2
	VCVTDQ2PD    X2, Y1
	VFNMADD231PD expln2u<>(SB), Y1, Y0
	VFNMADD231PD expln2l<>(SB), Y1, Y0
	VMULPD       expsixteenth<>(SB), Y0, Y0

	// Taylor chain: p = ((c8·x + c7)·x + …)·x + 1.
	VMOVUPD     expc8<>(SB), Y1
	VFMADD213PD expc7<>(SB), Y0, Y1
	VFMADD213PD expc6<>(SB), Y0, Y1
	VFMADD213PD expc5<>(SB), Y0, Y1
	VFMADD213PD expc4<>(SB), Y0, Y1
	VFMADD213PD expc3<>(SB), Y0, Y1
	VFMADD213PD exphalf<>(SB), Y0, Y1
	VFMADD213PD expone<>(SB), Y0, Y1
	VMULPD      Y1, Y0, Y0

	// Four squarings of e^x - 1 = y: y = y·(y+2), the last fused with +1.
	VADDPD      exptwo<>(SB), Y0, Y1
	VMULPD      Y1, Y0, Y0
	VADDPD      exptwo<>(SB), Y0, Y1
	VMULPD      Y1, Y0, Y0
	VADDPD      exptwo<>(SB), Y0, Y1
	VMULPD      Y1, Y0, Y0
	VADDPD      exptwo<>(SB), Y0, Y1
	VFMADD213PD expone<>(SB), Y1, Y0

	// Times 2^k, built from the biased exponent: k is in [-1021, 1023]
	// for every lane that got here.
	VPMOVSXDQ X2, Y2
	VPADDQ    expbias<>(SB), Y2, Y2
	VPSLLQ    $52, Y2, Y2
	VMULPD    Y2, Y0, Y0
	VMOVUPD   Y0, (DI)(BX*8)
	ADDQ      $4, BX
	JMP       block

done:
	MOVQ BX, ret+24(FP)
	VZEROUPPER
	RET
