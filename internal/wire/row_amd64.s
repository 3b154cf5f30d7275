#include "textflag.h"

// The two kernels are Muła and Lemire's AVX2 base64 codec ("Faster
// Base64 Encoding and Decoding Using AVX2 Instructions", 2018) for the
// standard alphabet. Each 128-bit half of a YMM register holds 12 bytes
// of row data or 16 characters, so one step is 24 bytes ⇄ 32 characters.

// REP defines a 32-byte read-only symbol holding the 8-byte val in each
// quarter.
#define REP(name, val) \
	DATA name<>+0(SB)/8, $val; \
	DATA name<>+8(SB)/8, $val; \
	DATA name<>+16(SB)/8, $val; \
	DATA name<>+24(SB)/8, $val; \
	GLOBL name<>(SB), RODATA|NOPTR, $32

// LANES defines a 32-byte read-only symbol holding the 16 bytes lo, hi
// (little-endian quads) in each 128-bit half, the layout VPSHUFB tables
// and controls need.
#define LANES(name, lo, hi) \
	DATA name<>+0(SB)/8, $lo; \
	DATA name<>+8(SB)/8, $hi; \
	DATA name<>+16(SB)/8, $lo; \
	DATA name<>+24(SB)/8, $hi; \
	GLOBL name<>(SB), RODATA|NOPTR, $32

// Decode. A character is valid when lut_hi[its high nibble] AND
// lut_lo[its low nibble] is zero: each bit of lut_hi names a class of
// high nibble (2, 3, 4|6, 5|7, anything else) and lut_lo sets the bits of
// the classes in which that low nibble is not a base64 character. Bit
// 0x10 is set in every lut_lo entry, so a byte with a high nibble of 0, 1
// or 8–F (CR, LF, '"', space, 0x80 and up) is always refused.
LANES(declo, 0x1111111111111115, 0x1a1b1b1b1a131111)
LANES(dechi, 0x0804080402011010, 0x1010101010101010)

// The sextet of a valid character is the character plus roll[high
// nibble], except '/' (high nibble 2 like '+'), which the compare with
// 0x2f moves to entry 1: '/'+16, '+'+19, '0'+4, 'A'−65, 'a'−71.
LANES(decroll, 0xb9b9bfbf04131000, 0x0000000000000000)
REP(dec2f, 0x2f2f2f2f2f2f2f2f)

// VPMADDUBSW by (0x40, 1) makes a·64+b and c·64+d per 16-bit word, and
// VPMADDWD by (0x1000, 1) joins the two into the 24-bit a·2¹⁸+b·2¹²+c·2⁶+d
// per 32-bit lane, most significant byte third.
REP(decmerge, 0x0140014001400140)
REP(decjoin, 0x0001100000011000)

// VPSHUFB turns each lane's three bytes big-end first and packs the four
// lanes of a half into its low 12 bytes, zeroing the top 4; VPERMD then
// moves the high half's 12 bytes down next to the low half's.
LANES(decshuf, 0x090a040506000102, 0xffffffff0c0d0e08)
DATA decperm<>+0(SB)/8, $0x0000000100000000
DATA decperm<>+8(SB)/8, $0x0000000400000002
DATA decperm<>+16(SB)/8, $0x0000000600000005
DATA decperm<>+24(SB)/8, $0x0000000700000003
GLOBL decperm<>(SB), RODATA|NOPTR, $32

// A float32 is Inf or NaN when its exponent bits are all ones.
REP(decexp, 0x7f8000007f800000)

// DECODE decodes the 32 characters at (SI)(AX*1) into the low 24 bytes
// of Y0 (the top two lanes zero), or jumps to done at a byte outside the
// alphabet. It validates (no byte may meet both of its nibbles'
// classes), translates to sextets, and packs.
#define DECODE \
	VMOVDQU (SI)(AX*1), Y0; \
	VPSRLD  $4, Y0, Y1; \
	VPAND   Y11, Y1, Y1; \
	VPAND   Y11, Y0, Y2; \
	VPSHUFB Y1, Y9, Y3; \
	VPSHUFB Y2, Y8, Y2; \
	VPTEST  Y3, Y2; \
	JNZ     done; \
	VPCMPEQB Y11, Y0, Y2; \
	VPADDB   Y2, Y1, Y1; \
	VPSHUFB  Y1, Y10, Y1; \
	VPADDB   Y1, Y0, Y0; \
	VPMADDUBSW decmerge<>(SB), Y0, Y0; \
	VPMADDWD   decjoin<>(SB), Y0, Y0; \
	VPSHUFB    decshuf<>(SB), Y0, Y0; \
	VPERMD     Y0, Y12, Y0

// STORE writes the low 24 bytes of Y0 to (DI) as 16 + 8.
#define STORE \
	VMOVDQU      X0, (DI); \
	VEXTRACTI128 $1, Y0, X1; \
	VMOVQ        X1, 16(DI)

// func decodeAVX2(dst *float32, src *byte, n int) (chars int, nonFinite bool)
//
// Y8–Y11 hold the tables, Y12 the permutation, Y13 the exponent mask and
// Y14 the OR of every block's exponent-all-ones lanes. AX counts the
// characters consumed, BX is n rounded down to 32.
TEXT ·decodeAVX2(SB), NOSPLIT, $0-33
	MOVQ    dst+0(FP), DI
	MOVQ    src+8(FP), SI
	MOVQ    n+16(FP), CX
	MOVQ    CX, BX
	ANDQ    $~31, BX
	XORQ    AX, AX
	VMOVDQU declo<>(SB), Y8
	VMOVDQU dechi<>(SB), Y9
	VMOVDQU decroll<>(SB), Y10
	VMOVDQU dec2f<>(SB), Y11
	VMOVDQU decperm<>(SB), Y12
	VMOVDQU decexp<>(SB), Y13
	VPXOR   Y14, Y14, Y14

block:
	DECODE

	// Six floats: note any whose exponent is all ones, then store.
	VPAND    Y13, Y0, Y1
	VPCMPEQD Y13, Y1, Y1
	VPOR     Y1, Y14, Y14
	STORE

	ADDQ $24, DI
	ADDQ $32, AX
	CMPQ AX, BX
	JB   block

	// The last n mod 32 characters: one more block ending at n, which
	// redoes and rewrites some of the one before. Its floats need not
	// start on a float boundary, so it checks none of them.
	CMPQ AX, CX
	JAE  done
	LEAQ -32(CX), AX
	LEAQ (AX)(AX*2), DI
	SHRQ $2, DI
	ADDQ dst+0(FP), DI
	DECODE
	STORE
	MOVQ CX, AX

done:
	MOVQ   AX, chars+24(FP)
	VPTEST Y14, Y14
	SETNE  nonFinite+32(FP)
	VZEROUPPER
	RET

// Encode. VPSHUFB spreads each half's 12 bytes so that every 32-bit lane
// holds one 3-byte group as (b1, b0, b2, b1); the two masked multiplies
// shift its four sextets into the lane's four bytes.
LANES(encshuf, 0x0405030401020001, 0x0a0b090a07080607)
REP(encmaska, 0x0fc0fc000fc0fc00)
REP(encmula, 0x0400004004000040)
REP(encmaskb, 0x003f03f0003f03f0)
REP(encmulb, 0x0100001001000010)

// A sextet s becomes s + shift[k], with k = 13 for s < 26 ('A' + s), 0
// for s < 52 ('a' − 26 + s) and s − 51 above: '0' − 52 for digits, then
// '+' − 62 and '/' − 63.
REP(enc51, 0x3333333333333333)
REP(enc25, 0x1919191919191919)
REP(enc13, 0x0d0d0d0d0d0d0d0d)
LANES(encshift, 0xfcfcfcfcfcfcfc47, 0x000041f0edfcfcfc)

// ENCODE encodes the 24 bytes at (SI)(AX*1) into the 32 characters of
// Y0. The high half loads bytes 12–27, so 28 bytes must be readable.
// The masked multiplies make the sextets (a and c by the high multiply,
// b and d by the low one), then the shift table the characters.
#define ENCODE \
	VMOVDQU     (SI)(AX*1), X0; \
	VINSERTI128 $1, 12(SI)(AX*1), Y0, Y0; \
	VPSHUFB     Y8, Y0, Y0; \
	VPAND       encmaska<>(SB), Y0, Y1; \
	VPMULHUW    encmula<>(SB), Y1, Y1; \
	VPAND       encmaskb<>(SB), Y0, Y2; \
	VPMULLW     encmulb<>(SB), Y2, Y2; \
	VPOR        Y1, Y2, Y0; \
	VPSUBUSB    enc51<>(SB), Y0, Y1; \
	VPCMPGTB    Y10, Y0, Y2; \
	VPANDN      enc13<>(SB), Y2, Y2; \
	VPOR        Y2, Y1, Y1; \
	VPSHUFB     Y1, Y9, Y1; \
	VPADDB      Y1, Y0, Y0

// func encodeAVX2(dst *byte, src *float32, n int) int
//
// AX is the step's first byte, CX the last first byte whose step can
// load its 28 bytes (n − 28).
TEXT ·encodeAVX2(SB), NOSPLIT, $0-32
	MOVQ    dst+0(FP), DI
	MOVQ    src+8(FP), SI
	MOVQ    n+16(FP), CX
	XORQ    AX, AX
	VMOVDQU encshuf<>(SB), Y8
	VMOVDQU encshift<>(SB), Y9
	VMOVDQU enc25<>(SB), Y10
	SUBQ    $28, CX

enc_step:
	ENCODE
	VMOVDQU Y0, (DI)
	ADDQ    $32, DI
	ADDQ    $24, AX
	CMPQ    AX, CX
	JBE     enc_step

	// One more step at the last multiple of 3 that can load its 28
	// bytes, which redoes and rewrites some of the one before.
	MOVQ    CX, AX
	XORQ    DX, DX
	MOVQ    $3, BX
	DIVQ    BX
	MOVQ    dst+0(FP), DI
	LEAQ    (DI)(AX*4), DI
	LEAQ    (AX)(AX*2), AX
	ENCODE
	VMOVDQU Y0, (DI)
	ADDQ    $24, AX
	MOVQ    AX, ret+24(FP)
	VZEROUPPER
	RET
