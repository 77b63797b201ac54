#include "textflag.h"

// The constants of lseQuads, each stored four times, once per lane (the
// last two rows: four int32s). math.Exp's are spelled as math/exp_amd64.s
// spells them and math.log1p's as math/log1p.go does, so the assembler
// rounds each to the same float64.
#define NEGINF lsec<>+0(SB)
#define EXPMASK lsec<>+32(SB)
#define MAGIC lsec<>+64(SB)
#define M1078 lsec<>+96(SB)
#define LN2 lsec<>+128(SB)
#define LOG2E lsec<>+160(SB)
#define LN2U lsec<>+192(SB)
#define LN2L lsec<>+224(SB)
#define SIXTEENTH lsec<>+256(SB)
#define T8 lsec<>+288(SB)
#define T7 lsec<>+320(SB)
#define T6 lsec<>+352(SB)
#define T5 lsec<>+384(SB)
#define T4 lsec<>+416(SB)
#define T3 lsec<>+448(SB)
#define HALF lsec<>+480(SB)
#define ONE lsec<>+512(SB)
#define TWO lsec<>+544(SB)
#define TINY lsec<>+576(SB)
#define SMALL lsec<>+608(SB)
#define SQRT2M1 lsec<>+640(SB)
#define MANTMASK lsec<>+672(SB)
#define SQRT2MANT lsec<>+704(SB)
#define EXP3FF lsec<>+736(SB)
#define EXP3FE lsec<>+768(SB)
#define LP1 lsec<>+800(SB)
#define LP2 lsec<>+832(SB)
#define LP3 lsec<>+864(SB)
#define LP4 lsec<>+896(SB)
#define LP5 lsec<>+928(SB)
#define LP6 lsec<>+960(SB)
#define LP7 lsec<>+992(SB)
#define LN2HI lsec<>+1024(SB)
#define LN2LO lsec<>+1056(SB)
#define BIAS lsec<>+1088(SB)
#define EXPLIM lsec<>+1104(SB)
#define SLOTS lsec<>+1120(SB)
#define FOURS lsec<>+1152(SB)
#define MINUSONE lsec<>+1184(SB)
#define PADSLOT lsec<>+1216(SB)

DATA lsec<>+0(SB)/8, $0xfff0000000000000
DATA lsec<>+8(SB)/8, $0xfff0000000000000
DATA lsec<>+16(SB)/8, $0xfff0000000000000
DATA lsec<>+24(SB)/8, $0xfff0000000000000
DATA lsec<>+32(SB)/8, $0x7ff
DATA lsec<>+40(SB)/8, $0x7ff
DATA lsec<>+48(SB)/8, $0x7ff
DATA lsec<>+56(SB)/8, $0x7ff
DATA lsec<>+64(SB)/8, $0x4330000000000000
DATA lsec<>+72(SB)/8, $0x4330000000000000
DATA lsec<>+80(SB)/8, $0x4330000000000000
DATA lsec<>+88(SB)/8, $0x4330000000000000
DATA lsec<>+96(SB)/8, $4503599627371574.0
DATA lsec<>+104(SB)/8, $4503599627371574.0
DATA lsec<>+112(SB)/8, $4503599627371574.0
DATA lsec<>+120(SB)/8, $4503599627371574.0
DATA lsec<>+128(SB)/8, $0x3fe62e42fefa39ef
DATA lsec<>+136(SB)/8, $0x3fe62e42fefa39ef
DATA lsec<>+144(SB)/8, $0x3fe62e42fefa39ef
DATA lsec<>+152(SB)/8, $0x3fe62e42fefa39ef
DATA lsec<>+160(SB)/8, $1.4426950408889634073599246810018920
DATA lsec<>+168(SB)/8, $1.4426950408889634073599246810018920
DATA lsec<>+176(SB)/8, $1.4426950408889634073599246810018920
DATA lsec<>+184(SB)/8, $1.4426950408889634073599246810018920
DATA lsec<>+192(SB)/8, $0.69314718055966295651160180568695068359375
DATA lsec<>+200(SB)/8, $0.69314718055966295651160180568695068359375
DATA lsec<>+208(SB)/8, $0.69314718055966295651160180568695068359375
DATA lsec<>+216(SB)/8, $0.69314718055966295651160180568695068359375
DATA lsec<>+224(SB)/8, $0.28235290563031577122588448175013436025525412068e-12
DATA lsec<>+232(SB)/8, $0.28235290563031577122588448175013436025525412068e-12
DATA lsec<>+240(SB)/8, $0.28235290563031577122588448175013436025525412068e-12
DATA lsec<>+248(SB)/8, $0.28235290563031577122588448175013436025525412068e-12
DATA lsec<>+256(SB)/8, $0.0625
DATA lsec<>+264(SB)/8, $0.0625
DATA lsec<>+272(SB)/8, $0.0625
DATA lsec<>+280(SB)/8, $0.0625
DATA lsec<>+288(SB)/8, $2.4801587301587301587e-5
DATA lsec<>+296(SB)/8, $2.4801587301587301587e-5
DATA lsec<>+304(SB)/8, $2.4801587301587301587e-5
DATA lsec<>+312(SB)/8, $2.4801587301587301587e-5
DATA lsec<>+320(SB)/8, $1.9841269841269841270e-4
DATA lsec<>+328(SB)/8, $1.9841269841269841270e-4
DATA lsec<>+336(SB)/8, $1.9841269841269841270e-4
DATA lsec<>+344(SB)/8, $1.9841269841269841270e-4
DATA lsec<>+352(SB)/8, $1.3888888888888888889e-3
DATA lsec<>+360(SB)/8, $1.3888888888888888889e-3
DATA lsec<>+368(SB)/8, $1.3888888888888888889e-3
DATA lsec<>+376(SB)/8, $1.3888888888888888889e-3
DATA lsec<>+384(SB)/8, $8.3333333333333333333e-3
DATA lsec<>+392(SB)/8, $8.3333333333333333333e-3
DATA lsec<>+400(SB)/8, $8.3333333333333333333e-3
DATA lsec<>+408(SB)/8, $8.3333333333333333333e-3
DATA lsec<>+416(SB)/8, $4.1666666666666666667e-2
DATA lsec<>+424(SB)/8, $4.1666666666666666667e-2
DATA lsec<>+432(SB)/8, $4.1666666666666666667e-2
DATA lsec<>+440(SB)/8, $4.1666666666666666667e-2
DATA lsec<>+448(SB)/8, $1.6666666666666666667e-1
DATA lsec<>+456(SB)/8, $1.6666666666666666667e-1
DATA lsec<>+464(SB)/8, $1.6666666666666666667e-1
DATA lsec<>+472(SB)/8, $1.6666666666666666667e-1
DATA lsec<>+480(SB)/8, $0.5
DATA lsec<>+488(SB)/8, $0.5
DATA lsec<>+496(SB)/8, $0.5
DATA lsec<>+504(SB)/8, $0.5
DATA lsec<>+512(SB)/8, $1.0
DATA lsec<>+520(SB)/8, $1.0
DATA lsec<>+528(SB)/8, $1.0
DATA lsec<>+536(SB)/8, $1.0
DATA lsec<>+544(SB)/8, $2.0
DATA lsec<>+552(SB)/8, $2.0
DATA lsec<>+560(SB)/8, $2.0
DATA lsec<>+568(SB)/8, $2.0
DATA lsec<>+576(SB)/8, $0x3c90000000000000
DATA lsec<>+584(SB)/8, $0x3c90000000000000
DATA lsec<>+592(SB)/8, $0x3c90000000000000
DATA lsec<>+600(SB)/8, $0x3c90000000000000
DATA lsec<>+608(SB)/8, $0x3e20000000000000
DATA lsec<>+616(SB)/8, $0x3e20000000000000
DATA lsec<>+624(SB)/8, $0x3e20000000000000
DATA lsec<>+632(SB)/8, $0x3e20000000000000
DATA lsec<>+640(SB)/8, $4.142135623730950488017e-01
DATA lsec<>+648(SB)/8, $4.142135623730950488017e-01
DATA lsec<>+656(SB)/8, $4.142135623730950488017e-01
DATA lsec<>+664(SB)/8, $4.142135623730950488017e-01
DATA lsec<>+672(SB)/8, $0x000fffffffffffff
DATA lsec<>+680(SB)/8, $0x000fffffffffffff
DATA lsec<>+688(SB)/8, $0x000fffffffffffff
DATA lsec<>+696(SB)/8, $0x000fffffffffffff
DATA lsec<>+704(SB)/8, $0x0006a09e667f3bcc
DATA lsec<>+712(SB)/8, $0x0006a09e667f3bcc
DATA lsec<>+720(SB)/8, $0x0006a09e667f3bcc
DATA lsec<>+728(SB)/8, $0x0006a09e667f3bcc
DATA lsec<>+736(SB)/8, $0x3ff0000000000000
DATA lsec<>+744(SB)/8, $0x3ff0000000000000
DATA lsec<>+752(SB)/8, $0x3ff0000000000000
DATA lsec<>+760(SB)/8, $0x3ff0000000000000
DATA lsec<>+768(SB)/8, $0x3fe0000000000000
DATA lsec<>+776(SB)/8, $0x3fe0000000000000
DATA lsec<>+784(SB)/8, $0x3fe0000000000000
DATA lsec<>+792(SB)/8, $0x3fe0000000000000
DATA lsec<>+800(SB)/8, $6.666666666666735130e-01
DATA lsec<>+808(SB)/8, $6.666666666666735130e-01
DATA lsec<>+816(SB)/8, $6.666666666666735130e-01
DATA lsec<>+824(SB)/8, $6.666666666666735130e-01
DATA lsec<>+832(SB)/8, $3.999999999940941908e-01
DATA lsec<>+840(SB)/8, $3.999999999940941908e-01
DATA lsec<>+848(SB)/8, $3.999999999940941908e-01
DATA lsec<>+856(SB)/8, $3.999999999940941908e-01
DATA lsec<>+864(SB)/8, $2.857142874366239149e-01
DATA lsec<>+872(SB)/8, $2.857142874366239149e-01
DATA lsec<>+880(SB)/8, $2.857142874366239149e-01
DATA lsec<>+888(SB)/8, $2.857142874366239149e-01
DATA lsec<>+896(SB)/8, $2.222219843214978396e-01
DATA lsec<>+904(SB)/8, $2.222219843214978396e-01
DATA lsec<>+912(SB)/8, $2.222219843214978396e-01
DATA lsec<>+920(SB)/8, $2.222219843214978396e-01
DATA lsec<>+928(SB)/8, $1.818357216161805012e-01
DATA lsec<>+936(SB)/8, $1.818357216161805012e-01
DATA lsec<>+944(SB)/8, $1.818357216161805012e-01
DATA lsec<>+952(SB)/8, $1.818357216161805012e-01
DATA lsec<>+960(SB)/8, $1.531383769920937332e-01
DATA lsec<>+968(SB)/8, $1.531383769920937332e-01
DATA lsec<>+976(SB)/8, $1.531383769920937332e-01
DATA lsec<>+984(SB)/8, $1.531383769920937332e-01
DATA lsec<>+992(SB)/8, $1.479819860511658591e-01
DATA lsec<>+1000(SB)/8, $1.479819860511658591e-01
DATA lsec<>+1008(SB)/8, $1.479819860511658591e-01
DATA lsec<>+1016(SB)/8, $1.479819860511658591e-01
DATA lsec<>+1024(SB)/8, $6.93147180369123816490e-01
DATA lsec<>+1032(SB)/8, $6.93147180369123816490e-01
DATA lsec<>+1040(SB)/8, $6.93147180369123816490e-01
DATA lsec<>+1048(SB)/8, $6.93147180369123816490e-01
DATA lsec<>+1056(SB)/8, $1.90821492927058770002e-10
DATA lsec<>+1064(SB)/8, $1.90821492927058770002e-10
DATA lsec<>+1072(SB)/8, $1.90821492927058770002e-10
DATA lsec<>+1080(SB)/8, $1.90821492927058770002e-10
DATA lsec<>+1088(SB)/4, $0x3ff
DATA lsec<>+1092(SB)/4, $0x3ff
DATA lsec<>+1096(SB)/4, $0x3ff
DATA lsec<>+1100(SB)/4, $0x3ff
DATA lsec<>+1104(SB)/4, $0x7ff
DATA lsec<>+1108(SB)/4, $0x7ff
DATA lsec<>+1112(SB)/4, $0x7ff
DATA lsec<>+1116(SB)/4, $0x7ff
DATA lsec<>+1120(SB)/8, $0
DATA lsec<>+1128(SB)/8, $1
DATA lsec<>+1136(SB)/8, $2
DATA lsec<>+1144(SB)/8, $3
DATA lsec<>+1152(SB)/8, $4
DATA lsec<>+1160(SB)/8, $4
DATA lsec<>+1168(SB)/8, $4
DATA lsec<>+1176(SB)/8, $4
DATA lsec<>+1184(SB)/8, $-1.0
DATA lsec<>+1192(SB)/8, $-1.0
DATA lsec<>+1200(SB)/8, $-1.0
DATA lsec<>+1208(SB)/8, $-1.0
DATA lsec<>+1216(SB)/8, $128
DATA lsec<>+1224(SB)/8, $128
DATA lsec<>+1232(SB)/8, $128
DATA lsec<>+1240(SB)/8, $128
GLOBL lsec<>(SB), RODATA|NOPTR, $1248

// EXPLANES is math.Exp's amd64 FMA sequence (math/exp_amd64.s, avxfma) on
// the four lanes of Y6, in its operations and its order: n = round(x·log₂e)
// by CVTPD2DQ, two fused reductions by n·ln2 split in two, the Taylor
// polynomial of x/16 by fused multiply-adds, four steps y ← y·(y + 2)
// with the + 1 after the last fused, and ·2ⁿ through the exponent bits. It leaves e^x in Y6 and, in Y3, all ones in
// each lane math.Exp computes the same way: 0 < n + 1023 < 2047. Every
// other lane — NaN, ±Inf, overflow, a denormal or zero result — is for
// math.Exp itself. It clobbers Y0, Y1 and Y4.
#define EXPLANES \
	VMULPD       LOG2E, Y6, Y0; \
	VCVTPD2DQY   Y0, X1; \
	VCVTDQ2PD    X1, Y0; \
	VFNMADD231PD LN2U, Y0, Y6; \
	VFNMADD231PD LN2L, Y0, Y6; \
	VMULPD       SIXTEENTH, Y6, Y6; \
	VMOVUPD      T8, Y0; \
	VFMADD213PD  T7, Y6, Y0; \
	VFMADD213PD  T6, Y6, Y0; \
	VFMADD213PD  T5, Y6, Y0; \
	VFMADD213PD  T4, Y6, Y0; \
	VFMADD213PD  T3, Y6, Y0; \
	VFMADD213PD  HALF, Y6, Y0; \
	VFMADD213PD  ONE, Y6, Y0; \
	VMULPD       Y0, Y6, Y6; \
	VADDPD       TWO, Y6, Y0; \
	VMULPD       Y0, Y6, Y6; \
	VADDPD       TWO, Y6, Y0; \
	VMULPD       Y0, Y6, Y6; \
	VADDPD       TWO, Y6, Y0; \
	VMULPD       Y0, Y6, Y6; \
	VADDPD       TWO, Y6, Y0; \
	VFMADD213PD  ONE, Y0, Y6; \
	VPADDD       BIAS, X1, X1; \
	VPXOR        X3, X3, X3; \
	VPCMPGTD     X3, X1, X3; \
	VMOVDQU      EXPLIM, X4; \
	VPCMPGTD     X1, X4, X4; \
	VPAND        X4, X3, X3; \
	VPMOVSXDQ    X3, Y3; \
	VPMOVZXDQ    X1, Y1; \
	VPSLLQ       $52, Y1, Y1; \
	VMULPD       Y1, Y6, Y6

// The layout of lseWork, in bytes: the chains, then the formula lanes'
// d = b − a, a and row index, compacted; then the rows handed back.
#define ACC 0
#define DD 1056
#define AA 2112
#define SLOT 3168
#define HANDED 4224

// func lseQuads(logp *float64, k, quads, j int, w *lseWork) (next, handed int)
//
// Each column j runs in two passes. The first takes quad after quad of
// rows: it loads the chains l and entries r, applies LogAdd's −Inf, swap
// and skip rules in the lanes, stores every lane's chain back (its result
// where no formula is needed, l where one is) and packs the formula lanes'
// d, a and row index to the front of w.d, w.a and w.slot (VPERMD by
// lsePack, POPCNT). The second runs the formula four packed lanes at a time
// and stores each result into its row's chain, or lists the row in
// w.handed when a lane leaves the implemented paths.
//
// Registers: SI logp, CX k, BX quads, DI w, R8 the column j, R11 the row
// stride, R12 the quad stride, DX the packed lanes; in the first pass R9
// the quad, R10 &logp[4q·k + j], R13 &acc[4q], AX lsePack, Y15 the quad's
// row indices; in the second R9 the packed lane, R13 the rows handed back.
TEXT ·lseQuads(SB), NOSPLIT, $0-56
	MOVQ logp+0(FP), SI
	MOVQ k+8(FP), CX
	MOVQ quads+16(FP), BX
	MOVQ j+24(FP), R8
	MOVQ w+32(FP), DI
	MOVQ CX, R11
	SHLQ $3, R11

column:
	CMPQ    R8, CX
	JGE     finish
	MOVQ    R11, R12
	SHLQ    $2, R12
	LEAQ    (SI)(R8*8), R10
	LEAQ    ACC(DI), R13
	XORQ    R9, R9
	XORQ    DX, DX
	LEAQ    ·lsePack(SB), AX
	VMOVDQU SLOTS, Y15

rules:
	// r = the four rows' entries j, l = their chains so far.
	VMOVSD      (R10), X1
	VMOVHPD     (R10)(R11*1), X1, X1
	LEAQ        (R10)(R11*2), R14
	VMOVSD      (R14), X2
	VMOVHPD     (R14)(R11*1), X2, X2
	VINSERTF128 $1, X2, Y1, Y1
	VMOVUPD     (R13), Y0

	// LogAdd(l, r): l when r is −Inf, r when l is; a, b = r, l when l < r
	// (false on NaN); a when e ≠ 0 and d = b − a < (e − 1078)·ln2, e the
	// biased exponent of a; otherwise the formula a + log1p(e^d).
	VCMPPD    $0, NEGINF, Y0, Y2
	VCMPPD    $0, NEGINF, Y1, Y3
	VCMPPD    $1, Y1, Y0, Y4
	VBLENDVPD Y4, Y1, Y0, Y5
	VBLENDVPD Y4, Y0, Y1, Y6
	VSUBPD    Y5, Y6, Y6
	VBLENDVPD Y3, Y0, Y5, Y9
	VBLENDVPD Y2, Y1, Y9, Y9
	VORPD     Y3, Y2, Y2
	VPSRLQ    $52, Y5, Y7
	VPAND     EXPMASK, Y7, Y7
	VPXOR     Y4, Y4, Y4
	VPCMPEQQ  Y4, Y7, Y8      // e == 0
	VPOR      MAGIC, Y7, Y7
	VSUBPD    M1078, Y7, Y7   // e − 1078, exact
	VMULPD    LN2, Y7, Y7
	VCMPPD    $1, Y7, Y6, Y7
	VANDNPD   Y7, Y8, Y7      // the skip
	VORPD     Y7, Y2, Y2      // no formula
	VBLENDVPD Y2, Y9, Y0, Y0
	VMOVUPD   Y0, (R13)

	// Pack the formula lanes.
	VMOVMSKPD Y2, R14
	XORQ      $15, R14
	SHLQ      $5, R14
	VMOVDQU   (AX)(R14*1), Y10
	SHRQ      $5, R14
	POPCNTQ   R14, R14
	VPERMD    Y6, Y10, Y1
	VMOVUPD   Y1, DD(DI)(DX*8)
	VPERMD    Y5, Y10, Y1
	VMOVUPD   Y1, AA(DI)(DX*8)
	VPERMD    Y15, Y10, Y1
	VMOVDQU   Y1, SLOT(DI)(DX*8)
	ADDQ      R14, DX
	VPADDQ    FOURS, Y15, Y15
	ADDQ      R12, R10
	ADDQ      $32, R13
	INCQ      R9
	CMPQ      R9, BX
	JLT       rules

	// Pad the last packed quad with d = −1 into the spare chain slot.
	VMOVUPD MINUSONE, Y1
	VMOVUPD Y1, DD(DI)(DX*8)
	VMOVDQU PADSLOT, Y1
	VMOVDQU Y1, SLOT(DI)(DX*8)
	XORQ    R9, R9
	XORQ    R13, R13

formula:
	CMPQ    R9, DX
	JGE     columndone
	VMOVUPD DD(DI)(R9*8), Y6
	VMOVUPD AA(DI)(R9*8), Y5

	EXPLANES

	// log1p(x), x = e^d in (0, 1], as math.log1p: below √2 − 1 k = 0 and
	// f = x; else u = 1 + x, c = (x − (u − 1))/u, and u's mantissa decides
	// k = 1 (at or above √2's, f = u/2 − 1) or k = 0 (f = u − 1). u ≥ 2 is
	// log1p's f = 0 path: handed back. Both returns are computed and one
	// kept per lane, then the x < 2⁻²⁹ and x < 2⁻⁵⁴ returns over them.
	VCMPPD    $1, SQRT2M1, Y6, Y7
	VADDPD    ONE, Y6, Y0
	VCMPPD    $13, TWO, Y0, Y8
	VSUBPD    ONE, Y0, Y4
	VSUBPD    Y4, Y6, Y4
	VDIVPD    Y0, Y4, Y4      // c
	VPAND     MANTMASK, Y0, Y0
	VPCMPGTQ  SQRT2MANT, Y0, Y10
	VMOVUPD   EXP3FF, Y11
	VBLENDVPD Y10, EXP3FE, Y11, Y11
	VPOR      Y0, Y11, Y11
	VSUBPD    ONE, Y11, Y11
	VBLENDVPD Y7, Y6, Y11, Y11 // f
	VANDNPD   Y10, Y7, Y10     // k = 1
	VMULPD    HALF, Y11, Y12
	VMULPD    Y11, Y12, Y12    // hfsq = ½f·f
	VADDPD    TWO, Y11, Y13
	VDIVPD    Y13, Y11, Y13    // s = f/(2 + f)
	VMULPD    Y13, Y13, Y14    // z = s·s
	VMULPD    LP7, Y14, Y15
	VADDPD    LP6, Y15, Y15
	VMULPD    Y15, Y14, Y15
	VADDPD    LP5, Y15, Y15
	VMULPD    Y15, Y14, Y15
	VADDPD    LP4, Y15, Y15
	VMULPD    Y15, Y14, Y15
	VADDPD    LP3, Y15, Y15
	VMULPD    Y15, Y14, Y15
	VADDPD    LP2, Y15, Y15
	VMULPD    Y15, Y14, Y15
	VADDPD    LP1, Y15, Y15
	VMULPD    Y15, Y14, Y15    // R
	VADDPD    Y15, Y12, Y15
	VMULPD    Y15, Y13, Y15    // s·(hfsq + R)
	VSUBPD    Y15, Y12, Y14
	VSUBPD    Y14, Y11, Y14    // k = 0: f − (hfsq − s·(hfsq + R))
	VADDPD    LN2LO, Y4, Y4
	VADDPD    Y4, Y15, Y4
	VSUBPD    Y4, Y12, Y4
	VSUBPD    Y11, Y4, Y4
	VMOVUPD   LN2HI, Y13
	VSUBPD    Y4, Y13, Y4      // k = 1: Ln2Hi − ((hfsq − (s·(hfsq + R) + (Ln2Lo + c))) − f)
	VBLENDVPD Y10, Y4, Y14, Y14
	VMULPD    Y6, Y6, Y4
	VMULPD    HALF, Y4, Y4
	VSUBPD    Y4, Y6, Y4       // x − x·x·½
	VCMPPD    $1, SMALL, Y6, Y13
	VBLENDVPD Y13, Y4, Y14, Y14
	VCMPPD    $1, TINY, Y6, Y13
	VBLENDVPD Y13, Y6, Y14, Y14
	VADDPD    Y14, Y5, Y14     // a + log1p(e^d)

	// Each lane's result into its row's chain, unless it left the paths
	// above (Exp's, or u ≥ 2): that row is handed back.
	VANDNPD      Y3, Y8, Y3
	VMOVMSKPD    Y3, R14
	CMPQ         R14, $15
	JNE          some
	VEXTRACTF128 $1, Y14, X13
	MOVQ         SLOT(DI)(R9*8), AX
	VMOVSD       X14, ACC(DI)(AX*8)
	MOVQ         SLOT+8(DI)(R9*8), AX
	VMOVHPD      X14, ACC(DI)(AX*8)
	MOVQ         SLOT+16(DI)(R9*8), AX
	VMOVSD       X13, ACC(DI)(AX*8)
	MOVQ         SLOT+24(DI)(R9*8), AX
	VMOVHPD      X13, ACC(DI)(AX*8)
	ADDQ         $4, R9
	JMP          formula

some:
	VMOVUPD Y14, DD(DI)(R9*8)
	MOVQ    $4, R12

lane:
	MOVQ SLOT(DI)(R9*8), AX
	SHRQ $1, R14
	JCC  handback
	MOVQ DD(DI)(R9*8), R10
	MOVQ R10, ACC(DI)(AX*8)
	JMP  nextlane

handback:
	MOVQ AX, HANDED(DI)(R13*8)
	INCQ R13

nextlane:
	INCQ R9
	DECQ R12
	JNZ  lane
	JMP  formula

columndone:
	INCQ  R8
	TESTQ R13, R13
	JZ    column
	VZEROUPPER
	MOVQ  R8, next+40(FP)
	MOVQ  R13, handed+48(FP)
	RET

finish:
	VZEROUPPER
	MOVQ CX, next+40(FP)
	MOVQ $0, handed+48(FP)
	RET

// func expLanes(x *[4]float64) int
TEXT ·expLanes(SB), NOSPLIT, $0-16
	MOVQ      x+0(FP), AX
	VMOVUPD   (AX), Y6
	EXPLANES
	VMOVUPD   Y6, (AX)
	VMOVMSKPD Y3, BX
	VZEROUPPER
	MOVQ      BX, ret+8(FP)
	RET
