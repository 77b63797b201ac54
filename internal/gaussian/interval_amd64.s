#include "textflag.h"

// The header of the constant table (intervalTable), one four-lane row each.
#define LOG2E 0(SI)
#define MINUS60 32(SI)
#define HALF 64(SI)
#define ONE 96(SI)
#define ABSMASK 128(SI)
#define ALLOW_A 160(SI)
#define RHO 192(SI)
#define QABS 224(SI)
#define HIGAIN 256(SI)

// func intervalQuads(tab *float64, k int, xs []linalg.Vector, sums *[2]float64) int
//
// Registers: SI the header, R13 the first component's constants, R9 the
// term slots, DI the next quad's slice headers, AX the records scored, BX
// len(xs), CX k, DX sums. Y0–Y3 hold the quad's coordinates, Y9 top, Y10
// the "seen" mask of the first maximum, Y11 rest, Y14 −60, X12 Σ lo and
// X13 Σ hi (low lanes).
TEXT ·intervalQuads(SB), NOSPLIT, $0-56
	MOVQ    tab+0(FP), SI
	MOVQ    k+8(FP), CX
	MOVQ    xs_base+16(FP), DI
	MOVQ    xs_len+24(FP), BX
	MOVQ    sums+40(FP), DX
	VMOVSD  0(DX), X12
	VMOVSD  8(DX), X13
	VMOVAPD MINUS60, Y14
	XORQ    AX, AX
	LEAQ    288(SI), R13
	MOVQ    CX, R9
	SHLQ    $9, R9
	ADDQ    R13, R9

quad:
	LEAQ 4(AX), R10
	CMPQ R10, BX
	JGT  done
	CMPQ 8(DI), $4
	JNE  done
	CMPQ 32(DI), $4
	JNE  done
	CMPQ 56(DI), $4
	JNE  done
	CMPQ 80(DI), $4
	JNE  done

	// Records a, b, c, d to coordinate rows: Y0 = (a0, b0, c0, d0), …
	MOVQ       0(DI), R11
	MOVQ       24(DI), R12
	VMOVUPD    0(R11), Y4
	VUNPCKLPD  0(R12), Y4, Y6 // (a0, b0, a2, b2)
	VUNPCKHPD  0(R12), Y4, Y7 // (a1, b1, a3, b3)
	MOVQ       48(DI), R11
	MOVQ       72(DI), R12
	VMOVUPD    0(R11), Y5
	VUNPCKLPD  0(R12), Y5, Y8 // (c0, d0, c2, d2)
	VUNPCKHPD  0(R12), Y5, Y5 // (c1, d1, c3, d3)
	VPERM2F128 $0x20, Y8, Y6, Y0
	VPERM2F128 $0x20, Y5, Y7, Y1
	VPERM2F128 $0x31, Y8, Y6, Y2
	VPERM2F128 $0x31, Y5, Y7, Y3

	// Pass 1: b_j = log w_j + (log-norm_j − ½q_j), q_j from the
	// division-free substitution in quadFormRows4Recip's order, stored in
	// the term slots; top = b_0, then top = b_j wherever b_j > top.
	MOVQ R13, R8
	MOVQ R9, R10
	XORQ R11, R11

terms:
	VSUBPD  0(R8), Y0, Y4
	VMULPD  320(R8), Y4, Y4 // y0 = (x0 − μ0)·r0
	VSUBPD  32(R8), Y1, Y5
	VMULPD  128(R8), Y4, Y8
	VSUBPD  Y8, Y5, Y5
	VMULPD  352(R8), Y5, Y5 // y1 = (x1 − μ1 − l10·y0)·r1
	VSUBPD  64(R8), Y2, Y6
	VMULPD  160(R8), Y4, Y8
	VSUBPD  Y8, Y6, Y6
	VMULPD  192(R8), Y5, Y8
	VSUBPD  Y8, Y6, Y6
	VMULPD  384(R8), Y6, Y6 // y2 = (x2 − μ2 − l20·y0 − l21·y1)·r2
	VSUBPD  96(R8), Y3, Y7
	VMULPD  224(R8), Y4, Y8
	VSUBPD  Y8, Y7, Y7
	VMULPD  256(R8), Y5, Y8
	VSUBPD  Y8, Y7, Y7
	VMULPD  288(R8), Y6, Y8
	VSUBPD  Y8, Y7, Y7
	VMULPD  416(R8), Y7, Y7 // y3 = (x3 − μ3 − l30·y0 − l31·y1 − l32·y2)·r3
	VMULPD  Y4, Y4, Y4
	VMULPD  Y5, Y5, Y5
	VADDPD  Y5, Y4, Y4
	VMULPD  Y6, Y6, Y6
	VADDPD  Y6, Y4, Y4
	VMULPD  Y7, Y7, Y7
	VADDPD  Y7, Y4, Y4      // q = ((y0² + y1²) + y2²) + y3²
	VMULPD  HALF, Y4, Y4
	VMOVAPD 480(R8), Y8
	VSUBPD  Y4, Y8, Y8
	VADDPD  448(R8), Y8, Y8 // b = log w + (log-norm − ½q)
	VMOVAPD Y8, 0(R10)
	TESTQ   R11, R11
	JNZ     later
	VMOVAPD Y8, Y9
	JMP     next

later:
	VMAXPD Y9, Y8, Y9 // (b > top) ? b : top, as the Go loop's strict >

next:
	ADDQ $512, R8
	ADDQ $32, R10
	INCQ R11
	CMPQ R11, CX
	JLT  terms

	// Pass 2: rest = Σ expUpper(b_j − top) over every j but the first
	// maximum, in j order. The first slot equal to top is the Go loop's
	// arg: an earlier equal slot would have stopped its strict > scan.
	VXORPD Y10, Y10, Y10
	VXORPD Y11, Y11, Y11
	MOVQ   R9, R10
	MOVQ   CX, R11

rest:
	VMOVAPD     0(R10), Y4
	VCMPPD      $0, Y9, Y4, Y5 // b == top
	VANDNPD     Y5, Y10, Y6    // the first maximum: equal and not seen before
	VORPD       Y5, Y10, Y10
	VSUBPD      Y9, Y4, Y4
	VMULPD      LOG2E, Y4, Y4  // y = (b − top)·log₂e
	VMAXPD      Y4, Y14, Y7    // (−60 > y) ? −60 : y, so NaN passes and −60 gives 2⁻⁶⁰
	VCVTTPD2DQY Y7, X8         // n = ⌈y⌉ for y ≤ 0
	VCVTDQ2PD   X8, Y5
	VSUBPD      Y5, Y7, Y7     // f = y − n
	VMULPD      HALF, Y7, Y7
	VADDPD      ONE, Y7, Y7    // 1 + ½f
	VPMOVSXDQ   X8, Y8
	VPSLLQ      $52, Y8, Y8
	VPADDQ      Y8, Y7, Y7     // · 2ⁿ through the exponent bits
	VANDNPD     Y7, Y6, Y6     // 0 for the first maximum
	VADDPD      Y6, Y11, Y11
	ADDQ        $32, R10
	DECQ        R11
	JNZ         rest

	// e = ρ·(A + |top|) + QuadFormBoundAbs; any lane above 1 or NaN hands
	// the quad back before it touches the sums.
	VANDPD    ABSMASK, Y9, Y4
	VADDPD    ALLOW_A, Y4, Y4
	VMULPD    RHO, Y4, Y4
	VADDPD    QABS, Y4, Y4
	VCMPPD    $2, ONE, Y4, Y5 // e <= 1
	VMOVMSKPD Y5, R10
	CMPQ      R10, $15
	JNE       done

	VSUBPD Y4, Y9, Y6     // top − e
	VADDPD Y4, Y4, Y7
	VADDPD ONE, Y7, Y7
	VMULPD HIGAIN, Y7, Y7
	VMULPD Y11, Y7, Y7    // rest·((1 + 64ρ)·(1 + 2e))
	VADDPD Y4, Y9, Y8
	VADDPD Y7, Y8, Y8     // top + e + rest·(…)

	// Records p, p+1, p+2, p+3, as the Go loop adds them.
	VEXTRACTF128 $1, Y6, X4
	VEXTRACTF128 $1, Y8, X5
	VADDSD       X6, X12, X12
	VUNPCKHPD    X6, X6, X6
	VADDSD       X6, X12, X12
	VADDSD       X4, X12, X12
	VUNPCKHPD    X4, X4, X4
	VADDSD       X4, X12, X12
	VADDSD       X8, X13, X13
	VUNPCKHPD    X8, X8, X8
	VADDSD       X8, X13, X13
	VADDSD       X5, X13, X13
	VUNPCKHPD    X5, X5, X5
	VADDSD       X5, X13, X13
	ADDQ         $4, AX
	ADDQ         $96, DI
	JMP          quad

done:
	VMOVSD     X12, 0(DX)
	VMOVSD     X13, 8(DX)
	VZEROUPPER
	MOVQ       AX, ret+48(FP)
	RET
