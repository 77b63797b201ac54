#include "textflag.h"

// The header of the constant table (intervalTable), one lane pair each.
#define LOG2E 0(SI)
#define MINUS60 16(SI)
#define HALF 32(SI)
#define ONE 48(SI)
#define ABSMASK 64(SI)
#define ALLOW_A 80(SI)
#define RHO 96(SI)
#define QABS 112(SI)
#define HIGAIN 128(SI)

// func intervalPairs(tab *float64, k int, xs []linalg.Vector, sums *[2]float64) int
//
// Registers: SI the header, R13 the first component's constants, R9 the
// term slots, DI the next pair's slice headers, AX the records scored, BX
// len(xs), CX k, DX sums. X0–X3 hold the pair's coordinates, X9 top, X10
// the "seen" mask of the first maximum, X11 rest, X12 Σ lo and X13 Σ hi
// (low lanes).
TEXT ·intervalPairs(SB), NOSPLIT, $0-56
	MOVQ  tab+0(FP), SI
	MOVQ  k+8(FP), CX
	MOVQ  xs_base+16(FP), DI
	MOVQ  xs_len+24(FP), BX
	MOVQ  sums+40(FP), DX
	MOVSD 0(DX), X12
	MOVSD 8(DX), X13
	XORQ  AX, AX
	LEAQ  144(SI), R13
	MOVQ  CX, R9
	SHLQ  $8, R9
	ADDQ  R13, R9

pair:
	LEAQ 2(AX), R10
	CMPQ R10, BX
	JGT  done
	CMPQ 8(DI), $4
	JNE  done
	CMPQ 32(DI), $4
	JNE  done
	MOVQ 0(DI), R11
	MOVQ 24(DI), R12
	MOVSD  0(R11), X0
	MOVHPD 0(R12), X0
	MOVSD  8(R11), X1
	MOVHPD 8(R12), X1
	MOVSD  16(R11), X2
	MOVHPD 16(R12), X2
	MOVSD  24(R11), X3
	MOVHPD 24(R12), X3

	// Pass 1: b_j = log w_j + (log-norm_j − ½q_j), q_j from the
	// division-free substitution in quadFormRows4Recip's order, stored in
	// the term slots; top = b_0, then top = b_j wherever b_j > top.
	MOVQ R13, R8
	MOVQ R9, R10
	XORQ R11, R11

terms:
	MOVAPD X0, X4
	SUBPD  0(R8), X4
	MULPD  160(R8), X4 // y0 = (x0 − μ0)·r0
	MOVAPD X1, X5
	SUBPD  16(R8), X5
	MOVAPD X4, X8
	MULPD  64(R8), X8
	SUBPD  X8, X5
	MULPD  176(R8), X5 // y1 = (x1 − μ1 − l10·y0)·r1
	MOVAPD X2, X6
	SUBPD  32(R8), X6
	MOVAPD X4, X8
	MULPD  80(R8), X8
	SUBPD  X8, X6
	MOVAPD X5, X8
	MULPD  96(R8), X8
	SUBPD  X8, X6
	MULPD  192(R8), X6 // y2 = (x2 − μ2 − l20·y0 − l21·y1)·r2
	MOVAPD X3, X7
	SUBPD  48(R8), X7
	MOVAPD X4, X8
	MULPD  112(R8), X8
	SUBPD  X8, X7
	MOVAPD X5, X8
	MULPD  128(R8), X8
	SUBPD  X8, X7
	MOVAPD X6, X8
	MULPD  144(R8), X8
	SUBPD  X8, X7
	MULPD  208(R8), X7 // y3 = (x3 − μ3 − l30·y0 − l31·y1 − l32·y2)·r3
	MULPD  X4, X4
	MULPD  X5, X5
	ADDPD  X5, X4
	MULPD  X6, X6
	ADDPD  X6, X4
	MULPD  X7, X7
	ADDPD  X7, X4      // q = ((y0² + y1²) + y2²) + y3²
	MULPD  HALF, X4
	MOVAPD 240(R8), X8
	SUBPD  X4, X8
	ADDPD  224(R8), X8 // b = log w + (log-norm − ½q)
	MOVAPD X8, 0(R10)
	TESTQ  R11, R11
	JNZ    later
	MOVAPD X8, X9
	JMP    next

later:
	MAXPD  X9, X8 // (b > top) ? b : top, as the Go loop's strict >
	MOVAPD X8, X9

next:
	ADDQ $256, R8
	ADDQ $16, R10
	INCQ R11
	CMPQ R11, CX
	JLT  terms

	// Pass 2: rest = Σ expUpper(b_j − top) over every j but the first
	// maximum, in j order. The first slot equal to top is the Go loop's
	// arg: an earlier equal slot would have stopped its strict > scan.
	XORPD X10, X10
	XORPD X11, X11
	MOVQ  R9, R10
	MOVQ  CX, R11

rest:
	MOVAPD    0(R10), X4
	MOVAPD    X4, X5
	CMPPD     X9, X5, $0 // b == top
	MOVAPD    X10, X6
	ANDNPD    X5, X6     // the first maximum: equal and not seen before
	ORPD      X5, X10
	SUBPD     X9, X4
	MULPD     LOG2E, X4  // y = (b − top)·log₂e
	MOVAPD    MINUS60, X7
	MAXPD     X4, X7     // (−60 > y) ? −60 : y, so NaN passes and −60 gives 2⁻⁶⁰
	CVTTPD2PL X7, X8     // n = ⌈y⌉ for y ≤ 0
	CVTPL2PD  X8, X5
	SUBPD     X5, X7     // f = y − n
	MULPD     HALF, X7
	ADDPD     ONE, X7    // 1 + ½f
	PSHUFD    $0x50, X8, X8
	PSLLQ     $52, X8
	PADDQ     X8, X7     // · 2ⁿ through the exponent bits
	ANDNPD    X7, X6     // 0 for the first maximum
	ADDPD     X6, X11
	ADDQ      $16, R10
	DECQ      R11
	JNZ       rest

	// e = ρ·(A + |top|) + QuadFormBoundAbs; either lane above 1 or NaN
	// hands the pair back before it touches the sums.
	MOVAPD   X9, X4
	ANDPD    ABSMASK, X4
	ADDPD    ALLOW_A, X4
	MULPD    RHO, X4
	ADDPD    QABS, X4
	MOVAPD   X4, X5
	CMPPD    ONE, X5, $2 // e <= 1
	MOVMSKPD X5, R10
	CMPQ     R10, $3
	JNE      done

	MOVAPD X9, X6
	SUBPD  X4, X6      // top − e
	MOVAPD X4, X7
	ADDPD  X4, X7
	ADDPD  ONE, X7
	MULPD  HIGAIN, X7
	MULPD  X11, X7     // rest·((1 + 64ρ)·(1 + 2e))
	MOVAPD X9, X8
	ADDPD  X4, X8
	ADDPD  X7, X8      // top + e + rest·(…)

	// Record p, then record p+1, as the Go loop adds them.
	ADDSD    X6, X12
	UNPCKHPD X6, X6
	ADDSD    X6, X12
	ADDSD    X8, X13
	UNPCKHPD X8, X8
	ADDSD    X8, X13
	ADDQ     $2, AX
	ADDQ     $48, DI
	JMP      pair

done:
	MOVSD X12, 0(DX)
	MOVSD X13, 8(DX)
	MOVQ  AX, ret+48(FP)
	RET
