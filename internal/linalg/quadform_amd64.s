#include "textflag.h"

// The constant table quadFormQuads builds on its own frame: each constant
// stored four times, once per AVX2 lane.
#define M0 0(SP)
#define M1 32(SP)
#define M2 64(SP)
#define M3 96(SP)
#define L00 128(SP)
#define L10 160(SP)
#define L11 192(SP)
#define L20 224(SP)
#define L21 256(SP)
#define L22 288(SP)
#define L30 320(SP)
#define L31 352(SP)
#define L32 384(SP)
#define L33 416(SP)

// func quadFormQuads(l, mean *float64, xs []Vector, dst *float64) int
//
// Registers: DI the next quad's slice headers, BX len(xs), R8 the next
// dst entry, AX the records scored. Y0–Y3 hold the quad's coordinates,
// Y4–Y7 the solved y0…y3, Y8 a product.
TEXT ·quadFormQuads(SB), $448-56
	MOVQ l+0(FP), SI
	MOVQ mean+8(FP), DX
	MOVQ xs_base+16(FP), DI
	MOVQ xs_len+24(FP), BX
	MOVQ dst+40(FP), R8
	XORQ AX, AX

	VBROADCASTSD 0(DX), Y0
	VMOVUPD      Y0, M0
	VBROADCASTSD 8(DX), Y0
	VMOVUPD      Y0, M1
	VBROADCASTSD 16(DX), Y0
	VMOVUPD      Y0, M2
	VBROADCASTSD 24(DX), Y0
	VMOVUPD      Y0, M3

	// The packed factor, l00, l10, l11, l20, l21, l22, l30, l31, l32, l33.
	VBROADCASTSD 0(SI), Y0
	VMOVUPD      Y0, L00
	VBROADCASTSD 8(SI), Y0
	VMOVUPD      Y0, L10
	VBROADCASTSD 16(SI), Y0
	VMOVUPD      Y0, L11
	VBROADCASTSD 24(SI), Y0
	VMOVUPD      Y0, L20
	VBROADCASTSD 32(SI), Y0
	VMOVUPD      Y0, L21
	VBROADCASTSD 40(SI), Y0
	VMOVUPD      Y0, L22
	VBROADCASTSD 48(SI), Y0
	VMOVUPD      Y0, L30
	VBROADCASTSD 56(SI), Y0
	VMOVUPD      Y0, L31
	VBROADCASTSD 64(SI), Y0
	VMOVUPD      Y0, L32
	VBROADCASTSD 72(SI), Y0
	VMOVUPD      Y0, L33

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

	// The forward substitution in QuadFormRows' order.
	VSUBPD M0, Y0, Y4
	VDIVPD L00, Y4, Y4 // y0 = (x0 − μ0)/l00
	VSUBPD M1, Y1, Y5
	VMULPD L10, Y4, Y8
	VSUBPD Y8, Y5, Y5
	VDIVPD L11, Y5, Y5 // y1 = (x1 − μ1 − l10·y0)/l11
	VSUBPD M2, Y2, Y6
	VMULPD L20, Y4, Y8
	VSUBPD Y8, Y6, Y6
	VMULPD L21, Y5, Y8
	VSUBPD Y8, Y6, Y6
	VDIVPD L22, Y6, Y6 // y2 = (x2 − μ2 − l20·y0 − l21·y1)/l22
	VSUBPD M3, Y3, Y7
	VMULPD L30, Y4, Y8
	VSUBPD Y8, Y7, Y7
	VMULPD L31, Y5, Y8
	VSUBPD Y8, Y7, Y7
	VMULPD L32, Y6, Y8
	VSUBPD Y8, Y7, Y7
	VDIVPD L33, Y7, Y7 // y3 = (x3 − μ3 − l30·y0 − l31·y1 − l32·y2)/l33

	// q = ((y0² + y1²) + y2²) + y3². Each add takes the Go loop's first
	// operand too, which decides the payload when both are NaN: the sum
	// so far, except in the last add, where it is y3².
	VMULPD Y4, Y4, Y4
	VMULPD Y5, Y5, Y5
	VADDPD Y5, Y4, Y4
	VMULPD Y6, Y6, Y6
	VADDPD Y6, Y4, Y4
	VMULPD Y7, Y7, Y7
	VADDPD Y4, Y7, Y4
	VMOVUPD Y4, 0(R8)

	ADDQ $4, AX
	ADDQ $96, DI
	ADDQ $32, R8
	JMP  quad

done:
	VZEROUPPER
	MOVQ AX, ret+48(FP)
	RET

// func cpuFeatures() (avx2OK, fmaOK bool)
//
// CPUID.1:ECX reports FMA (bit 12), OSXSAVE (bit 27) and AVX (bit 28),
// XGETBV's XCR0 whether the operating system saves the XMM (bit 1) and YMM
// (bit 2) state, and CPUID.7.0:EBX AVX2 (bit 5). fmaOK is set only with
// avx2OK.
TEXT ·cpuFeatures(SB), NOSPLIT, $0-2
	MOVB   $0, avx2OK+0(FP)
	MOVB   $0, fmaOK+1(FP)
	XORL   AX, AX
	XORL   CX, CX
	CPUID         // EAX: the highest basic leaf
	CMPL   AX, $7
	JLT    no
	MOVL   $1, AX
	XORL   CX, CX
	CPUID
	MOVL   CX, R8
	ANDL   $0x18000000, CX
	CMPL   CX, $0x18000000
	JNE    no
	XORL   CX, CX
	XGETBV
	ANDL   $6, AX
	CMPL   AX, $6
	JNE    no
	MOVL   $7, AX
	XORL   CX, CX
	CPUID
	ANDL   $0x20, BX
	JZ     no
	MOVB   $1, avx2OK+0(FP)
	ANDL   $0x1000, R8
	JZ     no
	MOVB   $1, fmaOK+1(FP)

no:
	RET
