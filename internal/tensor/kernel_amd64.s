#include "textflag.h"

// The AVX forms of axpy4x2Go and axpy4Go (kernel.go). Each runs four
// output columns per iteration, one per 64-bit lane, and then a scalar
// tail for the last len(o) % 4. Every lane makes each product with its
// own multiply and adds it to the running sum with its own add, left to
// right as the Go expression does: no FMA, so each column is rounded
// exactly as in the Go loop.

// func axpy4x2AVX(o0, o1, x, y, b0, b1, b2, b3 []float64)
TEXT ·axpy4x2AVX(SB), NOSPLIT, $0-192
	MOVQ o0_base+0(FP), DI
	MOVQ o0_len+8(FP), CX
	MOVQ o1_base+24(FP), SI
	MOVQ x_base+48(FP), AX
	MOVQ y_base+72(FP), BX
	MOVQ b0_base+96(FP), R8
	MOVQ b1_base+120(FP), R9
	MOVQ b2_base+144(FP), R10
	MOVQ b3_base+168(FP), R11

	// Y0..Y3 = x[0..3] and Y4..Y7 = y[0..3] in every lane; the low lane
	// (X0..X7) serves the scalar tail.
	VBROADCASTSD 0(AX), Y0
	VBROADCASTSD 8(AX), Y1
	VBROADCASTSD 16(AX), Y2
	VBROADCASTSD 24(AX), Y3
	VBROADCASTSD 0(BX), Y4
	VBROADCASTSD 8(BX), Y5
	VBROADCASTSD 16(BX), Y6
	VBROADCASTSD 24(BX), Y7

	XORQ DX, DX        // j
	MOVQ CX, R12
	ANDQ $-4, R12      // columns the vector loop covers
	JZ   tail2

loop2:
	VMOVUPD (R8)(DX*8), Y8
	VMOVUPD (R9)(DX*8), Y9
	VMOVUPD (R10)(DX*8), Y10
	VMOVUPD (R11)(DX*8), Y11

	VMOVUPD (DI)(DX*8), Y12
	VMULPD  Y8, Y0, Y13
	VADDPD  Y13, Y12, Y12
	VMULPD  Y9, Y1, Y13
	VADDPD  Y13, Y12, Y12
	VMULPD  Y10, Y2, Y13
	VADDPD  Y13, Y12, Y12
	VMULPD  Y11, Y3, Y13
	VADDPD  Y13, Y12, Y12
	VMOVUPD Y12, (DI)(DX*8)

	VMOVUPD (SI)(DX*8), Y12
	VMULPD  Y8, Y4, Y13
	VADDPD  Y13, Y12, Y12
	VMULPD  Y9, Y5, Y13
	VADDPD  Y13, Y12, Y12
	VMULPD  Y10, Y6, Y13
	VADDPD  Y13, Y12, Y12
	VMULPD  Y11, Y7, Y13
	VADDPD  Y13, Y12, Y12
	VMOVUPD Y12, (SI)(DX*8)

	ADDQ $4, DX
	CMPQ DX, R12
	JLT  loop2

tail2:
	CMPQ DX, CX
	JGE  done2
	VMOVSD (R8)(DX*8), X8
	VMOVSD (R9)(DX*8), X9
	VMOVSD (R10)(DX*8), X10
	VMOVSD (R11)(DX*8), X11

	VMOVSD (DI)(DX*8), X12
	VMULSD X8, X0, X13
	VADDSD X13, X12, X12
	VMULSD X9, X1, X13
	VADDSD X13, X12, X12
	VMULSD X10, X2, X13
	VADDSD X13, X12, X12
	VMULSD X11, X3, X13
	VADDSD X13, X12, X12
	VMOVSD X12, (DI)(DX*8)

	VMOVSD (SI)(DX*8), X12
	VMULSD X8, X4, X13
	VADDSD X13, X12, X12
	VMULSD X9, X5, X13
	VADDSD X13, X12, X12
	VMULSD X10, X6, X13
	VADDSD X13, X12, X12
	VMULSD X11, X7, X13
	VADDSD X13, X12, X12
	VMOVSD X12, (SI)(DX*8)

	INCQ DX
	JMP  tail2

done2:
	VZEROUPPER
	RET

// func axpy4AVX(o, a, b0, b1, b2, b3 []float64)
TEXT ·axpy4AVX(SB), NOSPLIT, $0-144
	MOVQ o_base+0(FP), DI
	MOVQ o_len+8(FP), CX
	MOVQ a_base+24(FP), AX
	MOVQ b0_base+48(FP), R8
	MOVQ b1_base+72(FP), R9
	MOVQ b2_base+96(FP), R10
	MOVQ b3_base+120(FP), R11

	VBROADCASTSD 0(AX), Y0
	VBROADCASTSD 8(AX), Y1
	VBROADCASTSD 16(AX), Y2
	VBROADCASTSD 24(AX), Y3

	XORQ DX, DX
	MOVQ CX, R12
	ANDQ $-4, R12
	JZ   tail1

loop1:
	VMOVUPD (DI)(DX*8), Y12
	VMULPD  (R8)(DX*8), Y0, Y13
	VADDPD  Y13, Y12, Y12
	VMULPD  (R9)(DX*8), Y1, Y13
	VADDPD  Y13, Y12, Y12
	VMULPD  (R10)(DX*8), Y2, Y13
	VADDPD  Y13, Y12, Y12
	VMULPD  (R11)(DX*8), Y3, Y13
	VADDPD  Y13, Y12, Y12
	VMOVUPD Y12, (DI)(DX*8)

	ADDQ $4, DX
	CMPQ DX, R12
	JLT  loop1

tail1:
	CMPQ DX, CX
	JGE  done1
	VMOVSD (DI)(DX*8), X12
	VMULSD (R8)(DX*8), X0, X13
	VADDSD X13, X12, X12
	VMULSD (R9)(DX*8), X1, X13
	VADDSD X13, X12, X12
	VMULSD (R10)(DX*8), X2, X13
	VADDSD X13, X12, X12
	VMULSD (R11)(DX*8), X3, X13
	VADDSD X13, X12, X12
	VMOVSD X12, (DI)(DX*8)
	INCQ DX
	JMP  tail1

done1:
	VZEROUPPER
	RET

// func hasAVX() bool
//
// CPUID leaf 1 must report OSXSAVE (ECX bit 27) and AVX (bit 28), and
// XCR0 must show that the OS saves the XMM and YMM state (bits 1 and 2).
TEXT ·hasAVX(SB), NOSPLIT, $0-1
	MOVL $1, AX
	XORL CX, CX
	CPUID
	ANDL $0x18000000, CX
	CMPL CX, $0x18000000
	JNE  noavx
	XORL CX, CX
	XGETBV
	ANDL $6, AX
	CMPL AX, $6
	JNE  noavx
	MOVB $1, ret+0(FP)
	RET

noavx:
	MOVB $0, ret+0(FP)
	RET
