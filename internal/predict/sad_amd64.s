//go:build amd64 && !purego

#include "textflag.h"

// func sadRows16(a *uint8, aStride int, b *uint8, bStride int, h, limit int) int
//
// Sum of absolute differences of h rows of 16 bytes; the running sum is
// compared with limit after every row and returned as soon as it reaches it.
TEXT ·sadRows16(SB), NOSPLIT, $0-56
	MOVQ a+0(FP), SI
	MOVQ aStride+8(FP), R8
	MOVQ b+16(FP), DI
	MOVQ bStride+24(FP), R9
	MOVQ h+32(FP), CX
	MOVQ limit+40(FP), DX
	PXOR X2, X2              // two 64-bit partial sums

loop16:
	MOVOU   (SI), X0
	MOVOU   (DI), X1
	PSADBW  X1, X0           // |a-b| summed per 8-byte half
	PADDQ   X0, X2
	MOVHLPS X2, X3           // fold the halves for the limit check
	PADDQ   X2, X3
	MOVQ    X3, AX
	CMPQ    AX, DX
	JGE     done16
	ADDQ    R8, SI
	ADDQ    R9, DI
	DECQ    CX
	JNZ     loop16

done16:
	MOVQ AX, ret+48(FP)
	RET

// func sadRows8(a *uint8, aStride int, b *uint8, bStride int, h, limit int) int
TEXT ·sadRows8(SB), NOSPLIT, $0-56
	MOVQ a+0(FP), SI
	MOVQ aStride+8(FP), R8
	MOVQ b+16(FP), DI
	MOVQ bStride+24(FP), R9
	MOVQ h+32(FP), CX
	MOVQ limit+40(FP), DX
	PXOR X2, X2

loop8:
	MOVQ   (SI), X0          // upper half cleared
	MOVQ   (DI), X1
	PSADBW X1, X0
	PADDQ  X0, X2
	MOVQ   X2, AX
	CMPQ   AX, DX
	JGE    done8
	ADDQ   R8, SI
	ADDQ   R9, DI
	DECQ   CX
	JNZ    loop8

done8:
	MOVQ AX, ret+48(FP)
	RET

// func sadRows4(a *uint8, aStride int, b *uint8, bStride int, h, limit int) int
TEXT ·sadRows4(SB), NOSPLIT, $0-56
	MOVQ a+0(FP), SI
	MOVQ aStride+8(FP), R8
	MOVQ b+16(FP), DI
	MOVQ bStride+24(FP), R9
	MOVQ h+32(FP), CX
	MOVQ limit+40(FP), DX
	PXOR X2, X2

loop4:
	MOVL   (SI), X0          // upper twelve bytes cleared
	MOVL   (DI), X1
	PSADBW X1, X0
	PADDQ  X0, X2
	MOVQ   X2, AX
	CMPQ   AX, DX
	JGE    done4
	ADDQ   R8, SI
	ADDQ   R9, DI
	DECQ   CX
	JNZ    loop4

done4:
	MOVQ AX, ret+48(FP)
	RET
