//go:build amd64 && !purego

#include "textflag.h"

// func squaredError16(a, b *uint8, n int) uint64
//
// Sum of (a[i]-b[i])² over n bytes, 16 per step: |a-b| is the OR of the two
// saturating differences, PMADDWL squares its words and adds them in pairs,
// and four uint32 lanes accumulate. A step adds at most 2·2·255² to a lane,
// so 8192 steps stay below 2³²; the lanes are widened into two uint64 sums
// after every block of at most 8192 steps.
TEXT ·squaredError16(SB), NOSPLIT, $0-32
	MOVQ a+0(FP), SI
	MOVQ b+8(FP), DI
	MOVQ n+16(FP), CX
	SHRQ $4, CX              // steps left
	PXOR X7, X7              // zero
	PXOR X6, X6              // two uint64 sums

block:
	MOVQ  $8192, DX
	CMPQ  CX, DX
	CMOVQLT CX, DX           // steps in this block
	SUBQ  DX, CX
	PXOR  X5, X5             // four uint32 lanes

step:
	MOVOU     (SI), X0
	MOVOU     (DI), X1
	MOVO      X0, X2
	PSUBUSB   X1, X0         // a-b, saturated at 0
	PSUBUSB   X2, X1         // b-a, saturated at 0
	POR       X1, X0         // |a-b|
	MOVO      X0, X1
	PUNPCKLBW X7, X0         // low eight as words
	PUNPCKHBW X7, X1         // high eight as words
	PMADDWL   X0, X0
	PMADDWL   X1, X1
	PADDL     X0, X5
	PADDL     X1, X5
	ADDQ      $16, SI
	ADDQ      $16, DI
	DECQ      DX
	JNZ       step

	MOVO      X5, X0         // widen the lanes into the uint64 sums
	PUNPCKLLQ X7, X0
	PUNPCKHLQ X7, X5
	PADDQ     X0, X6
	PADDQ     X5, X6
	TESTQ     CX, CX
	JNZ       block

	MOVHLPS X6, X0
	PADDQ   X6, X0
	MOVQ    X0, AX
	MOVQ    AX, ret+24(FP)
	RET
