//go:build amd64 && !purego

#include "textflag.h"

// A 4×4 block lives in X0..X3, four int32 lanes each. Each kernel runs a
// 1-D transform across the four registers (one per lane), transposes, and
// runs it again: the int32 operations of the Go forms in their order, with
// PADDL, PSUBL, PSLLL and PSRAL wrapping and shifting as Go's int32
// arithmetic does.

// TRANSPOSE transposes the dwords of X0..X3 (rows a, b, c, d in, columns
// [a0 b0 c0 d0] … [a3 b3 c3 d3] out); it clobbers X4 and X5.
#define TRANSPOSE \
	MOVO       X0, X4; \
	PUNPCKLLQ  X1, X4; \
	PUNPCKHLQ  X1, X0; \
	MOVO       X2, X5; \
	PUNPCKLLQ  X3, X5; \
	PUNPCKHLQ  X3, X2; \
	MOVO       X4, X1; \
	PUNPCKHQDQ X5, X1; \
	PUNPCKLQDQ X5, X4; \
	MOVO       X0, X3; \
	PUNPCKHQDQ X2, X3; \
	PUNPCKLQDQ X2, X0; \
	MOVO       X0, X2; \
	MOVO       X4, X0

// FORWARD is Forward's butterfly on a = X0, b = X1, c = X2, d = X3:
// s0, s3 = a+d, a-d; s1, s2 = b+c, b-c; out s0+s1, 2·s3+s2, s0-s1, s3-2·s2
// into X0..X3. It clobbers X4 and X5.
#define FORWARD \
	MOVO  X0, X4; \
	PADDL X3, X4; \
	PSUBL X3, X0; \
	MOVO  X1, X5; \
	PADDL X2, X5; \
	PSUBL X2, X1; \
	MOVO  X4, X2; \
	PSUBL X5, X2; \
	PADDL X5, X4; \
	MOVO  X0, X5; \
	PADDL X5, X5; \
	PADDL X1, X5; \
	PADDL X1, X1; \
	PSUBL X1, X0; \
	MOVO  X0, X3; \
	MOVO  X4, X0; \
	MOVO  X5, X1

// INVERSE is Inverse's butterfly on a = X0, b = X1, c = X2, d = X3:
// e0, e1 = a+c, a-c; e2, e3 = b>>1-d, b+d>>1; out e0+e3, e1+e2, e1-e2, e0-e3
// into X0..X3. It clobbers X4 and X5.
#define INVERSE \
	MOVO  X0, X4; \
	PADDL X2, X4; \
	PSUBL X2, X0; \
	MOVO  X1, X5; \
	PSRAL $1, X5; \
	PSUBL X3, X5; \
	PSRAL $1, X3; \
	PADDL X1, X3; \
	MOVO  X0, X1; \
	PADDL X5, X1; \
	MOVO  X0, X2; \
	PSUBL X5, X2; \
	MOVO  X4, X0; \
	PADDL X3, X0; \
	PSUBL X3, X4; \
	MOVO  X4, X3

// QUANT quantizes the row of levels in R against the mf row at off(BX) and
// stores it at off(AX): sign(v)·((|v|·mf + f) >> qbits), f broadcast in X8,
// qbits in X9. With s = v>>31, |v| = (v^s)-s and the sign returns the same
// way. |v| ≤ 9180 and mf ≤ 13107 are both below 2¹⁵, so PMADDWL of the
// zero-extended dwords is the exact product, and |v|·mf + f < 2³¹. Each
// zero level adds one to its lane of X10 (X7 holds zero); R is left as the
// zero mask. It clobbers X4 and X5.
#define QUANT(R, off) \
	MOVO    R, X4; \
	PSRAL   $31, X4; \
	PXOR    X4, R; \
	PSUBL   X4, R; \
	MOVOU   off(BX), X5; \
	PMADDWL X5, R; \
	PADDL   X8, R; \
	PSRLL   X9, R; \
	PXOR    X4, R; \
	PSUBL   X4, R; \
	MOVOU   R, off(AX); \
	PCMPEQL X7, R; \
	PSUBL   R, X10

// func forwardQuantize4x4(z *Block, src *uint8, srcStride int, pred *uint8, predStride int, mf *[16]int32, f int64, qbits uint) int
//
// forwardQuantizeGo on SSE2. The residual src-pred is formed in int16 words
// (|r| ≤ 255) and sign-extended to dwords; every forward-transform output
// stays within ±9180.
TEXT ·forwardQuantize4x4(SB), NOSPLIT, $0-72
	MOVQ src+8(FP), SI
	MOVQ srcStride+16(FP), R8
	MOVQ pred+24(FP), DI
	MOVQ predStride+32(FP), R9
	PXOR X7, X7

	MOVL      (SI), X0           // rows 0 and 1
	MOVL      (SI)(R8*1), X4
	PUNPCKLLQ X4, X0
	MOVL      (DI), X1
	MOVL      (DI)(R9*1), X4
	PUNPCKLLQ X4, X1
	PUNPCKLBW X7, X0
	PUNPCKLBW X7, X1
	PSUBW     X1, X0
	LEAQ      (SI)(R8*2), SI     // rows 2 and 3
	LEAQ      (DI)(R9*2), DI
	MOVL      (SI), X2
	MOVL      (SI)(R8*1), X4
	PUNPCKLLQ X4, X2
	MOVL      (DI), X3
	MOVL      (DI)(R9*1), X4
	PUNPCKLLQ X4, X3
	PUNPCKLBW X7, X2
	PUNPCKLBW X7, X3
	PSUBW     X3, X2

	MOVO      X0, X1             // sign-extend each word to a dword
	PUNPCKLWL X0, X0
	PSRAL     $16, X0
	PUNPCKHWL X1, X1
	PSRAL     $16, X1
	MOVO      X2, X3
	PUNPCKLWL X2, X2
	PSRAL     $16, X2
	PUNPCKHWL X3, X3
	PSRAL     $16, X3

	TRANSPOSE                    // lane i is row i
	FORWARD                      // the rows' transform, by column
	TRANSPOSE                    // lane j is column j
	FORWARD                      // the columns' transform: rows of z

	MOVQ   z+0(FP), AX
	MOVQ   mf+40(FP), BX
	MOVQ   f+48(FP), X8
	PSHUFL $0, X8, X8
	MOVQ   qbits+56(FP), X9
	PXOR   X10, X10
	QUANT(X0, 0)
	QUANT(X1, 16)
	QUANT(X2, 32)
	QUANT(X3, 48)

	PSHUFL $0x4E, X10, X4        // the zero counts of the four lanes, summed
	PADDL  X4, X10
	PSHUFL $0xB1, X10, X4
	PADDL  X4, X10
	MOVL   X10, CX
	MOVQ   $16, AX
	SUBQ   CX, AX
	MOVQ   AX, ret+64(FP)
	RET

// DEQUANT loads the row of levels at off(AX) into R and rescales it by the
// row at off(BX), <<shift (in X9): z·v is the low dword of PMULULQ's
// unsigned product, which is Go's wrapping int32 product. It clobbers X4
// and X5.
#define DEQUANT(R, off) \
	MOVOU     off(AX), R; \
	MOVOU     off(BX), X5; \
	MOVO      R, X4; \
	PSRLQ     $32, X4; \
	PMULULQ   X5, R; \
	PSRLQ     $32, X5; \
	PMULULQ   X5, X4; \
	PSHUFL    $0x08, R, R; \
	PSHUFL    $0x08, X4, X4; \
	PUNPCKLLQ X4, R; \
	PSLLL     X9, R

// func reconstructAdd4x4(dst *uint8, dstStride int, pred *uint8, predStride int, z *Block, v *[16]int32, shift uint)
//
// reconstructAddGo on SSE2. The rounded residual r is saturated to int16
// (PACKSSLW), added to the prediction with int16 saturation (PADDSW) and
// saturated to 8 bits (PACKUSWB). That is addClamp: |r| < 2²⁶, a residual
// that saturates int16 lies beyond [-255, 255] either way, and 0 ≤ p ≤ 255
// keeps an in-range p+r within int16 or saturating to the same side. Every
// prediction sample is read before the first store, so dst may be pred.
TEXT ·reconstructAdd4x4(SB), NOSPLIT, $0-56
	MOVQ z+32(FP), AX
	MOVQ v+40(FP), BX
	MOVQ shift+48(FP), X9
	DEQUANT(X0, 0)
	DEQUANT(X1, 16)
	DEQUANT(X2, 32)
	DEQUANT(X3, 48)

	TRANSPOSE                    // lane i is row i
	INVERSE                      // the rows' transform, by column
	TRANSPOSE                    // lane j is column j
	INVERSE                      // the columns' transform: rows of the residual

	MOVL   $32, CX               // (x + 32) >> 6
	MOVQ   CX, X8
	PSHUFL $0, X8, X8
	PADDL  X8, X0
	PADDL  X8, X1
	PADDL  X8, X2
	PADDL  X8, X3
	PSRAL  $6, X0
	PSRAL  $6, X1
	PSRAL  $6, X2
	PSRAL  $6, X3
	PACKSSLW X1, X0              // rows 0 and 1 as int16
	PACKSSLW X3, X2              // rows 2 and 3

	MOVQ      pred+16(FP), SI
	MOVQ      predStride+24(FP), R9
	PXOR      X7, X7
	MOVL      (SI), X4
	MOVL      (SI)(R9*1), X5
	PUNPCKLLQ X5, X4
	PUNPCKLBW X7, X4
	PADDSW    X4, X0
	LEAQ      (SI)(R9*2), SI
	MOVL      (SI), X4
	MOVL      (SI)(R9*1), X5
	PUNPCKLLQ X5, X4
	PUNPCKLBW X7, X4
	PADDSW    X4, X2
	PACKUSWB  X2, X0             // the four rows, four bytes each

	MOVQ  dst+0(FP), DI
	MOVQ  dstStride+8(FP), R8
	MOVL  X0, (DI)
	PSRLO $4, X0
	MOVL  X0, (DI)(R8*1)
	PSRLO $4, X0
	LEAQ  (DI)(R8*2), DI
	MOVL  X0, (DI)
	PSRLO $4, X0
	MOVL  X0, (DI)(R8*1)
	RET
