#include "textflag.h"

// Register use in scanBlocks:
//	DI	&x[0]
//	SI	row 0 of the block; R9, R10, R11 rows 1, 2, 3 (clamped)
//	BX	row stride in bytes, d*8
//	CX	rows left from SI
//	AX	offset of the block from c, in rows
//	R12	byte offset of the next coordinate
//	R13	bytes covered by whole groups of 8 coordinates
//	R14	bytes covered by coordinate pairs
//	Y0	the block's four distances, lane t = row t
//	Y15	bestDist in every lane

// PAIR adds the squares of coordinates u and u+1, at byte offset
// off(R12), to the four lanes of Y0. Y1 holds the pair of rows 0 and
// 2, Y2 the pair of rows 1 and 3; after the subtract and the square,
// VUNPCKLPD gathers coordinate u of rows 0..3 into one register and
// VUNPCKHPD coordinate u+1, and they are added in that order.
#define PAIR(off) \
	VMOVUPD        off(SI)(R12*1), X1;      \
	VINSERTF128    $1, off(R10)(R12*1), Y1, Y1; \
	VMOVUPD        off(R9)(R12*1), X2;      \
	VINSERTF128    $1, off(R11)(R12*1), Y2, Y2; \
	VBROADCASTF128 off(DI)(R12*1), Y3;      \
	VSUBPD         Y3, Y1, Y1;              \
	VSUBPD         Y3, Y2, Y2;              \
	VMULPD         Y1, Y1, Y1;              \
	VMULPD         Y2, Y2, Y2;              \
	VUNPCKLPD      Y2, Y1, Y3;              \
	VUNPCKHPD      Y2, Y1, Y1;              \
	VADDPD         Y3, Y0, Y0;              \
	VADDPD         Y1, Y0, Y0

// CHECK sets the flags for "every lane of Y0 is greater than bestDist":
// VCMPPD's GT_OQ predicate is false when either side is NaN, as Go's >
// is.
#define CHECK \
	VCMPPD    $0x1e, Y15, Y0, Y1; \
	VMOVMSKPD Y1, DX;             \
	CMPQ      DX, $15

// func scanBlocks(x, c *float64, d, n int, bestDist float64, sums *[4]float64) int
TEXT ·scanBlocks(SB), NOSPLIT, $0-56
	MOVQ         x+0(FP), DI
	MOVQ         c+8(FP), SI
	MOVQ         d+16(FP), BX
	MOVQ         n+24(FP), CX
	VBROADCASTSD bestDist+32(FP), Y15
	SHLQ         $3, BX
	MOVQ         BX, R13
	ANDQ         $-64, R13
	MOVQ         BX, R14
	ANDQ         $-16, R14
	XORQ         AX, AX

block:
	LEAQ (SI)(BX*1), R9
	LEAQ (R9)(BX*1), R10
	LEAQ (R10)(BX*1), R11
	CMPQ CX, $4
	JGE  rows

	// Fewer than four rows are left: rows past the last repeat it.
	LEAQ    -1(CX), DX
	IMULQ   BX, DX
	ADDQ    SI, DX
	CMPQ    R9, DX
	CMOVQHI DX, R9
	CMPQ    R10, DX
	CMOVQHI DX, R10
	MOVQ    DX, R11

rows:
	VXORPD Y0, Y0, Y0
	XORQ   R12, R12

group:
	CMPQ R12, R13
	JAE  partial
	PAIR(0)
	PAIR(16)
	PAIR(32)
	PAIR(48)
	ADDQ $64, R12
	CHECK
	JEQ  next
	JMP  group

partial:
	// d is a multiple of 8: the last group has been checked.
	CMPQ R12, BX
	JAE  found

pairs:
	CMPQ R12, R14
	JAE  tail
	PAIR(0)
	ADDQ $16, R12
	JMP  pairs

tail:
	// Odd d: coordinate d-1 alone, one element from each row.
	CMPQ           R12, BX
	JAE            last
	VMOVSD         (SI)(R12*1), X1
	VMOVHPD        (R9)(R12*1), X1, X1
	VMOVSD         (R10)(R12*1), X2
	VMOVHPD        (R11)(R12*1), X2, X2
	VINSERTF128    $1, X2, Y1, Y1
	VBROADCASTSD   (DI)(R12*1), Y3
	VSUBPD         Y3, Y1, Y1
	VMULPD         Y1, Y1, Y1
	VADDPD         Y1, Y0, Y0

last:
	CHECK
	JNE found

next:
	ADDQ $4, AX
	SUBQ $4, CX
	JLE  done
	LEAQ (SI)(BX*4), SI
	JMP  block

found:
	MOVQ    sums+40(FP), DX
	VMOVUPD Y0, (DX)

done:
	VZEROUPPER
	MOVQ AX, ret+48(FP)
	RET
