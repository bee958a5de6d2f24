#include "textflag.h"

// boxMuller evaluates, for four coordinates per YMM register,
//
//	math.Sqrt(-2*math.Log(u)) * math.Cos(2*math.Pi*v)
//
// with the scalar path's operations in their order: math.Log is
// archLog (math/log_amd64.s) lane by lane, math.Sqrt is VSQRTPD, and
// math.Cos is math's cos for x in [0, 2π), which evaluates both of its
// polynomials and blends them where cos branches on the octant. Every
// operation is an IEEE add, subtract, multiply, divide or square root,
// an exact integer conversion or a bit operation; none is fused, so
// each lane has the scalar bits. The constants are math's own, given
// by their bits (the comments name them).

// CONST4 declares a 32-byte constant: bits in each of four lanes.
#define CONST4(name, bits) \
	DATA name<>+0(SB)/8, $bits;  \
	DATA name<>+8(SB)/8, $bits;  \
	DATA name<>+16(SB)/8, $bits; \
	DATA name<>+24(SB)/8, $bits; \
	GLOBL name<>(SB), RODATA|NOPTR, $32

CONST4(one, 0x3ff0000000000000)        // 1.0
CONST4(two, 0x4000000000000000)        // 2.0
CONST4(half, 0x3fe0000000000000)       // 0.5; also archLog's frexp exponent bits
CONST4(minusTwo, 0xc000000000000000)   // -2.0
CONST4(mantissa, 0x000fffffffffffff)   // archLog's frexp mantissa mask
CONST4(expField, 0x00000000000007ff)   // archLog's ANDL $0x7FF
CONST4(twoTo52, 0x4330000000000000)    // 2^52: e | 2^52's bits is the double 2^52 + e
CONST4(twoTo52Bias, 0x43300000000003fe) // 2^52 + 0x3FE
CONST4(hSqrt2, 0x3fe6a09e667f3bcd)     // HSqrt2
CONST4(ln2Hi, 0x3fe62e42fee00000)      // Ln2Hi
CONST4(ln2Lo, 0x3dea39ef35793c76)      // Ln2Lo
CONST4(l1, 0x3fe5555555555593)         // L1
CONST4(l2, 0x3fd999999997fa04)         // L2
CONST4(l3, 0x3fd2492494229359)         // L3
CONST4(l4, 0x3fcc71c51d8e78af)         // L4
CONST4(l5, 0x3fc7466496cb03de)         // L5
CONST4(l6, 0x3fc39a09d078c69f)         // L6
CONST4(l7, 0x3fc2f112df3e5244)         // L7
CONST4(twoPi, 0x401921fb54442d18)      // 2*math.Pi
CONST4(fourByPi, 0x3ff45f306dc9c883)   // 4/math.Pi
CONST4(pi4A, 0x3fe921fb40000000)       // cos's PI4A
CONST4(pi4B, 0x3e64442d00000000)       // PI4B
CONST4(pi4C, 0x3ce8469898cc5170)       // PI4C
CONST4(sin0, 0x3de5d8fd1fd19ccd)       // _sin[0]
CONST4(sin1, 0xbe5ae5e5a9291f5d)       // _sin[1]
CONST4(sin2, 0x3ec71de3567d48a1)       // _sin[2]
CONST4(sin3, 0xbf2a01a019bfdf03)       // _sin[3]
CONST4(sin4, 0x3f8111111110f7d0)       // _sin[4]
CONST4(sin5, 0xbfc5555555555548)       // _sin[5]
CONST4(cos0, 0xbda8fa49a0861a9b)       // _cos[0]
CONST4(cos1, 0x3e21ee9d7b4e3f05)       // _cos[1]
CONST4(cos2, 0xbe927e4f7eac4bc6)       // _cos[2]
CONST4(cos3, 0x3efa01a019c844f5)       // _cos[3]
CONST4(cos4, 0xbf56c16c16c14f91)       // _cos[4]
CONST4(cos5, 0x3fa555555555554b)       // _cos[5]
CONST4(signBit, 0x8000000000000000)

// oddBit is 1 in each of four 32-bit lanes.
DATA oddBit<>+0(SB)/8, $0x0000000100000001
DATA oddBit<>+8(SB)/8, $0x0000000100000001
GLOBL oddBit<>(SB), RODATA|NOPTR, $16

// Register use in boxMuller:
//	DI	u, overwritten with the deviates
//	SI	v
//	CX	bytes to do, n*8
//	AX	byte offset of the block
//
// archLog: Y1 k, Y2 f1 then f, Y3 s, Y4 s2 then t1, R and hfsq+R,
// Y5 s4 then t2, Y6 the polynomials, Y0 hfsq, Y1 the logarithm and
// then the square root r.
// cos: Y0 x then z, Y2 the octant j, Y3 y then zz, Y4 and Y5 the sine
// branch, Y6 and Y7 the cosine branch.

// func boxMuller(u, v *float64, n int)
TEXT ·boxMuller(SB), NOSPLIT, $0-24
	MOVQ u+0(FP), DI
	MOVQ v+8(FP), SI
	MOVQ n+16(FP), CX
	SHLQ $3, CX
	XORQ AX, AX

block:
	// f1, ki := math.Frexp(u); k := float64(ki): archLog takes the
	// mantissa bits under an exponent of -1, and the exponent field
	// less 0x3FE. The field is at most 0x7FF, so 2^52 + field is a
	// double whose low bits are the field, and subtracting 2^52 + 0x3FE
	// leaves k exactly, as archLog's CVTSL2SD does.
	VMOVUPD (DI)(AX*1), Y0
	VANDPD  mantissa<>(SB), Y0, Y2
	VORPD   half<>(SB), Y2, Y2
	VPSRLQ  $52, Y0, Y1
	VPAND   expField<>(SB), Y1, Y1
	VPOR    twoTo52<>(SB), Y1, Y1
	VSUBPD  twoTo52Bias<>(SB), Y1, Y1

	// if f1 <= math.Sqrt2/2 { k -= 1; f1 *= 2 }: archLog's CMPSD
	// $5 (not less than) with HSqrt2 on the left selects at equality,
	// then subtracts 0 or 1 and multiplies by 1 or 2.
	VMOVUPD hSqrt2<>(SB), Y3
	VCMPPD  $5, Y2, Y3, Y3
	VANDPD  one<>(SB), Y3, Y3
	VSUBPD  Y3, Y1, Y1
	VADDPD  one<>(SB), Y3, Y3
	VMULPD  Y3, Y2, Y2

	// f := f1 - 1; s := f / (2 + f); s2 := s * s; s4 := s2 * s2
	VSUBPD one<>(SB), Y2, Y2
	VADDPD two<>(SB), Y2, Y0
	VDIVPD Y0, Y2, Y3
	VMULPD Y3, Y3, Y4
	VMULPD Y4, Y4, Y5

	// t1 := s2 * (L1 + s4*(L3+s4*(L5+s4*L7)))
	VMULPD l7<>(SB), Y5, Y6
	VADDPD l5<>(SB), Y6, Y6
	VMULPD Y5, Y6, Y6
	VADDPD l3<>(SB), Y6, Y6
	VMULPD Y5, Y6, Y6
	VADDPD l1<>(SB), Y6, Y6
	VMULPD Y6, Y4, Y4

	// t2 := s4 * (L2 + s4*(L4+s4*L6)); R := t1 + t2
	VMULPD l6<>(SB), Y5, Y6
	VADDPD l4<>(SB), Y6, Y6
	VMULPD Y5, Y6, Y6
	VADDPD l2<>(SB), Y6, Y6
	VMULPD Y6, Y5, Y5
	VADDPD Y5, Y4, Y4

	// hfsq := 0.5 * f * f
	VMULPD half<>(SB), Y2, Y0
	VMULPD Y2, Y0, Y0

	// k*Ln2Hi - ((hfsq - (s*(hfsq+R) + k*Ln2Lo)) - f)
	VADDPD Y0, Y4, Y4
	VMULPD Y4, Y3, Y3
	VMULPD ln2Lo<>(SB), Y1, Y4
	VADDPD Y4, Y3, Y3
	VSUBPD Y3, Y0, Y0
	VSUBPD Y2, Y0, Y0
	VMULPD ln2Hi<>(SB), Y1, Y1
	VSUBPD Y0, Y1, Y1

	// r := math.Sqrt(-2 * log)
	VMULPD  minusTwo<>(SB), Y1, Y1
	VSQRTPD Y1, Y1

	// cos(x), x := 2*math.Pi*v in [0, 2π):
	// j := uint64(x * (4/Pi)); y := float64(j);
	// if j&1 == 1 { j++; y++ }, which makes j even.
	VMOVUPD     (SI)(AX*1), Y0
	VMULPD      twoPi<>(SB), Y0, Y0
	VMULPD      fourByPi<>(SB), Y0, Y2
	VCVTTPD2DQY Y2, X2
	VPAND       oddBit<>(SB), X2, X3
	VPADDD      X3, X2, X2
	VCVTDQ2PD   X2, Y3

	// z := ((x - y*PI4A) - y*PI4B) - y*PI4C; zz := z * z
	VMULPD pi4A<>(SB), Y3, Y4
	VSUBPD Y4, Y0, Y0
	VMULPD pi4B<>(SB), Y3, Y4
	VSUBPD Y4, Y0, Y0
	VMULPD pi4C<>(SB), Y3, Y4
	VSUBPD Y4, Y0, Y0
	VMULPD Y0, Y0, Y3

	// The sine branch, z + z*zz*(((((_sin[0]*zz+_sin[1])*zz+_sin[2])
	// *zz+_sin[3])*zz+_sin[4])*zz+_sin[5]).
	VMULPD sin0<>(SB), Y3, Y4
	VADDPD sin1<>(SB), Y4, Y4
	VMULPD Y3, Y4, Y4
	VADDPD sin2<>(SB), Y4, Y4
	VMULPD Y3, Y4, Y4
	VADDPD sin3<>(SB), Y4, Y4
	VMULPD Y3, Y4, Y4
	VADDPD sin4<>(SB), Y4, Y4
	VMULPD Y3, Y4, Y4
	VADDPD sin5<>(SB), Y4, Y4
	VMULPD Y3, Y0, Y5
	VMULPD Y4, Y5, Y5
	VADDPD Y5, Y0, Y5

	// The cosine branch, 1.0 - 0.5*zz + zz*zz*(((((_cos[0]*zz+_cos[1])
	// *zz+_cos[2])*zz+_cos[3])*zz+_cos[4])*zz+_cos[5]).
	VMULPD  cos0<>(SB), Y3, Y6
	VADDPD  cos1<>(SB), Y6, Y6
	VMULPD  Y3, Y6, Y6
	VADDPD  cos2<>(SB), Y6, Y6
	VMULPD  Y3, Y6, Y6
	VADDPD  cos3<>(SB), Y6, Y6
	VMULPD  Y3, Y6, Y6
	VADDPD  cos4<>(SB), Y6, Y6
	VMULPD  Y3, Y6, Y6
	VADDPD  cos5<>(SB), Y6, Y6
	VMULPD  Y3, Y3, Y7
	VMULPD  Y6, Y7, Y6
	VMULPD  half<>(SB), Y3, Y7
	VMOVUPD one<>(SB), Y4
	VSUBPD  Y7, Y4, Y7
	VADDPD  Y6, Y7, Y7

	// With j even, octants j&7 = 2 and 6 take the sine branch (bit 1
	// of j) and octants 2 and 4 negate it (bit 1 xor bit 2), as cos's
	// j and sign do. Negation flips the sign bit, as Go's does.
	VPMOVZXDQ X2, Y2
	VPSLLQ    $62, Y2, Y4
	VBLENDVPD Y4, Y5, Y7, Y7
	VPSLLQ    $61, Y2, Y2
	VPXOR     Y4, Y2, Y2
	VPAND     signBit<>(SB), Y2, Y2
	VXORPD    Y2, Y7, Y7

	// r * cos(x)
	VMULPD  Y7, Y1, Y1
	VMOVUPD Y1, (DI)(AX*1)

	ADDQ $32, AX
	CMPQ AX, CX
	JLT  block

	VZEROUPPER
	RET
