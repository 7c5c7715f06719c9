#include "textflag.h"

// func addColumnVector(vals []float64, col []uint16, w, factor float64)
//
// Per four ids: VPMOVZXWD widens four weights to int32, VCVTDQ2PD converts
// them exactly to float64, VMULPD by w and then by factor rounds each
// product as addColumnGo does, and VADDPD adds it to vals.
TEXT ·addColumnVector(SB), NOSPLIT, $0-64
	MOVQ         vals_base+0(FP), DI
	MOVQ         col_base+24(FP), SI
	MOVQ         col_len+32(FP), CX
	VBROADCASTSD w+48(FP), Y14
	VBROADCASTSD factor+56(FP), Y15

loop8:
	CMPQ      CX, $8
	JB        loop4
	VPMOVZXWD (SI), X0
	VPMOVZXWD 8(SI), X1
	VCVTDQ2PD X0, Y0
	VCVTDQ2PD X1, Y1
	VMULPD    Y14, Y0, Y0
	VMULPD    Y14, Y1, Y1
	VMULPD    Y15, Y0, Y0
	VMULPD    Y15, Y1, Y1
	VADDPD    (DI), Y0, Y0
	VADDPD    32(DI), Y1, Y1
	VMOVUPD   Y0, (DI)
	VMOVUPD   Y1, 32(DI)
	ADDQ      $16, SI
	ADDQ      $64, DI
	SUBQ      $8, CX
	JMP       loop8

loop4:
	CMPQ      CX, $4
	JB        tail
	VPMOVZXWD (SI), X0
	VCVTDQ2PD X0, Y0
	VMULPD    Y14, Y0, Y0
	VMULPD    Y15, Y0, Y0
	VADDPD    (DI), Y0, Y0
	VMOVUPD   Y0, (DI)
	ADDQ      $8, SI
	ADDQ      $32, DI
	SUBQ      $4, CX

tail:
	TESTQ      CX, CX
	JZ         done
	MOVWLZX    (SI), AX
	VCVTSI2SDL AX, X0, X0
	VMULSD     X14, X0, X0
	VMULSD     X15, X0, X0
	VADDSD     (DI), X0, X0
	VMOVSD     X0, (DI)
	ADDQ       $2, SI
	ADDQ       $8, DI
	DECQ       CX
	JMP        tail

done:
	VZEROUPPER
	RET

// func cpuid(eax, ecx uint32) (a, b, c, d uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eax+0(FP), AX
	MOVL ecx+4(FP), CX
	CPUID
	MOVL AX, a+8(FP)
	MOVL BX, b+12(FP)
	MOVL CX, c+16(FP)
	MOVL DX, d+20(FP)
	RET

// func xgetbv() uint32
TEXT ·xgetbv(SB), NOSPLIT, $0-4
	MOVL   $0, CX
	XGETBV
	MOVL   AX, ret+0(FP)
	RET
