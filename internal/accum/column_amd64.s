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

// func blockMaximaVector(maxes, row, scale []float64) (nonzero int)
//
// Per block of 16 ids: four YMM loads of the row; VCMPPD against zero
// gives -1 in each lane that holds a non-zero value, which VPSUBQ counts
// into Y13; under a scale, VMULPD multiplies each value by its scale, one
// rounding as blockMaximaGo's; VMAXPD reduces the sixteen to one, stored
// in maxes. Maxima of non-negative values are exact in any order.
TEXT ·blockMaximaVector(SB), NOSPLIT, $0-80
	MOVQ   maxes_base+0(FP), DI
	MOVQ   row_base+24(FP), SI
	MOVQ   row_len+32(FP), CX
	MOVQ   scale_base+48(FP), R8
	MOVQ   scale_len+56(FP), R9
	VXORPD Y15, Y15, Y15
	VPXOR  Y13, Y13, Y13
	SHRQ   $4, CX

block:
	TESTQ   CX, CX
	JZ      count
	VMOVUPD (SI), Y0
	VMOVUPD 32(SI), Y1
	VMOVUPD 64(SI), Y2
	VMOVUPD 96(SI), Y3
	VCMPPD  $4, Y15, Y0, Y4
	VCMPPD  $4, Y15, Y1, Y5
	VCMPPD  $4, Y15, Y2, Y6
	VCMPPD  $4, Y15, Y3, Y7
	VPSUBQ  Y4, Y13, Y13
	VPSUBQ  Y5, Y13, Y13
	VPSUBQ  Y6, Y13, Y13
	VPSUBQ  Y7, Y13, Y13
	TESTQ   R9, R9
	JZ      reduce
	VMULPD  (R8), Y0, Y0
	VMULPD  32(R8), Y1, Y1
	VMULPD  64(R8), Y2, Y2
	VMULPD  96(R8), Y3, Y3
	ADDQ    $128, R8

reduce:
	VMAXPD       Y1, Y0, Y0
	VMAXPD       Y3, Y2, Y2
	VMAXPD       Y2, Y0, Y0
	VEXTRACTF128 $1, Y0, X1
	VMAXPD       X1, X0, X0
	VPERMILPD    $1, X0, X1
	VMAXSD       X1, X0, X0
	VMOVSD       X0, (DI)
	ADDQ         $128, SI
	ADDQ         $8, DI
	DECQ         CX
	JMP          block

count:
	VEXTRACTI128 $1, Y13, X1
	VPADDQ       X1, X13, X13
	VPSHUFD      $0x4e, X13, X1
	VPADDQ       X1, X13, X13
	VMOVQ        X13, AX
	MOVQ         AX, nonzero+72(FP)
	VZEROUPPER
	RET
