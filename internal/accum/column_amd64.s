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

// lanes<> holds, for each 4-bit compare mask m, the lanes whose bit is
// set, ascending, as four int32s (the rest 0); counts<> holds how many
// there are.
DATA lanes<>+0(SB)/8, $0x0000000000000000
DATA lanes<>+8(SB)/8, $0x0000000000000000
DATA lanes<>+16(SB)/8, $0x0000000000000000
DATA lanes<>+24(SB)/8, $0x0000000000000000
DATA lanes<>+32(SB)/8, $0x0000000000000001
DATA lanes<>+40(SB)/8, $0x0000000000000000
DATA lanes<>+48(SB)/8, $0x0000000100000000
DATA lanes<>+56(SB)/8, $0x0000000000000000
DATA lanes<>+64(SB)/8, $0x0000000000000002
DATA lanes<>+72(SB)/8, $0x0000000000000000
DATA lanes<>+80(SB)/8, $0x0000000200000000
DATA lanes<>+88(SB)/8, $0x0000000000000000
DATA lanes<>+96(SB)/8, $0x0000000200000001
DATA lanes<>+104(SB)/8, $0x0000000000000000
DATA lanes<>+112(SB)/8, $0x0000000100000000
DATA lanes<>+120(SB)/8, $0x0000000000000002
DATA lanes<>+128(SB)/8, $0x0000000000000003
DATA lanes<>+136(SB)/8, $0x0000000000000000
DATA lanes<>+144(SB)/8, $0x0000000300000000
DATA lanes<>+152(SB)/8, $0x0000000000000000
DATA lanes<>+160(SB)/8, $0x0000000300000001
DATA lanes<>+168(SB)/8, $0x0000000000000000
DATA lanes<>+176(SB)/8, $0x0000000100000000
DATA lanes<>+184(SB)/8, $0x0000000000000003
DATA lanes<>+192(SB)/8, $0x0000000300000002
DATA lanes<>+200(SB)/8, $0x0000000000000000
DATA lanes<>+208(SB)/8, $0x0000000200000000
DATA lanes<>+216(SB)/8, $0x0000000000000003
DATA lanes<>+224(SB)/8, $0x0000000200000001
DATA lanes<>+232(SB)/8, $0x0000000000000003
DATA lanes<>+240(SB)/8, $0x0000000100000000
DATA lanes<>+248(SB)/8, $0x0000000300000002
GLOBL lanes<>(SB), RODATA|NOPTR, $256

DATA counts<>+0(SB)/8, $0x0302020102010100
DATA counts<>+8(SB)/8, $0x0403030203020201
GLOBL counts<>(SB), RODATA|NOPTR, $16

// func aboveVector(dst []int32, row, bars []float64) (n int)
//
// Per four slots: VCMPPD with predicate GT_OQ (0x1e) sets each lane whose
// value exceeds its bar (Y1 stays 0 when there are no bars), VMOVMSKPD
// takes the four signs as a mask, and the mask's lanes<> entry plus the
// group's first slot (X4) is stored as four int32s at dst; dst then
// advances by the mask's count, so a lane past it is overwritten by the
// next group's store. No more candidates than slots precede a group, so
// its store never reaches past the group's own four places in dst.
TEXT ·aboveVector(SB), NOSPLIT, $0-80
	MOVQ         dst_base+0(FP), DI
	MOVQ         row_base+24(FP), SI
	MOVQ         row_len+32(FP), DX
	MOVQ         bars_base+48(FP), R8
	MOVQ         bars_len+56(FP), R9
	MOVQ         DI, R10
	LEAQ         lanes<>(SB), R11
	LEAQ         counts<>(SB), R12
	VXORPD       Y1, Y1, Y1
	VPXOR        X4, X4, X4
	MOVL         $4, AX
	VMOVD        AX, X5
	VPBROADCASTD X5, X5
	SHRQ         $2, DX

group:
	TESTQ     DX, DX
	JZ        done
	VMOVUPD   (SI), Y0
	TESTQ     R9, R9
	JZ        compare
	VMOVUPD   (R8), Y1
	ADDQ      $32, R8

compare:
	VCMPPD    $0x1e, Y1, Y0, Y2
	VMOVMSKPD Y2, AX
	MOVQ      AX, BX
	SHLQ      $4, BX
	VPADDD    (R11)(BX*1), X4, X3
	VMOVDQU   X3, (DI)
	MOVBQZX   (R12)(AX*1), AX
	LEAQ      (DI)(AX*4), DI
	VPADDD    X5, X4, X4
	ADDQ      $32, SI
	DECQ      DX
	JMP       group

done:
	SUBQ       R10, DI
	SHRQ       $2, DI
	MOVQ       DI, n+72(FP)
	VZEROUPPER
	RET

// func addColumnInt32Vector(twin []int32, col []uint16, w uint16)
//
// Per eight ids: VPMOVZXWD widens eight weights to int32, VPMULLD
// multiplies them by w (broadcast in Y15) and VPADDD adds them to twin.
// Sixteen ids per loop step, then eight, then a scalar tail.
TEXT ·addColumnInt32Vector(SB), NOSPLIT, $0-50
	MOVQ         twin_base+0(FP), DI
	MOVQ         col_base+24(FP), SI
	MOVQ         col_len+32(FP), CX
	MOVWLZX      w+48(FP), AX
	VMOVD        AX, X15
	VPBROADCASTD X15, Y15

loop16:
	CMPQ      CX, $16
	JB        loop8
	VPMOVZXWD (SI), Y0
	VPMOVZXWD 16(SI), Y1
	VPMULLD   Y15, Y0, Y0
	VPMULLD   Y15, Y1, Y1
	VPADDD    (DI), Y0, Y0
	VPADDD    32(DI), Y1, Y1
	VMOVDQU   Y0, (DI)
	VMOVDQU   Y1, 32(DI)
	ADDQ      $32, SI
	ADDQ      $64, DI
	SUBQ      $16, CX
	JMP       loop16

loop8:
	CMPQ      CX, $8
	JB        tail
	VPMOVZXWD (SI), Y0
	VPMULLD   Y15, Y0, Y0
	VPADDD    (DI), Y0, Y0
	VMOVDQU   Y0, (DI)
	ADDQ      $16, SI
	ADDQ      $32, DI
	SUBQ      $8, CX

tail:
	TESTQ   CX, CX
	JZ      done
	MOVWLZX (SI), BX
	IMULL   AX, BX
	ADDL    BX, (DI)
	ADDQ    $2, SI
	ADDQ    $4, DI
	DECQ    CX
	JMP     tail

done:
	VZEROUPPER
	RET

// func widenVector(row []float64, twin []int32)
//
// Per four ids: VCVTDQ2PD converts four int32s to float64, exactly, and
// stores them over row; each group of eight then stores zeros (Y15) over
// the twin it read. Eight ids per loop step, then a scalar tail.
TEXT ·widenVector(SB), NOSPLIT, $0-48
	MOVQ  row_base+0(FP), DI
	MOVQ  twin_base+24(FP), SI
	MOVQ  twin_len+32(FP), CX
	VPXOR Y15, Y15, Y15

loop8:
	CMPQ      CX, $8
	JB        tail
	VCVTDQ2PD (SI), Y0
	VCVTDQ2PD 16(SI), Y1
	VMOVUPD   Y0, (DI)
	VMOVUPD   Y1, 32(DI)
	VMOVDQU   Y15, (SI)
	ADDQ      $32, SI
	ADDQ      $64, DI
	SUBQ      $8, CX
	JMP       loop8

tail:
	TESTQ      CX, CX
	JZ         done
	VCVTSI2SDL (SI), X0, X0
	VMOVSD     X0, (DI)
	MOVL       $0, (SI)
	ADDQ       $4, SI
	ADDQ       $8, DI
	DECQ       CX
	JMP        tail

done:
	VZEROUPPER
	RET
