#include "textflag.h"

// spread is the VPSHUFB control that spreads two 5-byte cells in a 128-bit
// lane into two 8-byte Cells: number bytes 0–2 and a zero, weight bytes
// 3–4 and two zeros (a control byte with its top bit set writes 0). Both
// lanes take the same control.
DATA spread<>+0(SB)/8, $0x8080040380020100
DATA spread<>+8(SB)/8, $0x8080090880070605
DATA spread<>+16(SB)/8, $0x8080040380020100
DATA spread<>+24(SB)/8, $0x8080090880070605
GLOBL spread<>(SB), RODATA|NOPTR, $32

// numbers keeps the number of each Cell in its 64-bit lane.
DATA numbers<>+0(SB)/8, $0x0000000000ffffff
DATA numbers<>+8(SB)/8, $0x0000000000ffffff
DATA numbers<>+16(SB)/8, $0x0000000000ffffff
DATA numbers<>+24(SB)/8, $0x0000000000ffffff
GLOBL numbers<>(SB), RODATA|NOPTR, $32

// func unpackVector(out []Cell, body []byte) (ascending bool)
//
// Per group of four cells (20 body bytes): a 16-byte load of cells 0–1 and
// a VINSERTI128 of the 16 bytes at +10, cells 2–3, into the upper lane;
// VPSHUFB spreads them into four Cells, stored with one 32-byte store.
// Ascent is checked in register: VPERMQ $0x93 rotates the numbers n0..n3
// to (n3, n0, n1, n2), VPBLENDD puts the previous group's n3 (−1 before
// the first group) into lane 0, VPSUBQ gives prev − n in each lane, and
// VPAND keeps the sign bits in Y12. The record ascends exactly when all
// four sign bits survive: VMOVMSKPD reads 15.
TEXT ·unpackVector(SB), NOSPLIT, $0-49
	MOVQ     out_base+0(FP), DI
	MOVQ     out_len+8(FP), CX
	MOVQ     body_base+24(FP), SI
	SHRQ     $2, CX
	VMOVDQU  spread<>(SB), Y15
	VMOVDQU  numbers<>(SB), Y14
	VPCMPEQQ Y13, Y13, Y13
	VMOVDQU  Y13, Y12

group:
	VMOVDQU     (SI), X0
	VINSERTI128 $1, 10(SI), Y0, Y0
	VPSHUFB     Y15, Y0, Y0
	VMOVDQU     Y0, (DI)
	VPAND       Y14, Y0, Y1
	VPERMQ      $0x93, Y1, Y2
	VPBLENDD    $0x03, Y13, Y2, Y3
	VPSUBQ      Y1, Y3, Y3
	VPAND       Y3, Y12, Y12
	VMOVDQU     Y2, Y13
	ADDQ        $20, SI
	ADDQ        $32, DI
	DECQ        CX
	JNZ         group

	VMOVMSKPD Y12, AX
	CMPL      AX, $15
	SETEQ     ascending+48(FP)
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
