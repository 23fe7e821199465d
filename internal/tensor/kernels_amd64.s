#include "textflag.h"

// AVX2 lanes of the element-wise kernels in kernels.go. Each loop takes four
// float64 per iteration over len(x) &^ 3 elements and performs, per lane, the
// Go loop's operations in its order (VMULPD/VADDPD/VSUBPD, no FMA). Go
// assembler operand order: VSUBPD b, a, d computes d = a - b.

// func cpuHasAVX2() bool
TEXT ·cpuHasAVX2(SB), NOSPLIT, $0-1
	XORL CX, CX
	XORL AX, AX
	CPUID                       // leaf 0: highest leaf in AX
	CMPL AX, $7
	JLT  no
	MOVL $1, AX
	XORL CX, CX
	CPUID                       // leaf 1: CX bit 27 OSXSAVE, bit 28 AVX
	ANDL $0x18000000, CX
	CMPL CX, $0x18000000
	JNE  no
	XORL CX, CX
	XGETBV                      // XCR0: bits 1-2, SSE and YMM state saved
	ANDL $6, AX
	CMPL AX, $6
	JNE  no
	MOVL $7, AX
	XORL CX, CX
	CPUID                       // leaf 7: BX bit 5 AVX2
	ANDL $0x20, BX
	JZ   no
	MOVB $1, ret+0(FP)
	RET
no:
	MOVB $0, ret+0(FP)
	RET

// func scaleAVX2(dst, x []float64, a float64)
// dst = a*x
TEXT ·scaleAVX2(SB), NOSPLIT, $0-56
	MOVQ         dst_base+0(FP), DI
	MOVQ         x_base+24(FP), SI
	MOVQ         x_len+32(FP), CX
	VBROADCASTSD a+48(FP), Y0
	SHRQ         $2, CX
	JZ           scale_done
scale_loop:
	VMULPD  (SI), Y0, Y1
	VMOVUPD Y1, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	DECQ    CX
	JNZ     scale_loop
scale_done:
	VZEROUPPER
	RET

// func scaleAddAVX2(dst, x, y []float64, a, post float64)
// dst = (a*x + y) * post
TEXT ·scaleAddAVX2(SB), NOSPLIT, $0-88
	MOVQ         dst_base+0(FP), DI
	MOVQ         x_base+24(FP), SI
	MOVQ         x_len+32(FP), CX
	MOVQ         y_base+48(FP), DX
	VBROADCASTSD a+72(FP), Y0
	VBROADCASTSD post+80(FP), Y1
	SHRQ         $2, CX
	JZ           sa_done
sa_loop:
	VMULPD  (SI), Y0, Y2
	VADDPD  (DX), Y2, Y2
	VMULPD  Y1, Y2, Y2
	VMOVUPD Y2, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DX
	ADDQ    $32, DI
	DECQ    CX
	JNZ     sa_loop
sa_done:
	VZEROUPPER
	RET

// func momentumAVX2(w, v, g []float64, mu, wd, lr float64)
// g' = g + wd*w; v = mu*v + g'; w = w - lr*v
TEXT ·momentumAVX2(SB), NOSPLIT, $0-96
	MOVQ         w_base+0(FP), DI
	MOVQ         v_base+24(FP), SI
	MOVQ         v_len+32(FP), CX
	MOVQ         g_base+48(FP), DX
	VBROADCASTSD mu+72(FP), Y0
	VBROADCASTSD wd+80(FP), Y1
	VBROADCASTSD lr+88(FP), Y2
	SHRQ         $2, CX
	JZ           mom_done
mom_loop:
	VMOVUPD (DI), Y3
	VMULPD  Y3, Y1, Y4
	VADDPD  (DX), Y4, Y4
	VMULPD  (SI), Y0, Y5
	VADDPD  Y4, Y5, Y5
	VMOVUPD Y5, (SI)
	VMULPD  Y5, Y2, Y6
	VSUBPD  Y6, Y3, Y3
	VMOVUPD Y3, (DI)
	ADDQ    $32, DI
	ADDQ    $32, SI
	ADDQ    $32, DX
	DECQ    CX
	JNZ     mom_loop
mom_done:
	VZEROUPPER
	RET

// func momentumOuterAVX2(w, v, xs, y []float64, mu, wd, lr float64)
// the same step with g = 0 + xs[r]*y on row r of w and v (rows len(y)
// apart), over the first len(y) &^ 3 elements of each row
TEXT ·momentumOuterAVX2(SB), NOSPLIT, $0-120
	MOVQ         w_base+0(FP), DI
	MOVQ         v_base+24(FP), SI
	MOVQ         xs_base+48(FP), R8
	MOVQ         xs_len+56(FP), R9
	MOVQ         y_base+72(FP), R10
	MOVQ         y_len+80(FP), R11
	VBROADCASTSD mu+96(FP), Y0
	VBROADCASTSD wd+104(FP), Y1
	VBROADCASTSD lr+112(FP), Y2
	VXORPD       Y8, Y8, Y8
	MOVQ         R11, R12
	ANDQ         $3, R12
	SHLQ         $3, R12                 // bytes in a row's tail, left to Go
	SHRQ         $2, R11
	JZ           outer_done
	TESTQ        R9, R9
	JZ           outer_done
outer_row:
	VBROADCASTSD (R8), Y7
	MOVQ         R10, DX
	MOVQ         R11, CX
outer_loop:
	VMULPD  (DX), Y7, Y4
	VADDPD  Y4, Y8, Y4
	VMOVUPD (DI), Y3
	VMULPD  Y3, Y1, Y6
	VADDPD  Y6, Y4, Y4
	VMULPD  (SI), Y0, Y5
	VADDPD  Y4, Y5, Y5
	VMOVUPD Y5, (SI)
	VMULPD  Y5, Y2, Y6
	VSUBPD  Y6, Y3, Y3
	VMOVUPD Y3, (DI)
	ADDQ    $32, DI
	ADDQ    $32, SI
	ADDQ    $32, DX
	DECQ    CX
	JNZ     outer_loop
	ADDQ    R12, DI
	ADDQ    R12, SI
	ADDQ    $8, R8
	DECQ    R9
	JNZ     outer_row
outer_done:
	VZEROUPPER
	RET

// mvTile adds one 4-row x 4-column tile into acc: rows P, P+BX, P+2BX, P+DX
// (DX = 3BX) at columns 0-3 from P. Each pair of columns comes in as rows 0/2
// and rows 1/3 in one register each; VUNPCKLPD/VUNPCKHPD turn them into the
// two columns, each multiplied by its broadcast x (Y4-Y7) and added into acc
// in ascending column order.
#define mvTile(P, acc) \
	VMOVUPD     (P), X8; \
	VINSERTF128 $1, (P)(BX*2), Y8, Y8; \
	VMOVUPD     (P)(BX*1), X9; \
	VINSERTF128 $1, (P)(DX*1), Y9, Y9; \
	VUNPCKLPD   Y9, Y8, Y10; \
	VUNPCKHPD   Y9, Y8, Y11; \
	VMULPD      Y4, Y10, Y10; \
	VADDPD      Y10, acc, acc; \
	VMULPD      Y5, Y11, Y11; \
	VADDPD      Y11, acc, acc; \
	VMOVUPD     16(P), X8; \
	VINSERTF128 $1, 16(P)(BX*2), Y8, Y8; \
	VMOVUPD     16(P)(BX*1), X9; \
	VINSERTF128 $1, 16(P)(DX*1), Y9, Y9; \
	VUNPCKLPD   Y9, Y8, Y10; \
	VUNPCKHPD   Y9, Y8, Y11; \
	VMULPD      Y6, Y10, Y10; \
	VADDPD      Y10, acc, acc; \
	VMULPD      Y7, Y11, Y11; \
	VADDPD      Y11, acc, acc

// func mulVec16AVX2(dst, a, x []float64, stride int)
// dst[r] = 0 + a[r*stride]*x[0] + a[r*stride+1]*x[1] + ..., summed in that
// order, for len(dst) rows (a multiple of 16) and len(x) columns (a positive
// multiple of 4). Y0-Y3 hold rows 0-3, 4-7, 8-11 and 12-15 of a block, one
// row per lane.
TEXT ·mulVec16AVX2(SB), NOSPLIT, $0-80
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ a_base+24(FP), SI
	MOVQ x_base+48(FP), R8
	MOVQ x_len+56(FP), R9
	MOVQ stride+72(FP), BX
	SHLQ $3, BX                  // row stride in bytes
	LEAQ (BX)(BX*2), DX
	LEAQ (R8)(R9*8), R9          // end of x
	SHRQ $4, CX
	JZ   mv_done
	CMPQ R8, R9
	JEQ  mv_done
mv_block:
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	MOVQ   SI, R10
	LEAQ   (SI)(BX*4), R11
	LEAQ   (R11)(BX*4), R12
	LEAQ   (R12)(BX*4), R13
	MOVQ   R8, AX
mv_cols:
	VBROADCASTSD (AX), Y4
	VBROADCASTSD 8(AX), Y5
	VBROADCASTSD 16(AX), Y6
	VBROADCASTSD 24(AX), Y7
	mvTile(R10, Y0)
	mvTile(R11, Y1)
	mvTile(R12, Y2)
	mvTile(R13, Y3)
	ADDQ $32, R10
	ADDQ $32, R11
	ADDQ $32, R12
	ADDQ $32, R13
	ADDQ $32, AX
	CMPQ AX, R9
	JNE  mv_cols
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	ADDQ    $128, DI
	LEAQ    (SI)(BX*8), SI
	LEAQ    (SI)(BX*8), SI
	DECQ    CX
	JNZ     mv_block
mv_done:
	VZEROUPPER
	RET
