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

// func momentumOuterAVX2(w, v, y []float64, x, mu, wd, lr float64)
// the same step with g = 0 + x*y
TEXT ·momentumOuterAVX2(SB), NOSPLIT, $0-104
	MOVQ         w_base+0(FP), DI
	MOVQ         v_base+24(FP), SI
	MOVQ         v_len+32(FP), CX
	MOVQ         y_base+48(FP), DX
	VBROADCASTSD x+72(FP), Y7
	VBROADCASTSD mu+80(FP), Y0
	VBROADCASTSD wd+88(FP), Y1
	VBROADCASTSD lr+96(FP), Y2
	VXORPD       Y8, Y8, Y8
	SHRQ         $2, CX
	JZ           outer_done
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
outer_done:
	VZEROUPPER
	RET
