package tensor

// useAVX2 selects the assembly kernels: the CPU has AVX2 and the OS saves
// the YMM registers, and the build is not a race build. Tests clear it to
// run the Go loops on the same host.
var useAVX2 = !raceEnabled && cpuHasAVX2()

// cpuHasAVX2 reads CPUID leaf 7 (AVX2) and XCR0 (YMM state enabled).
func cpuHasAVX2() bool

// The kernels process len(x) &^ 3 elements; see kernels.go.

//go:noescape
func scaleAVX2(dst, x []float64, a float64)

//go:noescape
func scaleAddAVX2(dst, x, y []float64, a, post float64)

//go:noescape
func momentumAVX2(w, v, g []float64, mu, wd, lr float64)

//go:noescape
func momentumOuterAVX2(w, v, xs, y []float64, mu, wd, lr float64)

//go:noescape
func outerAVX2(dst, xs, y []float64)

// mulVec16AVX2 sums len(dst) rows (a multiple of 16) of a, stride elements
// apart, against x (a positive multiple of 4 long); see Matrix.MulVec.
//
//go:noescape
func mulVec16AVX2(dst, a, x []float64, stride int)
