//go:build !amd64

package tensor

// Hosts other than amd64 run the Go loops of kernels.go only.
var useAVX2 = false

func scaleAVX2(dst, x []float64, a float64)                       { panic("tensor: no AVX2") }
func scaleAddAVX2(dst, x, y []float64, a, post float64)           { panic("tensor: no AVX2") }
func momentumAVX2(w, v, g []float64, mu, wd, lr float64)          { panic("tensor: no AVX2") }
func momentumOuterAVX2(w, v, xs, y []float64, mu, wd, lr float64) { panic("tensor: no AVX2") }
func outerAVX2(dst, xs, y []float64)                              { panic("tensor: no AVX2") }
func mulVec16AVX2(dst, a, x []float64, stride int)                { panic("tensor: no AVX2") }
