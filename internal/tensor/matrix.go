package tensor

import (
	"fmt"
	"math"
	"math/rand"
)

// Matrix is a dense row-major matrix backed by a single contiguous slice.
type Matrix struct {
	Rows, Cols int
	Data       Vector // len == Rows*Cols, row-major
}

// NewMatrix returns a zeroed Rows×Cols matrix.
func NewMatrix(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("tensor: NewMatrix negative dims %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: NewVector(rows * cols)}
}

// MatrixFrom wraps data as a rows×cols matrix without copying. It panics if
// len(data) != rows*cols.
func MatrixFrom(rows, cols int, data Vector) *Matrix {
	if len(data) != rows*cols {
		panic(fmt.Sprintf("tensor: MatrixFrom %dx%d needs %d elements, got %d", rows, cols, rows*cols, len(data)))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: data}
}

// At returns the element at row i, column j.
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set stores v at row i, column j.
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Row returns row i as a vector sharing m's backing storage.
func (m *Matrix) Row(i int) Vector { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	return &Matrix{Rows: m.Rows, Cols: m.Cols, Data: m.Data.Clone()}
}

// Zero sets every element to 0.
func (m *Matrix) Zero() { m.Data.Zero() }

// MulVec writes m·x into dst. dst must have length m.Rows and x length
// m.Cols; dst must not alias x. Every row is summed j = 0…Cols−1 from 0 into
// its own accumulator, however many rows share a pass, so the bits are those
// of the one-row-at-a-time loop that finishes the tail. On AVX2 hosts
// (kernels.go) sixteen rows share a pass, one per lane, over the first
// Cols &^ 3 columns, and Go adds each row's last columns on; the rest go
// four rows per pass, four independent add chains in flight instead of one.
func (m *Matrix) MulVec(dst, x Vector) {
	checkLen(len(dst), m.Rows)
	checkLen(len(x), m.Cols)
	i, n := 0, len(x)
	if useAVX2 && m.Rows >= 16 && n >= 4 {
		i = m.Rows &^ 15
		c := n &^ 3
		mulVec16AVX2(dst[:i], m.Data[:i*n], x[:c], n)
		if c < n {
			for r := range dst[:i] {
				row, s := m.Data[r*n+c:(r+1)*n], dst[r]
				for j, v := range x[c:] {
					s += float64(row[j] * v)
				}
				dst[r] = s
			}
		}
	}
	for ; i+4 <= m.Rows; i += 4 {
		r0, r1, r2, r3 := m.Row(i)[:n], m.Row(i + 1)[:n], m.Row(i + 2)[:n], m.Row(i + 3)[:n]
		var s0, s1, s2, s3 float64
		for j, v := range x {
			s0 += float64(r0[j] * v)
			s1 += float64(r1[j] * v)
			s2 += float64(r2[j] * v)
			s3 += float64(r3[j] * v)
		}
		dst[i], dst[i+1], dst[i+2], dst[i+3] = s0, s1, s2, s3
	}
	for ; i < m.Rows; i++ {
		var s float64
		for j, w := range m.Row(i) {
			s += float64(w * x[j])
		}
		dst[i] = s
	}
}

// MulVecT writes mᵀ·x into dst. dst must have length m.Cols and x length
// m.Rows; dst must not alias x.
func (m *Matrix) MulVecT(dst, x Vector) {
	checkLen(len(dst), m.Cols)
	checkLen(len(x), m.Rows)
	dst.Zero()
	for i := 0; i < m.Rows; i++ {
		dst.Axpy(x[i], m.Row(i))
	}
}

// AddOuter accumulates the rank-1 update m += a · x·yᵀ where x has length
// m.Rows and y length m.Cols.
func (m *Matrix) AddOuter(a float64, x, y Vector) {
	checkLen(len(x), m.Rows)
	checkLen(len(y), m.Cols)
	for i := 0; i < m.Rows; i++ {
		m.Row(i).Axpy(a*x[i], y)
	}
}

// SetOuter overwrites m with the outer product x·yᵀ, bit-for-bit what Zero
// followed by AddOuter(1, x, y) leaves: each element is OuterElem(x[i], y[j]).
// On AVX2 hosts (kernels.go) the assembly stores the first m.Cols &^ 3
// elements of every row, the row loop included; the Go loop finishes each
// row's tail.
func (m *Matrix) SetOuter(x, y Vector) {
	checkLen(len(x), m.Rows)
	checkLen(len(y), m.Cols)
	n, c := len(y), 0
	if useAVX2 && n >= 4 {
		c = n &^ 3
		outerAVX2(m.Data[:len(x)*n], x, y)
	}
	if c == n {
		return
	}
	for i, xi := range x {
		row := m.Data[i*n+c : (i+1)*n]
		for j, v := range y[c:] {
			row[j] = OuterElem(xi, v)
		}
	}
}

// Outer is a rank-1 matrix kept as its two factors: element (i, j) is
// OuterElem(X[i], Y[j]), what SetOuter(X, Y) would store there.
type Outer struct{ X, Y Vector }

// OuterElem is one element of an outer product accumulated into a zeroed
// matrix: 0 + x·y with the product rounded before the add (see kernels.go), so
// a −0 product becomes +0.
func OuterElem(x, y float64) float64 { return 0 + float64(x*y) }

// IsSymmetric reports whether m is square and symmetric within tol.
func (m *Matrix) IsSymmetric(tol float64) bool {
	if m.Rows != m.Cols {
		return false
	}
	for i := 0; i < m.Rows; i++ {
		for j := i + 1; j < m.Cols; j++ {
			if math.Abs(m.At(i, j)-m.At(j, i)) > tol {
				return false
			}
		}
	}
	return true
}

// FillGlorot initializes m with Glorot/Xavier-uniform entries drawn from rng:
// U(-l, l) with l = sqrt(6/(fanIn+fanOut)).
func (m *Matrix) FillGlorot(rng *rand.Rand, fanIn, fanOut int) {
	l := math.Sqrt(6 / float64(fanIn+fanOut))
	for i := range m.Data {
		m.Data[i] = (float64(rng.Float64())*2 - 1) * l
	}
}

// String renders small matrices for debugging.
func (m *Matrix) String() string {
	s := fmt.Sprintf("Matrix %dx%d", m.Rows, m.Cols)
	if m.Rows*m.Cols <= 64 {
		for i := 0; i < m.Rows; i++ {
			s += "\n "
			for j := 0; j < m.Cols; j++ {
				s += fmt.Sprintf("%8.4f", m.At(i, j))
			}
		}
	}
	return s
}
