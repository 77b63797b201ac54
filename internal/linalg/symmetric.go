package linalg

import (
	"fmt"
	"math"
)

// Sym is a dense symmetric d×d matrix stored in packed lower-triangular
// form: element (i, j) with i >= j lives at data[i*(i+1)/2 + j]. Packed
// storage halves the memory footprint of covariance matrices, which matters
// because the coordinator keeps B·K of them per site (Theorem 3).
type Sym struct {
	n    int
	data []float64
}

// NewSym returns the zero symmetric matrix of order n.
func NewSym(n int) *Sym {
	return &Sym{n: n, data: make([]float64, n*(n+1)/2)}
}

// NewSymFrom builds a symmetric matrix from a full row-major d×d slice,
// averaging the off-diagonal pairs so that slightly asymmetric inputs (from
// accumulated floating-point error) are symmetrized.
func NewSymFrom(n int, full []float64) *Sym {
	if len(full) != n*n {
		panic(fmt.Sprintf("linalg: NewSymFrom: need %d elements, got %d", n*n, len(full)))
	}
	s := NewSym(n)
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			s.Set(i, j, 0.5*(full[i*n+j]+full[j*n+i]))
		}
	}
	return s
}

// Identity returns the n×n identity as a symmetric matrix.
func Identity(n int) *Sym {
	s := NewSym(n)
	for i := 0; i < n; i++ {
		s.Set(i, i, 1)
	}
	return s
}

// Diagonal returns a symmetric matrix with the given diagonal.
func Diagonal(diag Vector) *Sym {
	s := NewSym(len(diag))
	for i, v := range diag {
		s.Set(i, i, v)
	}
	return s
}

// Order returns the matrix order (number of rows = columns).
func (s *Sym) Order() int { return s.n }

// At returns element (i, j).
func (s *Sym) At(i, j int) float64 {
	if j > i {
		i, j = j, i
	}
	return s.data[i*(i+1)/2+j]
}

// Set assigns element (i, j) (and by symmetry (j, i)).
func (s *Sym) Set(i, j int, v float64) {
	if j > i {
		i, j = j, i
	}
	s.data[i*(i+1)/2+j] = v
}

// Add accumulates v into element (i, j).
func (s *Sym) Add(i, j int, v float64) {
	if j > i {
		i, j = j, i
	}
	s.data[i*(i+1)/2+j] += v
}

// Clone returns a deep copy of s.
func (s *Sym) Clone() *Sym {
	out := &Sym{n: s.n, data: make([]float64, len(s.data))}
	copy(out.data, s.data)
	return out
}

// CopyFrom overwrites s with the contents of src (same order required).
func (s *Sym) CopyFrom(src *Sym) {
	if s.n != src.n {
		panic("linalg: CopyFrom order mismatch")
	}
	copy(s.data, src.data)
}

// AddSym performs s += a*t element-wise.
func (s *Sym) AddSym(a float64, t *Sym) {
	if s.n != t.n {
		panic("linalg: AddSym order mismatch")
	}
	for i := range s.data {
		s.data[i] += a * t.data[i]
	}
}

// ScaleInPlace multiplies all elements by a.
func (s *Sym) ScaleInPlace(a float64) {
	for i := range s.data {
		s.data[i] *= a
	}
}

// AddOuterScaled performs the rank-1 update s += a * v vᵀ.
func (s *Sym) AddOuterScaled(a float64, v Vector) {
	if len(v) != s.n {
		panic("linalg: AddOuterScaled dimension mismatch")
	}
	k := 0
	for i := 0; i < s.n; i++ {
		avi := a * v[i]
		for j := 0; j <= i; j++ {
			s.data[k] += avi * v[j]
			k++
		}
	}
}

// MulVec returns s · v as a fresh vector.
func (s *Sym) MulVec(v Vector) Vector {
	out := NewVector(s.n)
	s.MulVecInto(v, out)
	return out
}

// MulVecInto writes s · v into dst.
func (s *Sym) MulVecInto(v, dst Vector) {
	if len(v) != s.n || len(dst) != s.n {
		panic("linalg: MulVec dimension mismatch")
	}
	for i := 0; i < s.n; i++ {
		var acc float64
		for j := 0; j < s.n; j++ {
			acc += s.At(i, j) * v[j]
		}
		dst[i] = acc
	}
}

// Quad returns the quadratic form vᵀ s v.
func (s *Sym) Quad(v Vector) float64 {
	if len(v) != s.n {
		panic("linalg: Quad dimension mismatch")
	}
	var acc float64
	k := 0
	for i := 0; i < s.n; i++ {
		vi := v[i]
		for j := 0; j < i; j++ {
			acc += 2 * vi * v[j] * s.data[k]
			k++
		}
		acc += vi * vi * s.data[k]
		k++
	}
	return acc
}

// Diag returns a copy of the main diagonal.
func (s *Sym) Diag() Vector {
	out := NewVector(s.n)
	for i := 0; i < s.n; i++ {
		out[i] = s.At(i, i)
	}
	return out
}

// Trace returns the sum of the diagonal elements.
func (s *Sym) Trace() float64 {
	var t float64
	for i := 0; i < s.n; i++ {
		t += s.At(i, i)
	}
	return t
}

// Equal reports whether s and t agree element-wise within tol.
func (s *Sym) Equal(t *Sym, tol float64) bool {
	if s.n != t.n {
		return false
	}
	for i := range s.data {
		if math.Abs(s.data[i]-t.data[i]) > tol {
			return false
		}
	}
	return true
}

// IsFinite reports whether every element is finite.
func (s *Sym) IsFinite() bool {
	for _, v := range s.data {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}

// Packed exposes the underlying packed lower-triangular storage. The slice
// aliases the matrix: mutations are visible. Intended for serialization.
func (s *Sym) Packed() []float64 { return s.data }

// SymFromPacked wraps packed lower-triangular data (length n*(n+1)/2) in a
// Sym without copying.
func SymFromPacked(n int, packed []float64) *Sym {
	if len(packed) != n*(n+1)/2 {
		panic(fmt.Sprintf("linalg: SymFromPacked: need %d elements, got %d", n*(n+1)/2, len(packed)))
	}
	return &Sym{n: n, data: packed}
}

// PackedLen returns the packed storage length for order n.
func PackedLen(n int) int { return n * (n + 1) / 2 }
