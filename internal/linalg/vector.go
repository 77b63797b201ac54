// Package linalg provides the small dense linear-algebra kernel that the
// rest of the repository builds on: d-dimensional vectors, symmetric
// matrices in packed form, Cholesky factorizations, triangular solves and a
// Jacobi eigendecomposition.
//
// Go's standard library has no numeric linear algebra, and the module is
// offline, so everything here is implemented from first principles. The
// dimensions involved in CluDistream are small (the paper sweeps d up to
// 40), so simple O(d^3) dense algorithms are the right tool; no blocking or
// SIMD is attempted.
package linalg

import (
	"errors"
	"fmt"
	"math"
)

// ErrDimensionMismatch is returned by operations whose operands have
// incompatible dimensions.
var ErrDimensionMismatch = errors.New("linalg: dimension mismatch")

// Vector is a dense column vector of float64s. The zero value is an empty
// vector. Vectors are plain slices so callers may index them directly.
type Vector []float64

// NewVector returns a zero vector of dimension d.
func NewVector(d int) Vector {
	return make(Vector, d)
}

// Clone returns a deep copy of v.
func (v Vector) Clone() Vector {
	out := make(Vector, len(v))
	copy(out, v)
	return out
}

// Dim returns the dimension of v.
func (v Vector) Dim() int { return len(v) }

// AddInPlace adds u into v element-wise. It panics if dimensions differ.
func (v Vector) AddInPlace(u Vector) {
	mustSameDim(len(v), len(u))
	for i := range v {
		v[i] += u[i]
	}
}

// Add returns v + u as a fresh vector.
func (v Vector) Add(u Vector) Vector {
	out := v.Clone()
	out.AddInPlace(u)
	return out
}

// Sub returns v - u as a fresh vector.
func (v Vector) Sub(u Vector) Vector {
	mustSameDim(len(v), len(u))
	out := make(Vector, len(v))
	for i := range v {
		out[i] = v[i] - u[i]
	}
	return out
}

// ScaleInPlace multiplies every element of v by a.
func (v Vector) ScaleInPlace(a float64) {
	for i := range v {
		v[i] *= a
	}
}

// Scale returns a*v as a fresh vector.
func (v Vector) Scale(a float64) Vector {
	out := v.Clone()
	out.ScaleInPlace(a)
	return out
}

// AXPYInPlace performs v += a*u.
func (v Vector) AXPYInPlace(a float64, u Vector) {
	mustSameDim(len(v), len(u))
	for i := range v {
		v[i] += a * u[i]
	}
}

// Dot returns the inner product <v, u>.
func (v Vector) Dot(u Vector) float64 {
	mustSameDim(len(v), len(u))
	var s float64
	for i := range v {
		s += v[i] * u[i]
	}
	return s
}

// DistSq returns the squared Euclidean distance between v and u.
func (v Vector) DistSq(u Vector) float64 {
	mustSameDim(len(v), len(u))
	var s float64
	for i := range v {
		d := v[i] - u[i]
		s += d * d
	}
	return s
}

// Equal reports whether v and u are element-wise within tol of each other.
func (v Vector) Equal(u Vector, tol float64) bool {
	if len(v) != len(u) {
		return false
	}
	for i := range v {
		if math.Abs(v[i]-u[i]) > tol {
			return false
		}
	}
	return true
}

// IsFinite reports whether every element of v is finite (neither NaN nor
// infinite).
func (v Vector) IsFinite() bool {
	for _, x := range v {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return false
		}
	}
	return true
}

func mustSameDim(a, b int) {
	if a != b {
		panic(fmt.Sprintf("linalg: dimension mismatch: %d vs %d", a, b))
	}
}
