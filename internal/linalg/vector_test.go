package linalg

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestVectorBasicOps(t *testing.T) {
	v := Vector{1, 2, 3}
	u := Vector{4, 5, 6}

	if got := v.Add(u); !got.Equal(Vector{5, 7, 9}, 0) {
		t.Errorf("Add = %v", got)
	}
	if got := v.Sub(u); !got.Equal(Vector{-3, -3, -3}, 0) {
		t.Errorf("Sub = %v", got)
	}
	if got := v.Scale(2); !got.Equal(Vector{2, 4, 6}, 0) {
		t.Errorf("Scale = %v", got)
	}
	if got := v.Dot(u); got != 32 {
		t.Errorf("Dot = %v, want 32", got)
	}
	if got := v.Norm(); math.Abs(got-math.Sqrt(14)) > 1e-15 {
		t.Errorf("Norm = %v", got)
	}
	if got := v.DistSq(u); got != 27 {
		t.Errorf("DistSq = %v, want 27", got)
	}
}

func TestVectorCloneIndependence(t *testing.T) {
	v := Vector{1, 2, 3}
	c := v.Clone()
	c[0] = 99
	if v[0] != 1 {
		t.Fatal("Clone aliases original")
	}
}

func TestVectorAXPY(t *testing.T) {
	v := Vector{1, 1}
	v.AXPYInPlace(3, Vector{2, -1})
	if !v.Equal(Vector{7, -2}, 0) {
		t.Errorf("AXPY = %v", v)
	}
}

// SubInto writes v − u into dst: the per-record difference the panel
// kernels (SubRowsInto, QuadFormRows) are pinned against bit for bit.
func (v Vector) SubInto(u, dst Vector) {
	mustSameDim(len(v), len(u))
	mustSameDim(len(v), len(dst))
	for i := range v {
		dst[i] = v[i] - u[i]
	}
}

// Norm returns the Euclidean norm of v, the scale of solve tolerances.
func (v Vector) Norm() float64 { return math.Sqrt(v.Dot(v)) }

func TestVectorSubInto(t *testing.T) {
	v := Vector{5, 5}
	dst := NewVector(2)
	v.SubInto(Vector{2, 3}, dst)
	if !dst.Equal(Vector{3, 2}, 0) {
		t.Errorf("SubInto = %v", dst)
	}
}

func TestVectorDimMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on dimension mismatch")
		}
	}()
	Vector{1, 2}.Dot(Vector{1})
}

func TestVectorIsFinite(t *testing.T) {
	if !(Vector{1, 2}).IsFinite() {
		t.Error("finite vector reported non-finite")
	}
	if (Vector{1, math.NaN()}).IsFinite() {
		t.Error("NaN vector reported finite")
	}
	if (Vector{math.Inf(1), 0}).IsFinite() {
		t.Error("Inf vector reported finite")
	}
}

func TestVectorEqualDifferentDims(t *testing.T) {
	if (Vector{1}).Equal(Vector{1, 2}, 1) {
		t.Error("vectors of different dims reported equal")
	}
}

// Property: dot product is symmetric and bilinear.
func TestVectorDotProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	f := func(n uint8) bool {
		d := int(n%16) + 1
		v, u, w := randVec(rng, d), randVec(rng, d), randVec(rng, d)
		a := rng.NormFloat64()
		if math.Abs(v.Dot(u)-u.Dot(v)) > 1e-9 {
			return false
		}
		lhs := v.Add(u.Scale(a)).Dot(w)
		rhs := v.Dot(w) + a*u.Dot(w)
		return math.Abs(lhs-rhs) <= 1e-9*(1+math.Abs(lhs))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: ‖v‖² == v·v and triangle inequality.
func TestVectorNormProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	f := func(n uint8) bool {
		d := int(n%16) + 1
		v, u := randVec(rng, d), randVec(rng, d)
		if math.Abs(v.Norm()*v.Norm()-v.Dot(v)) > 1e-9*(1+v.Dot(v)) {
			return false
		}
		return v.Add(u).Norm() <= v.Norm()+u.Norm()+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func randVec(rng *rand.Rand, d int) Vector {
	v := NewVector(d)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	return v
}
