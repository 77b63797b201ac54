package linalg

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSymSetAtSymmetry(t *testing.T) {
	s := NewSym(3)
	s.Set(0, 2, 7)
	if s.At(2, 0) != 7 || s.At(0, 2) != 7 {
		t.Fatalf("symmetry broken: At(2,0)=%v At(0,2)=%v", s.At(2, 0), s.At(0, 2))
	}
	s.Add(2, 0, 3)
	if s.At(0, 2) != 10 {
		t.Fatalf("Add not symmetric: %v", s.At(0, 2))
	}
}

func TestSymIdentityAndDiagonal(t *testing.T) {
	id := Identity(3)
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			want := 0.0
			if i == j {
				want = 1
			}
			if id.At(i, j) != want {
				t.Fatalf("Identity(%d,%d) = %v", i, j, id.At(i, j))
			}
		}
	}
	d := Diagonal(Vector{2, 3})
	if d.At(0, 0) != 2 || d.At(1, 1) != 3 || d.At(0, 1) != 0 {
		t.Fatal("Diagonal wrong")
	}
	if d.Trace() != 5 {
		t.Fatalf("Trace = %v", d.Trace())
	}
}

func TestNewSymFromSymmetrizes(t *testing.T) {
	// Slightly asymmetric input gets averaged.
	s := NewSymFrom(2, []float64{1, 2, 4, 9})
	if s.At(0, 1) != 3 {
		t.Fatalf("off-diagonal = %v, want 3", s.At(0, 1))
	}
}

func TestSymMulVec(t *testing.T) {
	s := NewSymFrom(2, []float64{2, 1, 1, 3})
	got := s.MulVec(Vector{1, 2})
	if !got.Equal(Vector{4, 7}, 1e-15) {
		t.Fatalf("MulVec = %v", got)
	}
}

func TestSymQuadMatchesMulVec(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	f := func(n uint8) bool {
		d := int(n%8) + 1
		s := randSym(rng, d)
		v := randVec(rng, d)
		want := v.Dot(s.MulVec(v))
		got := s.Quad(v)
		return math.Abs(got-want) <= 1e-9*(1+math.Abs(want))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestSymAddOuterScaled(t *testing.T) {
	s := NewSym(2)
	s.AddOuterScaled(2, Vector{1, 3})
	// 2 * [1,3][1,3]^T = [[2,6],[6,18]]
	if s.At(0, 0) != 2 || s.At(0, 1) != 6 || s.At(1, 1) != 18 {
		t.Fatalf("AddOuterScaled wrong: %v %v %v", s.At(0, 0), s.At(0, 1), s.At(1, 1))
	}
}

func TestSymAddSymScale(t *testing.T) {
	a := Identity(2)
	b := Diagonal(Vector{1, 2})
	a.AddSym(3, b)
	if a.At(0, 0) != 4 || a.At(1, 1) != 7 {
		t.Fatal("AddSym wrong")
	}
	a.ScaleInPlace(0.5)
	if a.At(0, 0) != 2 || a.At(1, 1) != 3.5 {
		t.Fatal("ScaleInPlace wrong")
	}
}

func TestSymPackedRoundTrip(t *testing.T) {
	s := randSym(rand.New(rand.NewSource(4)), 5)
	p := s.Packed()
	if len(p) != PackedLen(5) {
		t.Fatalf("packed len = %d", len(p))
	}
	q := SymFromPacked(5, append([]float64(nil), p...))
	if !s.Equal(q, 0) {
		t.Fatal("packed round trip mismatch")
	}
}

func TestSymCloneIndependence(t *testing.T) {
	s := Identity(2)
	c := s.Clone()
	c.Set(0, 0, 9)
	if s.At(0, 0) != 1 {
		t.Fatal("Clone aliases original")
	}
}

// MaxAbs returns the largest absolute element value, the scale of the
// eigen-reconstruction tolerance.
func (s *Sym) MaxAbs() float64 {
	var m float64
	for _, v := range s.data {
		m = math.Max(m, math.Abs(v))
	}
	return m
}

func TestSymMaxAbsAndFinite(t *testing.T) {
	s := NewSymFrom(2, []float64{1, -5, -5, 2})
	if s.MaxAbs() != 5 {
		t.Fatalf("MaxAbs = %v", s.MaxAbs())
	}
	if !s.IsFinite() {
		t.Error("finite matrix reported non-finite")
	}
	s.Set(1, 1, math.NaN())
	if s.IsFinite() {
		t.Error("NaN matrix reported finite")
	}
}

// randSym returns a random symmetric matrix (not necessarily PD).
func randSym(rng *rand.Rand, d int) *Sym {
	s := NewSym(d)
	for i := 0; i < d; i++ {
		for j := 0; j <= i; j++ {
			s.Set(i, j, rng.NormFloat64())
		}
	}
	return s
}

// randSPD returns a random symmetric positive definite matrix A = GᵀG + εI.
func randSPD(rng *rand.Rand, d int) *Sym {
	s := NewSym(d)
	for k := 0; k < d+2; k++ {
		v := randVec(rng, d)
		s.AddOuterScaled(1, v)
	}
	for i := 0; i < d; i++ {
		s.Add(i, i, 0.5)
	}
	return s
}
