package em

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"cludistream/internal/linalg"
)

func TestSuffStatsMeanCov(t *testing.T) {
	s := NewSuffStats(1)
	for _, x := range []float64{1, 2, 3, 4, 5} {
		s.Add(linalg.Vector{x}, 1)
	}
	if s.W != 5 {
		t.Fatalf("W = %v", s.W)
	}
	if got := s.Mean()[0]; math.Abs(got-3) > 1e-12 {
		t.Fatalf("mean = %v", got)
	}
	// Population variance of {1..5} = 2.
	if got := s.Cov(0).At(0, 0); math.Abs(got-2) > 1e-12 {
		t.Fatalf("var = %v", got)
	}
}

func TestSuffStatsWeighted(t *testing.T) {
	s := NewSuffStats(1)
	s.Add(linalg.Vector{0}, 3)
	s.Add(linalg.Vector{4}, 1)
	// mean = 4/4 = 1; var = (3·1 + 1·9)/4 = 3.
	if got := s.Mean()[0]; math.Abs(got-1) > 1e-12 {
		t.Fatalf("mean = %v", got)
	}
	if got := s.Cov(0).At(0, 0); math.Abs(got-3) > 1e-12 {
		t.Fatalf("var = %v", got)
	}
}

func TestSuffStatsMergeEquivalence(t *testing.T) {
	// Merging partial stats must equal accumulating everything directly.
	rng := rand.New(rand.NewSource(81))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b, all := NewSuffStats(3), NewSuffStats(3), NewSuffStats(3)
		for i := 0; i < 40; i++ {
			x := linalg.Vector{r.NormFloat64(), r.NormFloat64(), r.NormFloat64()}
			w := r.Float64() + 0.1
			if i%2 == 0 {
				a.Add(x, w)
			} else {
				b.Add(x, w)
			}
			all.Add(x, w)
		}
		a.Merge(b)
		return math.Abs(a.W-all.W) < 1e-9 &&
			a.Sum.Equal(all.Sum, 1e-9) &&
			a.Scatter.Equal(all.Scatter, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50, Rand: rng}); err != nil {
		t.Error(err)
	}
}

func TestSuffStatsResetClone(t *testing.T) {
	s := NewSuffStats(2)
	s.Add(linalg.Vector{1, 2}, 2)
	c := s.Clone()
	s.Reset()
	if s.W != 0 || s.Sum[0] != 0 || s.Scatter.At(0, 0) != 0 {
		t.Fatal("Reset did not zero stats")
	}
	if c.W != 2 || c.Sum[0] != 2 {
		t.Fatal("Clone affected by Reset")
	}
}

func TestSuffStatsEmptyMeanPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewSuffStats(1).Mean()
}

func TestSuffStatsCovFloor(t *testing.T) {
	s := NewSuffStats(2)
	s.Add(linalg.Vector{1, 1}, 1)
	s.Add(linalg.Vector{1, 2}, 1)
	cov := s.Cov(1e-3)
	if cov.At(0, 0) < 1e-3 {
		t.Fatalf("zero-variance attribute not floored: %v", cov.At(0, 0))
	}
	// Attribute 1 has real variance 0.25, untouched by the floor.
	if math.Abs(cov.At(1, 1)-0.25) > 1e-12 {
		t.Fatalf("var(attr1) = %v", cov.At(1, 1))
	}
}

func TestKMeansPlusPlusSpread(t *testing.T) {
	rng := rand.New(rand.NewSource(82))
	// Three tight blobs; k-means++ should pick one center per blob almost
	// always thanks to D² weighting.
	var data []linalg.Vector
	for _, c := range []float64{-100, 0, 100} {
		for i := 0; i < 50; i++ {
			data = append(data, linalg.Vector{c + rng.NormFloat64()})
		}
	}
	hits := 0
	const trials = 50
	for trial := 0; trial < trials; trial++ {
		centers := kMeansPlusPlus(data, 3, rng)
		var got [3]bool
		for _, c := range centers {
			switch {
			case c[0] < -50:
				got[0] = true
			case c[0] > 50:
				got[2] = true
			default:
				got[1] = true
			}
		}
		if got[0] && got[1] && got[2] {
			hits++
		}
	}
	if hits < trials*9/10 {
		t.Fatalf("k-means++ hit all blobs only %d/%d times", hits, trials)
	}
}

func TestKMeansPlusPlusAllIdentical(t *testing.T) {
	data := make([]linalg.Vector, 10)
	for i := range data {
		data[i] = linalg.Vector{7}
	}
	centers := kMeansPlusPlus(data, 3, rand.New(rand.NewSource(1)))
	if len(centers) != 3 {
		t.Fatalf("got %d centers", len(centers))
	}
	for _, c := range centers {
		if c[0] != 7 {
			t.Fatalf("center = %v", c)
		}
	}
}

func TestHardAssign(t *testing.T) {
	centers := []linalg.Vector{{0}, {10}}
	data := []linalg.Vector{{1}, {9}, {4.9}, {5.1}}
	got := hardAssign(data, centers)
	want := []int{0, 1, 0, 1}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("assign = %v", got)
		}
	}
}

// suffStatsBitIdentical reports whether two statistics are equal to the
// last bit: W, every Sum entry and every packed Scatter entry.
func suffStatsBitIdentical(a, b *SuffStats) bool {
	if math.Float64bits(a.W) != math.Float64bits(b.W) {
		return false
	}
	for i := range a.Sum {
		if math.Float64bits(a.Sum[i]) != math.Float64bits(b.Sum[i]) {
			return false
		}
	}
	ap, bp := a.Scatter.Packed(), b.Scatter.Packed()
	for i := range ap {
		if math.Float64bits(ap[i]) != math.Float64bits(bp[i]) {
			return false
		}
	}
	return true
}

// TestAddColumnMatchesAdd pins the E+M accumulation kernel to per-record
// Add, bit for bit, at every order from 1 to 8 (order 4 is the
// register-resident path): every column of a posterior tile, starting from
// non-zero statistics, with weights that are zero, negative, NaN,
// subnormal, near the ends of the float64 range and ordinary.
func TestAddColumnMatchesAdd(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	special := []float64{0, -0.5, math.NaN(), 5e-324, 2.5e-310, 1e300, 1e-300, 1}
	const n, k = 97, 5
	for d := 1; d <= 8; d++ {
		xs := make([]linalg.Vector, n)
		for p := range xs {
			xs[p] = linalg.NewVector(d)
			for i := range xs[p] {
				xs[p][i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(7)-3))
			}
		}
		post := make([]float64, n*k)
		for i := range post {
			if rng.Intn(3) == 0 {
				post[i] = special[rng.Intn(len(special))]
			} else {
				post[i] = rng.Float64()
			}
		}
		for col := 0; col < k; col++ {
			want, got := NewSuffStats(d), NewSuffStats(d)
			for _, s := range []*SuffStats{want, got} {
				s.Add(xs[col], 0.25+float64(col))
			}
			for p, x := range xs {
				if r := post[p*k+col]; r > 0 {
					want.Add(x, r)
				}
			}
			got.AddColumn(xs, post, k, col)
			if !suffStatsBitIdentical(got, want) {
				t.Fatalf("d=%d column %d: AddColumn differs from per-record Add:\ngot  %v %v %v\nwant %v %v %v",
					d, col, got.W, got.Sum, got.Scatter.Packed(), want.W, want.Sum, want.Scatter.Packed())
			}
		}
	}
}
