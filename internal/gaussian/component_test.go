package gaussian

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"cludistream/internal/linalg"
)

func TestComponentStandardNormalDensity(t *testing.T) {
	c := Spherical(linalg.Vector{0}, 1)
	// φ(0) = 1/sqrt(2π)
	want := 1 / math.Sqrt(2*math.Pi)
	if got := prob(c, linalg.Vector{0}); math.Abs(got-want) > 1e-12 {
		t.Fatalf("φ(0) = %v, want %v", got, want)
	}
	// φ(1) = exp(-1/2)/sqrt(2π)
	want1 := math.Exp(-0.5) / math.Sqrt(2*math.Pi)
	if got := prob(c, linalg.Vector{1}); math.Abs(got-want1) > 1e-12 {
		t.Fatalf("φ(1) = %v, want %v", got, want1)
	}
}

func TestComponentMultivariateDensity(t *testing.T) {
	// 2-d with Σ = diag(4, 9): density at μ is 1/(2π·sqrt(36)).
	cov := linalg.Diagonal(linalg.Vector{4, 9})
	c := MustComponent(linalg.Vector{1, 2}, cov)
	want := 1 / (2 * math.Pi * 6)
	if got := prob(c, linalg.Vector{1, 2}); math.Abs(got-want) > 1e-12 {
		t.Fatalf("p(μ) = %v, want %v", got, want)
	}
}

func TestComponentMahalanobis(t *testing.T) {
	cov := linalg.Diagonal(linalg.Vector{4, 1})
	c := MustComponent(linalg.Vector{0, 0}, cov)
	// (2,0): 2²/4 = 1. (0,2): 2²/1 = 4.
	if got := c.MahalanobisSq(linalg.Vector{2, 0}); math.Abs(got-1) > 1e-12 {
		t.Fatalf("maha = %v, want 1", got)
	}
	if got := c.MahalanobisSq(linalg.Vector{0, 2}); math.Abs(got-4) > 1e-12 {
		t.Fatalf("maha = %v, want 4", got)
	}
}

// TestComponentLogProbScratchMatches pins Component.LogProb, the scalar
// primitive other packages' oracles build on, to the scratch-vector form of
// the gaussian oracle, bit for bit.
func TestComponentLogProbScratchMatches(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	c := randComponent(rng, 5)
	diff := linalg.NewVector(5)
	half := linalg.NewVector(5)
	for i := 0; i < 50; i++ {
		x := randVec(rng, 5)
		a := c.LogProb(x)
		b := oracleLogProb(c, x, diff, half)
		if math.Float64bits(a) != math.Float64bits(b) {
			t.Fatalf("oracleLogProb = %v, LogProb = %v", b, a)
		}
	}
}

func TestComponentDimMismatch(t *testing.T) {
	if _, err := NewComponent(linalg.Vector{0, 0}, linalg.Identity(3), 0); err == nil {
		t.Fatal("expected dimension mismatch error")
	}
}

func TestComponentRejectsNonFinite(t *testing.T) {
	if _, err := NewComponent(linalg.Vector{math.NaN()}, linalg.Identity(1), 0); err == nil {
		t.Fatal("NaN mean accepted")
	}
	if _, err := NewComponent(linalg.Vector{math.Inf(1)}, linalg.Identity(1), 0); err == nil {
		t.Fatal("Inf mean accepted")
	}
	badCov := linalg.NewSym(1)
	badCov.Set(0, 0, math.NaN())
	if _, err := NewComponent(linalg.Vector{0}, badCov, 0); err == nil {
		t.Fatal("NaN covariance accepted")
	}
}

func TestComponentSingularRepaired(t *testing.T) {
	// Rank-deficient covariance: identical attributes.
	cov := linalg.NewSymFrom(2, []float64{1, 1, 1, 1})
	c, err := NewComponent(linalg.Vector{0, 0}, cov, 1e-6)
	if err != nil {
		t.Fatalf("repair failed: %v", err)
	}
	if lp := c.LogProb(linalg.Vector{0, 0}); math.IsNaN(lp) || math.IsInf(lp, 0) {
		t.Fatalf("density at mean not finite: %v", lp)
	}
}

func TestComponentSampleMoments(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	mean := linalg.Vector{1, -2}
	cov := linalg.NewSymFrom(2, []float64{2, 0.8, 0.8, 1})
	c := MustComponent(mean, cov)
	const n = 60000
	sm := linalg.NewVector(2)
	sc := linalg.NewSym(2)
	xs := make([]linalg.Vector, n)
	for i := 0; i < n; i++ {
		x := c.Sample(rng)
		xs[i] = x
		sm.AddInPlace(x)
	}
	sm.ScaleInPlace(1 / float64(n))
	for _, x := range xs {
		d := x.Sub(sm)
		sc.AddOuterScaled(1/float64(n), d)
	}
	if !sm.Equal(mean, 0.03) {
		t.Fatalf("sample mean = %v", sm)
	}
	if !sc.Equal(cov, 0.05) {
		t.Fatalf("sample cov = %v vs %v", sc.Diag(), cov.Diag())
	}
}

// Property: log-density is maximized at the mean.
func TestComponentDensityPeakAtMean(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	f := func(n uint8) bool {
		d := int(n%6) + 1
		c := randComponent(rng, d)
		peak := c.LogProb(c.Mean())
		for trial := 0; trial < 10; trial++ {
			if c.LogProb(randVec(rng, d)) > peak+1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: 1-d density integrates to ~1 (trapezoid over ±8σ).
func TestComponentDensityIntegratesToOne(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	for trial := 0; trial < 10; trial++ {
		mu := rng.NormFloat64() * 3
		sig2 := 0.2 + rng.Float64()*3
		c := MustComponent(linalg.Vector{mu}, linalg.Diagonal(linalg.Vector{sig2}))
		sigma := math.Sqrt(sig2)
		const steps = 4000
		lo, hi := mu-8*sigma, mu+8*sigma
		h := (hi - lo) / steps
		var integral float64
		for i := 0; i <= steps; i++ {
			x := lo + float64(i)*h
			wgt := 1.0
			if i == 0 || i == steps {
				wgt = 0.5
			}
			integral += wgt * prob(c, linalg.Vector{x})
		}
		integral *= h
		if math.Abs(integral-1) > 1e-6 {
			t.Fatalf("∫φ = %v (μ=%v σ²=%v)", integral, mu, sig2)
		}
	}
}

func TestComponentCovInverse(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	c := randComponent(rng, 4)
	inv := c.CovInverse()
	// Σ·Σ⁻¹ ≈ I.
	for j := 0; j < 4; j++ {
		col := linalg.NewVector(4)
		for i := 0; i < 4; i++ {
			col[i] = inv.At(i, j)
		}
		prod := c.Cov().MulVec(col)
		for i := 0; i < 4; i++ {
			want := 0.0
			if i == j {
				want = 1
			}
			if math.Abs(prod[i]-want) > 1e-8 {
				t.Fatalf("Σ·Σ⁻¹[%d][%d] = %v", i, j, prod[i])
			}
		}
	}
	if c.CovInverse() != inv {
		t.Error("CovInverse not cached")
	}
}

func randVec(rng *rand.Rand, d int) linalg.Vector {
	v := linalg.NewVector(d)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	return v
}

// prob is the density p(x | c).
func prob(c *Component, x linalg.Vector) float64 { return math.Exp(c.LogProb(x)) }

func randComponent(rng *rand.Rand, d int) *Component {
	mean := randVec(rng, d)
	cov := linalg.NewSym(d)
	for k := 0; k < d+2; k++ {
		cov.AddOuterScaled(1, randVec(rng, d))
	}
	for i := 0; i < d; i++ {
		cov.Add(i, i, 0.3)
	}
	return MustComponent(mean, cov)
}

// TestSampleIntoGolden pins the bits SampleInto produces for a seeded
// source: internal/stream's generators and every seeded figure draw their
// records through it, so neither the order in which it consumes the source
// nor the arithmetic of x = μ + L·z may move.
func TestSampleIntoGolden(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	c := randComponent(rng, 3)
	want := [][3]uint64{
		{0xbf8ccd27b153e840, 0x3feb7195a0c57cc4, 0x400298799c39e038},
		{0xc0109c831d37fe86, 0x3fc5730d9abbd0c0, 0x3ff9298fba3fbb08},
	}
	x := linalg.NewVector(3)
	for s, w := range want {
		c.SampleInto(rng, x)
		for i := range x {
			if got := math.Float64bits(x[i]); got != w[i] {
				t.Errorf("sample %d coordinate %d = %#x, want %#x", s, i, got, w[i])
			}
		}
	}
	// The source must stand where d draws per sample leave it.
	if got, want := rng.Int63(), int64(3851710337549677703); got != want {
		t.Errorf("next Int63 after two samples = %d, want %d", got, want)
	}
}
