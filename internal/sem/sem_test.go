package sem

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"cludistream/internal/em"
	"cludistream/internal/gaussian"
	"cludistream/internal/linalg"
)

func bimodalStream(rng *rand.Rand, n int) []linalg.Vector {
	mix := gaussian.MustMixture(
		[]float64{0.5, 0.5},
		[]*gaussian.Component{
			gaussian.Spherical(linalg.Vector{-5}, 1),
			gaussian.Spherical(linalg.Vector{5}, 1),
		})
	return mix.SampleN(rng, n)
}

// ObserveAll consumes a batch.
func (s *SEM) ObserveAll(xs []linalg.Vector) error {
	for _, x := range xs {
		if err := s.Observe(x); err != nil {
			return err
		}
	}
	return nil
}

// ObserveAll consumes a batch.
func (s *SamplingEM) ObserveAll(xs []linalg.Vector) {
	for _, x := range xs {
		s.Observe(x)
	}
}

// BufferedRecords returns the current retained-set size.
func (s *SEM) BufferedRecords() int { return len(s.buffer) }

// CompressedWeight returns the total mass held in discard sets.
func (s *SEM) CompressedWeight() float64 {
	var w float64
	for _, d := range s.discard {
		w += d.W
	}
	return w
}

func TestSEMRecoversStationaryMixture(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	s, err := New(Config{K: 2, Dim: 1, BufferSize: 500, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.ObserveAll(bimodalStream(rng, 5000)); err != nil {
		t.Fatal(err)
	}
	m := s.Model()
	if m == nil {
		t.Fatal("no model after 5000 records")
	}
	means := []float64{m.Component(0).Mean()[0], m.Component(1).Mean()[0]}
	sort.Float64s(means)
	if math.Abs(means[0]+5) > 0.5 || math.Abs(means[1]-5) > 0.5 {
		t.Fatalf("means = %v, want ±5", means)
	}
}

func TestSEMBoundedMemory(t *testing.T) {
	rng := rand.New(rand.NewSource(92))
	s, err := New(Config{K: 2, Dim: 1, BufferSize: 300, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.ObserveAll(bimodalStream(rng, 10000)); err != nil {
		t.Fatal(err)
	}
	if s.BufferedRecords() >= 2*300 {
		t.Fatalf("buffer grew unbounded: %d", s.BufferedRecords())
	}
	// Compressed + buffered must account for all mass.
	total := s.CompressedWeight() + float64(s.BufferedRecords())
	if math.Abs(total-10000) > 1e-6 {
		t.Fatalf("mass accounting: compressed %v + buffered %d != 10000", s.CompressedWeight(), s.BufferedRecords())
	}
}

func TestSEMCompressionActuallyCompresses(t *testing.T) {
	rng := rand.New(rand.NewSource(93))
	s, _ := New(Config{K: 2, Dim: 1, BufferSize: 400, Seed: 1})
	if err := s.ObserveAll(bimodalStream(rng, 4000)); err != nil {
		t.Fatal(err)
	}
	if s.CompressedWeight() < 2000 {
		t.Fatalf("compressed only %v of 4000 records", s.CompressedWeight())
	}
	if s.Refits() == 0 {
		t.Fatal("no refits happened")
	}
}

// TestSEMCompressionRadiusIsDim pins the primary-compression boundary at a
// squared Mahalanobis distance of d from the owning component: one buffered
// record 2 % inside it is folded into the discard set, one 2 % outside it is
// retained. With K = 1 the fitted component is the buffer's own mean and
// covariance, so the probes are placed by solving a²/((S + 2a²)/n) = t for
// the share S of the axis' spread that the rest of the buffer holds.
func TestSEMCompressionRadiusIsDim(t *testing.T) {
	const d, n = 2, 200
	var bulk []linalg.Vector
	for i := 0; len(bulk) < n-4; i++ {
		u := 0.2 + 0.05*float64(i%25)
		for _, sx := range []float64{-1, 1} {
			for _, sy := range []float64{-1, 1} {
				bulk = append(bulk, linalg.Vector{sx * u, sy * u})
			}
		}
	}
	var sxx, syy float64
	for _, x := range bulk {
		sxx += x[0] * x[0]
		syy += x[1] * x[1]
	}
	probe := func(spread, share float64) float64 {
		tgt := share * d
		return math.Sqrt(tgt * spread / (n - 2*tgt))
	}
	a, b := probe(sxx, 0.98), probe(syy, 1.02)
	inside, outside := linalg.Vector{a, 0}, linalg.Vector{0, b}
	records := append(bulk, inside, linalg.Vector{-a, 0}, outside, linalg.Vector{0, -b})

	s, err := New(Config{K: 1, Dim: d, BufferSize: n, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.ObserveAll(records); err != nil {
		t.Fatal(err)
	}
	if s.Refits() != 1 {
		t.Fatalf("%d refits, want 1", s.Refits())
	}
	comp := s.Model().Component(0)
	if m := comp.MahalanobisSq(inside); m <= 0.97*d || m > d {
		t.Fatalf("inner probe at squared distance %v, want just under %d", m, d)
	}
	if m := comp.MahalanobisSq(outside); m <= d || m > 1.03*d {
		t.Fatalf("outer probe at squared distance %v, want just over %d", m, d)
	}
	buffered := func(x linalg.Vector) bool {
		for _, r := range s.buffer {
			if r.Equal(x, 0) {
				return true
			}
		}
		return false
	}
	if buffered(inside) {
		t.Error("record inside the radius was retained")
	}
	if !buffered(outside) {
		t.Error("record outside the radius was folded into the discard set")
	}
	if got := s.CompressedWeight() + float64(s.BufferedRecords()); got != n {
		t.Fatalf("discard + buffer hold %v records, want %d", got, n)
	}
}

func TestSEMDimValidation(t *testing.T) {
	s, _ := New(Config{K: 1, Dim: 2, Seed: 1})
	if err := s.Observe(linalg.Vector{1}); err == nil {
		t.Fatal("wrong-dim record accepted")
	}
	if _, err := New(Config{K: 0, Dim: 1}); err == nil {
		t.Fatal("K=0 accepted")
	}
	if _, err := New(Config{K: 1, Dim: 0}); err == nil {
		t.Fatal("Dim=0 accepted")
	}
}

func TestSEMModelOnPartialBuffer(t *testing.T) {
	rng := rand.New(rand.NewSource(95))
	s, _ := New(Config{K: 2, Dim: 1, BufferSize: 10000, Seed: 1})
	_ = s.ObserveAll(bimodalStream(rng, 200))
	// Buffer not full yet: Model must still fit on demand.
	if s.Model() == nil {
		t.Fatal("no on-demand model from partial buffer")
	}
}

func TestSEMMemoryBytesGrowsSlowly(t *testing.T) {
	rng := rand.New(rand.NewSource(96))
	s, _ := New(Config{K: 5, Dim: 4, BufferSize: 500, Seed: 1})
	mix := gaussian.MustMixture(
		[]float64{1, 1},
		[]*gaussian.Component{
			gaussian.Spherical(linalg.Vector{-3, 0, 0, 0}, 1),
			gaussian.Spherical(linalg.Vector{3, 0, 0, 0}, 1),
		})
	_ = s.ObserveAll(mix.SampleN(rng, 2000))
	m1 := s.MemoryBytes()
	_ = s.ObserveAll(mix.SampleN(rng, 8000))
	m2 := s.MemoryBytes()
	// 5x the data should cost far less than 5x the memory.
	if m2 > 3*m1 {
		t.Fatalf("memory scaled with stream: %d -> %d", m1, m2)
	}
}

func TestSEMSingleRegimeDriftHurtsQuality(t *testing.T) {
	// The core weakness Figure 5 exposes: when the distribution changes,
	// SEM fits one model across regimes. Its likelihood on the most recent
	// regime must be worse than a fresh EM fit on that regime alone.
	rng := rand.New(rand.NewSource(97))
	regime1 := gaussian.Spherical(linalg.Vector{-8}, 1)
	regime2 := gaussian.Spherical(linalg.Vector{8}, 1)
	s, _ := New(Config{K: 1, Dim: 1, BufferSize: 400, Seed: 1})
	var recent []linalg.Vector
	for i := 0; i < 3000; i++ {
		_ = s.Observe(regime1.Sample(rng))
	}
	for i := 0; i < 3000; i++ {
		x := regime2.Sample(rng)
		_ = s.Observe(x)
		if i >= 2000 {
			recent = append(recent, x)
		}
	}
	semLL := s.Model().AvgLogLikelihood(recent)
	fresh, err := em.Fit(recent, em.Config{K: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	freshLL := fresh.Mixture.AvgLogLikelihood(recent)
	if semLL >= freshLL {
		t.Fatalf("SEM LL %v should trail fresh fit %v after regime change", semLL, freshLL)
	}
}

func TestSamplingEMReservoirUniform(t *testing.T) {
	// Feed 0..9999; reservoir of 1000 should hold a roughly uniform sample.
	s, err := NewSamplingEM(1000, em.Config{K: 2}, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10000; i++ {
		s.Observe(linalg.Vector{float64(i)})
	}
	if len(s.reservoir) != 1000 {
		t.Fatalf("reservoir size = %d", len(s.reservoir))
	}
	var mean float64
	for _, x := range s.reservoir {
		mean += x[0]
	}
	mean /= 1000
	if math.Abs(mean-5000) > 300 {
		t.Fatalf("reservoir mean = %v, want ≈5000", mean)
	}
}

func TestSamplingEMModelCaching(t *testing.T) {
	rng := rand.New(rand.NewSource(98))
	s, _ := NewSamplingEM(500, em.Config{K: 2, Seed: 1}, 2)
	s.ObserveAll(bimodalStream(rng, 2000))
	m1 := s.Model()
	m2 := s.Model()
	if m1 != m2 {
		t.Fatal("Model not cached between observations")
	}
	s.Observe(linalg.Vector{0})
	if s.Model() == m1 {
		t.Fatal("Model cache not invalidated by Observe")
	}
}

func TestSamplingEMTooSmallCapacity(t *testing.T) {
	if _, err := NewSamplingEM(1, em.Config{K: 5}, 1); err == nil {
		t.Fatal("capacity < K accepted")
	}
}

func TestSamplingEMLosesRareRegime(t *testing.T) {
	// A short-lived regime early in the stream gets crowded out of the
	// reservoir — the information-loss failure mode of Figure 6.
	rng := rand.New(rand.NewSource(99))
	rare := gaussian.Spherical(linalg.Vector{100}, 1)
	common := gaussian.Spherical(linalg.Vector{0}, 1)
	s, _ := NewSamplingEM(200, em.Config{K: 2, Seed: 1}, 3)
	for i := 0; i < 300; i++ {
		s.Observe(rare.Sample(rng))
	}
	for i := 0; i < 60000; i++ {
		s.Observe(common.Sample(rng))
	}
	var rareInReservoir int
	for _, x := range s.reservoir {
		if x[0] > 50 {
			rareInReservoir++
		}
	}
	if rareInReservoir > 10 {
		t.Fatalf("rare regime still dominates reservoir: %d/200", rareInReservoir)
	}
}
