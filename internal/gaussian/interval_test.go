package gaussian

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"cludistream/internal/linalg"
)

// randSepMixture builds a K-component mixture of spherical-ish Gaussians
// with means spread by sep, plus random weights.
func randSepMixture(rng *rand.Rand, k, d int, sep float64) *Mixture {
	comps := make([]*Component, k)
	weights := make([]float64, k)
	for j := 0; j < k; j++ {
		mean := linalg.NewVector(d)
		for i := range mean {
			mean[i] = rng.NormFloat64() * sep
		}
		cov := linalg.NewSym(d)
		for i := 0; i < d; i++ {
			cov.Set(i, i, 0.5+rng.Float64())
			for l := 0; l < i; l++ {
				cov.Set(i, l, 0.1*rng.NormFloat64())
			}
		}
		c, err := NewComponent(mean, cov, 0)
		if err != nil {
			c = Spherical(mean, 1)
		}
		comps[j] = c
		weights[j] = 0.2 + rng.Float64()
	}
	return MustMixture(weights, comps)
}

// intervalGuard is the decision slack the site keeps around the interval
// (1e-9 relative): the soundness properties below hold within it.
func intervalGuard(exact float64) float64 { return 1e-9 * (1 + math.Abs(exact)) }

// checkSound asserts the interval contract against the exact scan: lo
// never exceeds the exact average (no slack: float addition is monotone),
// hi is below it by at most the guard, and the interval is available
// exactly when the exact average is finite.
func checkSound(t *testing.T, what string, m *Mixture, data []linalg.Vector, s *BatchScratch) (lo, hi float64) {
	t.Helper()
	lo, hi, ok := m.AvgLogLikelihoodInterval(data, s)
	exact := m.AvgLogLikelihoodScratch(data, s)
	finite := !math.IsNaN(exact) && !math.IsInf(exact, 0)
	if ok != finite {
		t.Fatalf("%s: ok = %v for exact average %v", what, ok, exact)
	}
	if !ok {
		return lo, hi
	}
	if lo > exact || hi < exact-intervalGuard(exact) || hi < lo {
		t.Fatalf("%s: exact %v outside [%v, %v]", what, exact, lo, hi)
	}
	return lo, hi
}

// TestAvgLogLikelihoodIntervalSound is the seeded soundness property of
// the transcendental-free kernel: lo ≤ exact ≤ hi (within the guard) over
// K ∈ {1, 2, 5, 8, 16, 64} and d = 1..8, on records near the components,
// far from all of them and at ±1e150, with and without zero-weight
// components.
func TestAvgLogLikelihoodIntervalSound(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	s := NewBatchScratch()
	for _, k := range []int{1, 2, 5, 8, 16, 64} {
		for d := 1; d <= 8; d++ {
			for trial := 0; trial < 3; trial++ {
				sep := []float64{0.5, 3, 30}[trial]
				m := randSepMixture(rng, k, d, sep)
				if k > 2 && trial == 1 {
					w := m.Weights()
					w[0], w[k/2] = 0, 0
					m = MustMixture(w, m.comps)
				}
				near := m.SampleN(rng, 40+rng.Intn(200))
				checkSound(t, "near", m, near, s)

				far := make([]linalg.Vector, 0, 64)
				for i := 0; i < 64; i++ {
					x := linalg.NewVector(d)
					for a := range x {
						x[a] = rng.NormFloat64() * 40 * (1 + sep)
					}
					far = append(far, x)
				}
				checkSound(t, "far", m, far, s)

				huge := append([]linalg.Vector(nil), near[:8]...)
				for i := 0; i < 3; i++ {
					x := linalg.NewVector(d)
					for a := range x {
						x[a] = math.Copysign(1e150, rng.NormFloat64())
					}
					huge = append(huge, x)
				}
				checkSound(t, "±1e150", m, huge, s)
			}
		}
	}
}

// TestExpUpperBound pins the per-term bound: never below e^d, at most
// 6.15 % above it while the bound is not the 2⁻⁶⁰ floor, exact at the
// powers of two, and NaN-preserving.
func TestExpUpperBound(t *testing.T) {
	for i := 0; i <= 200000; i++ {
		d := -45 * float64(i) / 200000
		got, want := expUpper(d), math.Exp(d)
		if got < want*(1-1e-15) {
			t.Fatalf("expUpper(%v) = %v < e^d = %v", d, got, want)
		}
		if d*math.Log2E >= -60 && got > want*1.0615 {
			t.Fatalf("expUpper(%v) = %v overestimates e^d = %v by more than 6.15 %%", d, got, want)
		}
	}
	for n := 0; n <= 60; n++ {
		if got := expUpper(-float64(n) * math.Ln2); math.Abs(got-math.Ldexp(1, -n)) > 1e-14*math.Ldexp(1, -n) {
			t.Fatalf("expUpper(-%d·ln2) = %v, want 2^-%d", n, got, n)
		}
	}
	if got := expUpper(0); got != 1 {
		t.Fatalf("expUpper(0) = %v, want 1", got)
	}
	if got := expUpper(-1e300); got != 0x1p-60 {
		t.Fatalf("expUpper(-1e300) = %v, want 2^-60", got)
	}
	if got := expUpper(math.Inf(-1)); got != 0x1p-60 {
		t.Fatalf("expUpper(-Inf) = %v, want 2^-60", got)
	}
	if got := expUpper(math.NaN()); !math.IsNaN(got) {
		t.Fatalf("expUpper(NaN) = %v, want NaN", got)
	}
}

// TestAvgLogLikelihoodBoundsSound: the k-d-era entry point is the interval
// kernel whatever topM it is given, and so inherits its soundness.
func TestAvgLogLikelihoodBoundsSound(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	s := NewBatchScratch()
	for trial := 0; trial < 30; trial++ {
		k := 1 + rng.Intn(30)
		m := randSepMixture(rng, k, 1+rng.Intn(6), []float64{0.5, 2, 8, 30}[rng.Intn(4)])
		data := m.SampleN(rng, 50+rng.Intn(200))
		wantLo, wantHi, wantOK := m.AvgLogLikelihoodInterval(data, s)
		for _, topM := range []int{0, 1, 4, k, 100} {
			lo, hi, ok := m.AvgLogLikelihoodBounds(data, topM, s)
			if lo != wantLo || hi != wantHi || ok != wantOK {
				t.Fatalf("trial %d topM=%d: (%v, %v, %v), interval kernel gives (%v, %v, %v)",
					trial, topM, lo, hi, ok, wantLo, wantHi, wantOK)
			}
		}
		checkSound(t, "bounds", m, data, s)
	}
}

// TestAvgLogLikelihoodBoundsTight: on well-separated clusters every term
// but the row maximum is negligible, so the interval collapses to (near)
// the exact value. At K = 1 there is no other term: lo ≤ exact ≤ hi, and
// hi − lo is at most twice the rounding allowance of the division-free
// Mahalanobis kernel, linalg.QuadFormBoundRel·(|log-norm| + |log-density|)
// averaged over the records (every log-density is negative here).
func TestAvgLogLikelihoodBoundsTight(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	m := randSepMixture(rng, 16, 4, 50)
	data := m.SampleN(rng, 256)
	s := NewBatchScratch()
	lo, hi, ok := m.AvgLogLikelihoodInterval(data, s)
	if !ok {
		t.Fatal("interval unavailable")
	}
	if width := hi - lo; width > 1e-6 {
		t.Fatalf("interval width %v on well-separated clusters, want ~0", width)
	}
	exact := m.AvgLogLikelihoodScratch(data, s)
	if math.Abs(lo-exact) > 1e-6 {
		t.Fatalf("lo %v vs exact %v", lo, exact)
	}

	single := MustMixture([]float64{1}, []*Component{Spherical(linalg.Vector{0, 0}, 1)})
	pts := single.SampleN(rng, 300)
	lo, hi, ok = single.AvgLogLikelihoodInterval(pts, s)
	exact = single.AvgLogLikelihoodScratch(pts, s)
	allowance := linalg.QuadFormBoundRel*(math.Abs(single.comps[0].logNorm)+math.Abs(exact)) + linalg.QuadFormBoundAbs
	if !ok || lo > exact || exact > hi || hi-lo > 2*allowance*(1+0x1p-40) {
		t.Fatalf("K=1: [%v, %v] ok=%v around %v, want a width of at most 2×%v", lo, hi, ok, exact, allowance)
	}
}

// TestBoundsRefusals: inputs on which the interval must decline, sending
// the caller to the exact scan.
func TestBoundsRefusals(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	m := randSepMixture(rng, 4, 2, 5)
	data := m.SampleN(rng, 200)
	s := NewBatchScratch()
	if _, _, ok := m.AvgLogLikelihoodInterval(nil, s); ok {
		t.Error("empty data accepted")
	}
	for _, at := range []int{0, 1, 130, 199} {
		bad := append([]linalg.Vector(nil), data...)
		bad[at] = linalg.Vector{data[at][0], math.NaN()}
		if _, _, ok := m.AvgLogLikelihoodInterval(bad, s); ok {
			t.Errorf("NaN record at %d accepted", at)
		}
	}
	// So far from every component that each term underflows to −Inf: the
	// average is not finite.
	far := append([]linalg.Vector(nil), data...)
	far[7] = linalg.Vector{1e200, -1e200}
	if _, _, ok := m.AvgLogLikelihoodInterval(far, s); ok {
		t.Error("non-finite average accepted")
	}
}

// TestZeroWeightComponentsSkipped: zero-weight components carry no mass in
// the exact path; their −Inf terms must leave the interval sound.
func TestZeroWeightComponentsSkipped(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	base := randSepMixture(rng, 8, 3, 20)
	weights := base.Weights()
	weights[2], weights[5] = 0, 0
	m := MustMixture(weights, base.comps)
	checkSound(t, "zero weights", m, m.SampleN(rng, 128), NewBatchScratch())
}

// TestAvgLogLikelihoodMultiMatchesPerModel pins the fused multi-model scan
// bit-identical to scoring each mixture separately.
func TestAvgLogLikelihoodMultiMatchesPerModel(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	var ms []*Mixture
	for i := 0; i < 5; i++ {
		ms = append(ms, randSepMixture(rng, 2+rng.Intn(12), 3, 6))
	}
	data := ms[0].SampleN(rng, 300)
	s := NewBatchScratch()
	got := make([]float64, len(ms))
	AvgLogLikelihoodMulti(ms, data, got, s)
	for i, m := range ms {
		want := m.AvgLogLikelihoodScratch(data, NewBatchScratch())
		if got[i] != want {
			t.Fatalf("model %d: fused %v != separate %v", i, got[i], want)
		}
	}
	// Empty data zeroes the destinations.
	AvgLogLikelihoodMulti(ms, nil, got, s)
	for i, v := range got {
		if v != 0 {
			t.Fatalf("empty data: dst[%d] = %v", i, v)
		}
	}
}

// TestIntervalConcurrentScoring scores one mixture from many goroutines,
// each with its own scratch (and some through the pool): the kernel only
// reads the immutable mixture, so under -race (make race-score) every
// goroutine must see the serial interval bit for bit.
func TestIntervalConcurrentScoring(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	m := randSepMixture(rng, 24, 4, 10)
	data := m.SampleN(rng, 200)
	wantLo, wantHi, _ := m.AvgLogLikelihoodInterval(data, nil)
	var wg sync.WaitGroup
	errs := make(chan string, 16)
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var s *BatchScratch
			if g%2 == 0 {
				s = NewBatchScratch()
			}
			for iter := 0; iter < 20; iter++ {
				lo, hi, ok := m.AvgLogLikelihoodInterval(data, s)
				if !ok || lo != wantLo || hi != wantHi {
					errs <- "concurrent interval differs from the serial one"
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}

// TestBoundsAllocFree: the interval kernel with a warmed scratch must not
// allocate (the site's zero-alloc ingest gate rides on this).
func TestBoundsAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	m := randSepMixture(rng, 16, 4, 10)
	data := m.SampleN(rng, 64)
	s := NewBatchScratch()
	m.AvgLogLikelihoodInterval(data, s) // warm the buffers
	allocs := testing.AllocsPerRun(50, func() {
		m.AvgLogLikelihoodInterval(data, s)
	})
	if allocs != 0 {
		t.Fatalf("interval scoring allocated %.1f times per chunk, want 0", allocs)
	}
}
