package em

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"cludistream/internal/gaussian"
	"cludistream/internal/linalg"
)

// parallelTestData samples a well-separated d-dimensional K-component
// mixture so EM has a meaningful fit to converge to.
func parallelTestData(n, k, d int, seed int64) []linalg.Vector {
	rng := rand.New(rand.NewSource(seed))
	comps := make([]*gaussian.Component, k)
	ws := make([]float64, k)
	for j := range comps {
		mean := linalg.NewVector(d)
		for i := range mean {
			mean[i] = rng.NormFloat64() * 8
		}
		comps[j] = gaussian.Spherical(mean, 1+rng.Float64())
		ws[j] = 1
	}
	return gaussian.MustMixture(ws, comps).SampleN(rng, n)
}

// mixturesBitIdentical reports whether two mixtures are equal to the last
// bit: weights, means, and covariances.
func mixturesBitIdentical(a, b *gaussian.Mixture) bool {
	if a.K() != b.K() || a.Dim() != b.Dim() {
		return false
	}
	for j := 0; j < a.K(); j++ {
		if math.Float64bits(a.Weight(j)) != math.Float64bits(b.Weight(j)) {
			return false
		}
		am, bm := a.Component(j).Mean(), b.Component(j).Mean()
		for i := range am {
			if math.Float64bits(am[i]) != math.Float64bits(bm[i]) {
				return false
			}
		}
		ac, bc := a.Component(j).Cov(), b.Component(j).Cov()
		for r := 0; r < a.Dim(); r++ {
			for c := 0; c <= r; c++ {
				if math.Float64bits(ac.At(r, c)) != math.Float64bits(bc.At(r, c)) {
					return false
				}
			}
		}
	}
	return true
}

// assertFitInvariant fits data once per GOMAXPROCS value in procs and
// fails unless every fit is bit-identical to the first: same iterations,
// convergence flag, average log-likelihood and mixture.
func assertFitInvariant(t *testing.T, data []linalg.Vector, procs []int) {
	t.Helper()
	old := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(old)
	var ref *Result
	for _, p := range procs {
		runtime.GOMAXPROCS(p)
		res, err := Fit(data, Config{K: 4, Seed: 5})
		if err != nil {
			t.Fatalf("GOMAXPROCS=%d: %v", p, err)
		}
		if ref == nil {
			ref = res
			continue
		}
		if res.Iterations != ref.Iterations || res.Converged != ref.Converged {
			t.Fatalf("GOMAXPROCS=%d: iterations/converged (%d,%v) != (%d,%v)",
				p, res.Iterations, res.Converged, ref.Iterations, ref.Converged)
		}
		if math.Float64bits(res.AvgLogLikelihood) != math.Float64bits(ref.AvgLogLikelihood) {
			t.Fatalf("GOMAXPROCS=%d: avgLL %v != %v", p, res.AvgLogLikelihood, ref.AvgLogLikelihood)
		}
		if !mixturesBitIdentical(res.Mixture, ref.Mixture) {
			t.Fatalf("GOMAXPROCS=%d: mixture differs from GOMAXPROCS=%d", p, procs[0])
		}
	}
}

// TestFitWorkerCountInvariant pins the parallel fused E+M pass to
// bit-identical results at every worker count: shard boundaries depend
// only on n and partial statistics reduce in fixed order, so cores must
// never change the fitted model. The pool is GOMAXPROCS wide, so the test
// first checks that each GOMAXPROCS value really yields that many workers.
func TestFitWorkerCountInvariant(t *testing.T) {
	data := parallelTestData(2000, 4, 8, 21)
	counts := []int{1, 2, 3, 8}
	old := runtime.GOMAXPROCS(0)
	for _, w := range counts {
		runtime.GOMAXPROCS(w)
		if got := newEWorkspace(len(data), len(data[0]), 4).workers; got != w {
			runtime.GOMAXPROCS(old)
			t.Fatalf("GOMAXPROCS=%d: E-step pool has %d workers, want %d", w, got, w)
		}
	}
	runtime.GOMAXPROCS(old)
	assertFitInvariant(t, data, counts)
}

// TestFitGOMAXPROCSInvariant repeats the invariance check on a second
// dataset under the runtime's own parallelism knob, which sizes the pool.
func TestFitGOMAXPROCSInvariant(t *testing.T) {
	assertFitInvariant(t, parallelTestData(1500, 4, 8, 22), []int{1, 2, 8})
}

// TestFitMatchesScalarSequential pins the batched/sharded Fit to the
// pre-batching scalar algorithm, replicated here point-at-a-time with
// PosteriorInto. With n ≤ one shard the fixed-order reduction degenerates
// to plain sequential accumulation, so the match must be bit-exact.
func TestFitMatchesScalarSequential(t *testing.T) {
	n := eShardSize - 6 // single shard
	data := parallelTestData(n, 3, 8, 23)
	cfg := Config{K: 3, Seed: 9}.withDefaults()

	res, err := Fit(data, cfg)
	if err != nil {
		t.Fatal(err)
	}

	// Reference: the scalar sequential EM loop (the seed repo's Fit body).
	rng := rand.New(rand.NewSource(cfg.Seed))
	mix, err := initialModel(data, cfg, rng)
	if err != nil {
		t.Fatal(err)
	}
	d := len(data[0])
	post := make([]float64, cfg.K)
	stats := make([]*SuffStats, cfg.K)
	for j := range stats {
		stats[j] = NewSuffStats(d)
	}
	prevAvgLL := math.Inf(-1)
	for iter := 0; iter < cfg.MaxIter; iter++ {
		for j := range stats {
			stats[j].Reset()
		}
		var sumLL float64
		for _, x := range data {
			sumLL += mix.PosteriorInto(x, post)
			for j := 0; j < cfg.K; j++ {
				if post[j] > 0 {
					stats[j].Add(x, post[j])
				}
			}
		}
		avgLL := sumLL / float64(n)
		mix, err = modelFromStats(stats, data, cfg, rng)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(avgLL-prevAvgLL) <= cfg.Tol {
			break
		}
		prevAvgLL = avgLL
	}

	if !mixturesBitIdentical(res.Mixture, mix) {
		t.Fatal("single-shard Fit is not bit-identical to the scalar sequential EM loop")
	}
}

// TestFitMultiShardCloseToScalar bounds the (expected, tiny) float
// reassociation between the sharded reduction and pure point-sequential
// accumulation on multi-shard inputs: same iteration count, parameters
// within 1e-9.
func TestFitMultiShardCloseToScalar(t *testing.T) {
	data := parallelTestData(4*eShardSize+17, 4, 6, 24)
	cfg := Config{K: 4, Seed: 3}.withDefaults()
	res, err := Fit(data, cfg)
	if err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(cfg.Seed))
	mix, err := initialModel(data, cfg, rng)
	if err != nil {
		t.Fatal(err)
	}
	post := make([]float64, cfg.K)
	stats := make([]*SuffStats, cfg.K)
	for j := range stats {
		stats[j] = NewSuffStats(len(data[0]))
	}
	prevAvgLL := math.Inf(-1)
	for iter := 0; iter < cfg.MaxIter; iter++ {
		for j := range stats {
			stats[j].Reset()
		}
		var sumLL float64
		for _, x := range data {
			sumLL += mix.PosteriorInto(x, post)
			for j := 0; j < cfg.K; j++ {
				if post[j] > 0 {
					stats[j].Add(x, post[j])
				}
			}
		}
		avgLL := sumLL / float64(len(data))
		mix, err = modelFromStats(stats, data, cfg, rng)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(avgLL-prevAvgLL) <= cfg.Tol {
			break
		}
		prevAvgLL = avgLL
	}

	if !res.Mixture.ApproxEqual(mix, 1e-9, 1e-9) {
		t.Fatal("multi-shard Fit drifted from the scalar sequential reference")
	}
}
