package em

import (
	"fmt"
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

// resultsBitIdentical fails unless two fits agree to the last bit: same
// iterations, convergence flag, average log-likelihood and mixture.
func resultsBitIdentical(t *testing.T, what string, got, want *Result) {
	t.Helper()
	if got.Iterations != want.Iterations || got.Converged != want.Converged {
		t.Fatalf("%s: iterations/converged (%d,%v) != (%d,%v)",
			what, got.Iterations, got.Converged, want.Iterations, want.Converged)
	}
	if math.Float64bits(got.AvgLogLikelihood) != math.Float64bits(want.AvgLogLikelihood) {
		t.Fatalf("%s: avgLL %v != %v", what, got.AvgLogLikelihood, want.AvgLogLikelihood)
	}
	if !mixturesBitIdentical(got.Mixture, want.Mixture) {
		t.Fatalf("%s: mixture differs", what)
	}
}

// assertFitInvariant fits data with k components once per GOMAXPROCS
// value in procs and fails unless every fit is bit-identical to the first.
func assertFitInvariant(t *testing.T, data []linalg.Vector, k int, procs []int) {
	t.Helper()
	old := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(old)
	var ref *Result
	for _, p := range procs {
		runtime.GOMAXPROCS(p)
		res, err := Fit(data, Config{K: k, Seed: 5})
		if err != nil {
			t.Fatalf("GOMAXPROCS=%d: %v", p, err)
		}
		if ref == nil {
			ref = res
			continue
		}
		resultsBitIdentical(t, fmt.Sprintf("GOMAXPROCS=%d vs %d", p, procs[0]), res, ref)
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
	assertFitInvariant(t, data, 4, counts)
}

// TestFitGOMAXPROCSInvariant repeats the invariance check on more datasets
// under the runtime's own parallelism knob, which sizes the pool: one at
// d = 8 and one of the daemons' shape (d = 4, K = 5), which runs the
// order-4 register kernel.
func TestFitGOMAXPROCSInvariant(t *testing.T) {
	assertFitInvariant(t, parallelTestData(1500, 4, 8, 22), 4, []int{1, 2, 8})
	assertFitInvariant(t, parallelTestData(1567, 5, 4, 22), 5, []int{1, 2, 8})
}

// scalarPosterior writes Pr(j|x) (Eq. 2) into post and returns log p(x),
// one record at a time from Component.LogProb, log(w_j) and LogAdd: the
// scalar E-step the batched PosteriorBatch kernel replaced.
func scalarPosterior(mix *gaussian.Mixture, x linalg.Vector, post []float64) float64 {
	lse := math.Inf(-1)
	for j := range post {
		post[j] = math.Log(mix.Weight(j)) + mix.Component(j).LogProb(x)
		lse = gaussian.LogAdd(lse, post[j])
	}
	for j, lp := range post {
		if math.IsInf(lp, -1) {
			post[j] = 0
		} else {
			post[j] = math.Exp(lp - lse)
		}
	}
	return lse
}

// TestFitMatchesScalarSequential pins the batched/sharded Fit to the
// pre-batching scalar algorithm, replicated here point-at-a-time with
// scalarPosterior. With n ≤ one shard the fixed-order reduction degenerates
// to plain sequential accumulation, so the match must be bit-exact. It runs
// at d = 2, 8 and at d = 4, where the accumulation is the register kernel.
func TestFitMatchesScalarSequential(t *testing.T) {
	for _, d := range []int{2, 4, 8} {
		t.Run(fmt.Sprintf("d=%d", d), func(t *testing.T) { fitMatchesScalarSequential(t, d) })
	}
}

func fitMatchesScalarSequential(t *testing.T, d int) {
	n := eShardSize - 6 // single shard
	data := parallelTestData(n, 3, d, 23)
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
			sumLL += scalarPosterior(mix, x, post)
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
			sumLL += scalarPosterior(mix, x, post)
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

// mStep is modelFromStats's signature, so an oracle can swap in another
// M-step.
type mStep func([]*SuffStats, []linalg.Vector, Config, *rand.Rand) (*gaussian.Mixture, error)

// recordOuterFit is Fit with the fused E+M pass written the plain way:
// each fixed shard's posteriors from PosteriorBatch, its statistics
// accumulated record-outer (every component of one record before the next
// record) through Add, and the shards reduced in ascending order. It is the
// oracle the component-outer runShard must match bit for bit. mstep is the
// M-step it runs, initial model included.
func recordOuterFit(data []linalg.Vector, cfg Config, mstep mStep) (*Result, error) {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	d, k := len(data[0]), cfg.K
	mix := cfg.InitModel
	if mix == nil {
		centers := kMeansPlusPlus(data, k, rng)
		init := make([]*SuffStats, k)
		for j := range init {
			init[j] = NewSuffStats(d)
		}
		for i, j := range hardAssign(data, centers) {
			init[j].Add(data[i], 1)
		}
		var err error
		if mix, err = mstep(init, data, cfg, rng); err != nil {
			return nil, err
		}
	}
	stats := make([]*SuffStats, k)
	shard := make([]*SuffStats, k)
	for j := range stats {
		stats[j], shard[j] = NewSuffStats(d), NewSuffStats(d)
	}
	postM := linalg.NewMatrix(0, 0)
	scratch := gaussian.NewBatchScratch()
	prevAvgLL := math.Inf(-1)
	converged := false
	var iter int
	for iter = 0; iter < cfg.MaxIter; iter++ {
		for j := range stats {
			stats[j].Reset()
		}
		var sumLL float64
		for lo := 0; lo < len(data); lo += eShardSize {
			xs := data[lo:min(lo+eShardSize, len(data))]
			for j := range shard {
				shard[j].Reset()
			}
			sumLL += mix.PosteriorBatch(xs, postM, nil, scratch)
			post := postM.Data()
			for p, x := range xs {
				for j, r := range post[p*k : p*k+k] {
					if r > 0 {
						shard[j].Add(x, r)
					}
				}
			}
			for j := range stats {
				stats[j].Merge(shard[j])
			}
		}
		avgLL := sumLL / float64(len(data))
		var err error
		if mix, err = mstep(stats, data, cfg, rng); err != nil {
			return nil, err
		}
		if cfg.converged(avgLL, prevAvgLL) {
			converged = true
			iter++
			break
		}
		prevAvgLL = avgLL
	}
	return &Result{
		Mixture:          mix,
		AvgLogLikelihood: mix.AvgLogLikelihood(data),
		Iterations:       iter,
		Converged:        converged,
	}, nil
}

// TestFitMatchesRecordOuterDaemonShape pins Fit at the daemons' shape — d
// = 4, K = 5, a 1567-record chunk (seven shards) under the site's em.Config
// defaults — to the record-outer oracle, bit for bit, cold and warm-started
// from the cold fit of another chunk. This is the only em test that runs
// the order-4 register kernel over many shards and iterations.
func TestFitMatchesRecordOuterDaemonShape(t *testing.T) {
	for _, seed := range []int64{25, 26, 27} {
		data := parallelTestData(1567, 5, 4, seed)
		cold := Config{K: 5, Seed: seed}
		got, err := Fit(data, cold)
		if err != nil {
			t.Fatal(err)
		}
		want, err := recordOuterFit(data, cold, modelFromStats)
		if err != nil {
			t.Fatal(err)
		}
		resultsBitIdentical(t, fmt.Sprintf("seed %d cold", seed), got, want)

		next := parallelTestData(1567, 5, 4, seed+100)
		warm := Config{K: 5, Seed: seed, InitModel: got.Mixture, RelTol: 1e-4}
		got, err = Fit(next, warm)
		if err != nil {
			t.Fatal(err)
		}
		want, err = recordOuterFit(next, warm, modelFromStats)
		if err != nil {
			t.Fatal(err)
		}
		resultsBitIdentical(t, fmt.Sprintf("seed %d warm", seed), got, want)
	}
}
