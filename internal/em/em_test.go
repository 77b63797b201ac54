package em

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"cludistream/internal/gaussian"
	"cludistream/internal/linalg"
)

// genMixtureData samples n points from the given means with unit-ish
// spherical noise, returning the data and the true mixture.
func genMixtureData(rng *rand.Rand, means []linalg.Vector, variance float64, n int) ([]linalg.Vector, *gaussian.Mixture) {
	comps := make([]*gaussian.Component, len(means))
	ws := make([]float64, len(means))
	for i, mu := range means {
		comps[i] = gaussian.Spherical(mu, variance)
		ws[i] = 1
	}
	mix := gaussian.MustMixture(ws, comps)
	return mix.SampleN(rng, n), mix
}

func TestFitRecoversWellSeparatedClusters(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	means := []linalg.Vector{{-10, 0}, {0, 10}, {10, 0}}
	data, _ := genMixtureData(rng, means, 1, 3000)
	res, err := Fit(data, Config{K: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Error("EM did not converge")
	}
	// Each true mean must be close to some fitted mean.
	for _, mu := range means {
		best := math.Inf(1)
		for j := 0; j < 3; j++ {
			if d := mu.DistSq(res.Mixture.Component(j).Mean()); d < best {
				best = d
			}
		}
		if best > 0.1 {
			t.Errorf("true mean %v not recovered (nearest dist² %v)", mu, best)
		}
	}
	// Weights roughly uniform.
	for _, w := range res.Mixture.Weights() {
		if w < 0.25 || w > 0.42 {
			t.Errorf("weight %v far from 1/3", w)
		}
	}
}

func TestFitMonotoneLikelihood(t *testing.T) {
	// The log likelihood of the model is non-decreasing at each iteration
	// [3]. We approximate the check by fitting with increasing MaxIter and
	// requiring the final avg LL to be non-decreasing (same seed = same
	// trajectory).
	rng := rand.New(rand.NewSource(72))
	means := []linalg.Vector{{-3}, {3}}
	data, _ := genMixtureData(rng, means, 1, 800)
	prev := math.Inf(-1)
	for iters := 1; iters <= 30; iters += 3 {
		res, err := Fit(data, Config{K: 2, Seed: 5, MaxIter: iters, Tol: 1e-15})
		if err != nil {
			t.Fatal(err)
		}
		ll := res.Mixture.AvgLogLikelihood(data)
		if ll < prev-1e-9 {
			t.Fatalf("avg LL decreased: %v -> %v at MaxIter=%d", prev, ll, iters)
		}
		prev = ll
	}
}

func TestFitDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	data, _ := genMixtureData(rng, []linalg.Vector{{-2}, {2}}, 1, 400)
	r1, err1 := Fit(data, Config{K: 2, Seed: 9})
	r2, err2 := Fit(data, Config{K: 2, Seed: 9})
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	for j := 0; j < 2; j++ {
		if !r1.Mixture.Component(j).Equal(r2.Mixture.Component(j), 0) {
			t.Fatal("same seed produced different models")
		}
	}
}

func TestFitBeatsSingleGaussianOnBimodal(t *testing.T) {
	rng := rand.New(rand.NewSource(74))
	data, _ := genMixtureData(rng, []linalg.Vector{{-5}, {5}}, 1, 1000)
	r2, err := Fit(data, Config{K: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	r1, err := Fit(data, Config{K: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if r2.AvgLogLikelihood <= r1.AvgLogLikelihood {
		t.Fatalf("K=2 LL %v should beat K=1 LL %v on bimodal data", r2.AvgLogLikelihood, r1.AvgLogLikelihood)
	}
}

func TestFitDiagCov(t *testing.T) {
	rng := rand.New(rand.NewSource(75))
	data, _ := genMixtureData(rng, []linalg.Vector{{-4, 0}, {4, 0}}, 1, 1000)
	res, err := Fit(data, Config{K: 2, Seed: 1, CovType: DiagCov})
	if err != nil {
		t.Fatal(err)
	}
	for j := 0; j < 2; j++ {
		cov := res.Mixture.Component(j).Cov()
		if math.Abs(cov.At(0, 1)) > 1e-12 {
			t.Fatalf("DiagCov produced off-diagonal %v", cov.At(0, 1))
		}
	}
}

func TestFitErrors(t *testing.T) {
	data := []linalg.Vector{{1}, {2}}
	if _, err := Fit(data, Config{K: 0}); err == nil {
		t.Error("K=0 should error")
	}
	if _, err := Fit(data, Config{K: 5}); err != ErrNotEnoughData {
		t.Errorf("too-few-records err = %v", err)
	}
	if _, err := Fit([]linalg.Vector{{1}, {2, 3}}, Config{K: 1}); err == nil {
		t.Error("ragged data should error")
	}
	if _, err := Fit([]linalg.Vector{{math.NaN()}, {1}}, Config{K: 1}); err == nil {
		t.Error("NaN data should error")
	}
}

// TestFitWarmStart seeds EM with a stale model, as a site's warm refit
// does when the stream has moved since that model was fitted, and checks
// that EM walks the means to the new data instead of staying put.
func TestFitWarmStart(t *testing.T) {
	rng := rand.New(rand.NewSource(76))
	data, _ := genMixtureData(rng, []linalg.Vector{{-6}, {6}}, 1, 600)
	stale := gaussian.MustMixture([]float64{1, 1}, []*gaussian.Component{
		gaussian.Spherical(linalg.Vector{-4}, 1), gaussian.Spherical(linalg.Vector{4}, 1)})
	res, err := Fit(data, Config{K: 2, Seed: 1, InitModel: stale})
	if err != nil {
		t.Fatal(err)
	}
	got := []float64{res.Mixture.Component(0).Mean()[0], res.Mixture.Component(1).Mean()[0]}
	sort.Float64s(got)
	if math.Abs(got[0]+6) > 0.3 || math.Abs(got[1]-6) > 0.3 {
		t.Fatalf("warm-started means = %v", got)
	}
}

func TestFitInitModelWarmStart(t *testing.T) {
	rng := rand.New(rand.NewSource(79))
	data, truth := genMixtureData(rng, []linalg.Vector{{-6}, {6}}, 1, 600)
	res, err := Fit(data, Config{K: 2, Seed: 1, InitModel: truth})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Error("warm-started EM did not converge")
	}
	// Starting at the truth, EM should converge in very few iterations.
	if res.Iterations > 10 {
		t.Errorf("warm start took %d iterations", res.Iterations)
	}
	// Mismatched InitModel must error.
	if _, err := Fit(data, Config{K: 3, Seed: 1, InitModel: truth}); err == nil {
		t.Error("K-mismatched InitModel accepted")
	}
}

func TestFitIdenticalPoints(t *testing.T) {
	// Degenerate data: all records identical. MinVar must keep Σ PD.
	data := make([]linalg.Vector, 50)
	for i := range data {
		data[i] = linalg.Vector{1, 2}
	}
	res, err := Fit(data, Config{K: 1, Seed: 1, MinVar: 1e-4})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Mixture.Component(0).Mean().Equal(linalg.Vector{1, 2}, 1e-9) {
		t.Fatalf("mean = %v", res.Mixture.Component(0).Mean())
	}
	if v := res.Mixture.Component(0).Cov().At(0, 0); v < 1e-4-1e-12 {
		t.Fatalf("variance %v below floor", v)
	}
}

func TestFitKEqualsN(t *testing.T) {
	data := []linalg.Vector{{0}, {5}, {10}}
	res, err := Fit(data, Config{K: 3, Seed: 2, MinVar: 1e-3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Mixture.K() != 3 {
		t.Fatalf("K = %d", res.Mixture.K())
	}
}

func TestFitStatsMatchesRawFit(t *testing.T) {
	// Feeding each record as its own block must reproduce raw EM closely.
	rng := rand.New(rand.NewSource(77))
	data, _ := genMixtureData(rng, []linalg.Vector{{-5}, {5}}, 1, 500)
	blocks := make([]*SuffStats, len(data))
	for i, x := range data {
		b := NewSuffStats(1)
		b.Add(x, 1)
		blocks[i] = b
	}
	raw, err := Fit(data, Config{K: 2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	blk, err := FitStats(blocks, Config{K: 2, Seed: 3, MinVar: 1e-4})
	if err != nil {
		t.Fatal(err)
	}
	// Same data partitioned per-record: models should agree on where the
	// two modes are (order may differ).
	rawMeans := []float64{raw.Mixture.Component(0).Mean()[0], raw.Mixture.Component(1).Mean()[0]}
	blkMeans := []float64{blk.Mixture.Component(0).Mean()[0], blk.Mixture.Component(1).Mean()[0]}
	sort.Float64s(rawMeans)
	sort.Float64s(blkMeans)
	for i := range rawMeans {
		if math.Abs(rawMeans[i]-blkMeans[i]) > 0.5 {
			t.Fatalf("block means %v vs raw %v", blkMeans, rawMeans)
		}
	}
}

func TestFitStatsAggregatedBlocks(t *testing.T) {
	// Pre-aggregated blocks (one per true cluster) must recover the modes.
	rng := rand.New(rand.NewSource(78))
	left := NewSuffStats(1)
	right := NewSuffStats(1)
	for i := 0; i < 500; i++ {
		left.Add(linalg.Vector{-5 + rng.NormFloat64()}, 1)
		right.Add(linalg.Vector{5 + rng.NormFloat64()}, 1)
	}
	res, err := FitStats([]*SuffStats{left, right}, Config{K: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	means := []float64{res.Mixture.Component(0).Mean()[0], res.Mixture.Component(1).Mean()[0]}
	sort.Float64s(means)
	if math.Abs(means[0]+5) > 0.3 || math.Abs(means[1]-5) > 0.3 {
		t.Fatalf("means = %v", means)
	}
}

func TestFitStatsErrors(t *testing.T) {
	if _, err := FitStats(nil, Config{K: 1}); err != ErrNotEnoughData {
		t.Errorf("err = %v", err)
	}
	empty := NewSuffStats(2)
	if _, err := FitStats([]*SuffStats{empty}, Config{K: 1}); err != ErrNotEnoughData {
		t.Errorf("all-empty err = %v", err)
	}
	if _, err := FitStats([]*SuffStats{empty}, Config{K: 0}); err == nil {
		t.Error("K=0 should error")
	}
}

func TestFitRelTol(t *testing.T) {
	rng := rand.New(rand.NewSource(81))
	// Overlapping clusters: absolute-tolerance EM grinds through a long
	// likelihood plateau that a relative stop cuts short.
	data, _ := genMixtureData(rng, []linalg.Vector{{-1.5}, {1.5}}, 1, 800)
	strict, err := Fit(data, Config{K: 2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	loose, err := Fit(data, Config{K: 2, Seed: 3, RelTol: 1e-4})
	if err != nil {
		t.Fatal(err)
	}
	if loose.Iterations > strict.Iterations {
		t.Fatalf("RelTol fit took %d iterations, absolute-only took %d",
			loose.Iterations, strict.Iterations)
	}
	if math.IsNaN(loose.AvgLogLikelihood) || math.IsInf(loose.AvgLogLikelihood, 0) {
		t.Fatalf("RelTol log-likelihood = %v", loose.AvgLogLikelihood)
	}
	// The early stop may shave only plateau iterations: the final
	// likelihoods must agree to well within the relative tolerance band.
	if rel := math.Abs(loose.AvgLogLikelihood-strict.AvgLogLikelihood) /
		math.Abs(strict.AvgLogLikelihood); rel > 1e-2 {
		t.Fatalf("RelTol changed log-likelihood by %v relative", rel)
	}
	// RelTol: 0 (the default) must leave fits bit-identical.
	again, err := Fit(data, Config{K: 2, Seed: 3, RelTol: 0})
	if err != nil {
		t.Fatal(err)
	}
	if again.Iterations != strict.Iterations ||
		again.AvgLogLikelihood != strict.AvgLogLikelihood {
		t.Fatal("RelTol=0 altered the fit")
	}
}

func TestFitRelTolFirstIteration(t *testing.T) {
	// prev log-likelihood starts at -Inf; |Inf delta| <= RelTol*Inf is true
	// in float math, so an unguarded relative test would declare
	// convergence after a single iteration. Even an absurd RelTol must run
	// at least two.
	rng := rand.New(rand.NewSource(82))
	data, _ := genMixtureData(rng, []linalg.Vector{{-5}, {5}}, 1, 400)
	res, err := Fit(data, Config{K: 2, Seed: 3, RelTol: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations < 2 {
		t.Fatalf("RelTol=1 converged after %d iteration(s)", res.Iterations)
	}
}

func TestFitInitModelDimMismatch(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	data, _ := genMixtureData(rng, []linalg.Vector{{-5}, {5}}, 1, 200)
	_, wrongDim := genMixtureData(rng, []linalg.Vector{{-5, 0}, {5, 0}}, 1, 4)
	if _, err := Fit(data, Config{K: 2, Seed: 1, InitModel: wrongDim}); err == nil {
		t.Error("dim-mismatched InitModel accepted")
	}
}

func TestFitInitModelNearSingular(t *testing.T) {
	// A warm-start seed may carry a collapsed component (e.g. an archived
	// model of a vanished regime). EM must reseed it from the data — the
	// dead-component path — and converge to a finite fit, never NaN.
	rng := rand.New(rand.NewSource(84))
	data, _ := genMixtureData(rng, []linalg.Vector{{-4}, {4}}, 1, 600)
	seed := gaussian.MustMixture(
		[]float64{0.5, 0.5},
		[]*gaussian.Component{
			gaussian.Spherical(linalg.Vector{-4}, 1),
			gaussian.Spherical(linalg.Vector{1000}, 1e-12), // collapsed, off-data
		})
	res, err := Fit(data, Config{K: 2, Seed: 1, InitModel: seed})
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(res.AvgLogLikelihood) || math.IsInf(res.AvgLogLikelihood, 0) {
		t.Fatalf("near-singular warm start log-likelihood = %v", res.AvgLogLikelihood)
	}
	for j := 0; j < res.Mixture.K(); j++ {
		c := res.Mixture.Component(j)
		for _, v := range c.Mean() {
			if math.IsNaN(v) {
				t.Fatalf("component %d mean has NaN: %v", j, c.Mean())
			}
		}
		if w := res.Mixture.Weight(j); math.IsNaN(w) || w <= 0 {
			t.Fatalf("component %d weight = %v", j, w)
		}
	}
}

// perComponentGlobalCovModel is modelFromStats as it was before the global
// covariance was shared: every dead component recomputes it with its own
// pass over data. deadMax records the most dead components one call saw.
func perComponentGlobalCovModel(deadMax *int) mStep {
	return func(stats []*SuffStats, data []linalg.Vector, cfg Config, rng *rand.Rand) (*gaussian.Mixture, error) {
		k := len(stats)
		var totalW float64
		for _, s := range stats {
			totalW += s.W
		}
		weights := make([]float64, k)
		comps := make([]*gaussian.Component, k)
		dead := 0
		for j, s := range stats {
			if s.W < 1e-9 {
				dead++
				mean := data[rng.Intn(len(data))].Clone()
				cov := globalCov(data, cfg.MinVar)
				c, err := gaussian.NewComponent(mean, cov, cfg.MinVar)
				if err != nil {
					return nil, err
				}
				comps[j] = c
				weights[j] = 1 / float64(len(data))
				continue
			}
			cov := s.Cov(cfg.MinVar)
			if cfg.CovType == DiagCov {
				cov = linalg.Diagonal(cov.Diag())
			}
			c, err := gaussian.NewComponent(s.Mean(), cov, cfg.MinVar)
			if err != nil {
				return nil, err
			}
			comps[j] = c
			weights[j] = s.W / totalW
		}
		*deadMax = max(*deadMax, dead)
		return gaussian.NewMixture(weights, comps)
	}
}

// TestFitSharedGlobalCovBitIdentical: K = 5 on data holding two distinct
// points leaves several components dead in one M-step. Computing the
// global covariance once for all of them must give the fit that
// recomputing it per dead component gave, bit for bit, with every rng draw
// in place.
func TestFitSharedGlobalCovBitIdentical(t *testing.T) {
	for _, d := range []int{2, 4} {
		data := make([]linalg.Vector, 60)
		for i := range data {
			data[i] = linalg.NewVector(d)
			if i%3 == 0 {
				data[i][0], data[i][d-1] = 4, -1.5
			}
		}
		cfg := Config{K: 5, Seed: 3}
		got, err := Fit(data, cfg)
		if err != nil {
			t.Fatal(err)
		}
		var deadMax int
		want, err := recordOuterFit(data, cfg, perComponentGlobalCovModel(&deadMax))
		if err != nil {
			t.Fatal(err)
		}
		if deadMax < 2 {
			t.Fatalf("d=%d: at most %d dead components in one M-step, want at least 2", d, deadMax)
		}
		resultsBitIdentical(t, fmt.Sprintf("d=%d", d), got, want)
	}
}
