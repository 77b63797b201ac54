package em

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"cludistream/internal/gaussian"
	"cludistream/internal/linalg"
	"cludistream/internal/telemetry"
)

// CovType selects the covariance structure EM estimates.
type CovType int

const (
	// FullCov estimates a full d×d covariance per component.
	FullCov CovType = iota
	// DiagCov estimates a diagonal covariance per component — the memory
	// optimization Theorem 3 mentions ("for diagonal Gaussians, the
	// covariance can be represented by a d-dimensional vector").
	DiagCov
)

func (c CovType) String() string {
	if c == DiagCov {
		return "diag"
	}
	return "full"
}

// Config parameterizes a Fit run. The zero value is not usable: K must be
// at least 1. Defaults are filled in by (*Config).withDefaults.
type Config struct {
	// K is the number of mixture components (the paper's K, default 5).
	K int
	// MaxIter caps EM iterations (default 100).
	MaxIter int
	// Tol is ϖ, the paper's convergence threshold on the change in average
	// log-likelihood between consecutive iterations (default 1e-4). The
	// paper applies ϖ to the total log-likelihood; we use the average so
	// the same tolerance works across chunk sizes.
	Tol float64
	// RelTol, when positive, adds a relative convergence test alongside the
	// absolute one: EM also stops once |avgLL − prev| ≤ RelTol·|prev| (prev
	// finite). Warm-started refits sit close to a mode from iteration 0,
	// where the absolute Tol can be needlessly strict on streams whose
	// log-likelihood scale is large; the relative test ends those runs as
	// soon as the improvement is negligible at the likelihood's own scale.
	// Zero (the default) disables it, keeping pre-existing fits bit-identical.
	RelTol float64
	// CovType selects full or diagonal covariances.
	CovType CovType
	// MinVar floors every covariance diagonal (default 1e-6).
	MinVar float64
	// Seed drives initialization. The same seed and data give bitwise
	// identical results.
	Seed int64
	// InitModel optionally warm-starts EM from a full existing mixture
	// (weights, means and covariances); k-means++ is then skipped.
	// This is how SEM continues from its current model on every refit.
	InitModel *gaussian.Mixture
	// Telemetry, when non-nil, receives per-fit counters (runs, iteration
	// totals, convergence outcomes) and an "em-fit" journal event with the
	// final average log-likelihood. Purely observational: it reads values
	// the fit computed anyway and never touches the rng, so fitted
	// mixtures are bit-identical with or without it.
	Telemetry *telemetry.Registry
	// TraceID and TraceParent attach the fit to a chunk's causal trace
	// (see internal/telemetry tracing): when Telemetry has tracing enabled
	// and TraceID is non-zero, Fit records an "em" span under TraceParent
	// carrying the iteration count. Zeros (the default) record nothing.
	TraceID     uint64
	TraceParent uint64
}

// converged reports whether the change from prev to avgLL satisfies the
// absolute Tol or, when RelTol is set and prev is finite, the relative test.
func (c Config) converged(avgLL, prev float64) bool {
	delta := math.Abs(avgLL - prev)
	if delta <= c.Tol {
		return true
	}
	return c.RelTol > 0 && !math.IsInf(prev, 0) && delta <= c.RelTol*math.Abs(prev)
}

func (c Config) withDefaults() Config {
	if c.MaxIter <= 0 {
		c.MaxIter = 100
	}
	if c.Tol <= 0 {
		c.Tol = 1e-4
	}
	if c.MinVar <= 0 {
		c.MinVar = 1e-6
	}
	return c
}

// Result is the outcome of an EM fit.
type Result struct {
	Mixture *gaussian.Mixture
	// AvgLogLikelihood is Definition 1 evaluated on the training data under
	// the final model — the Avg_Pr0 that the site's J_fit test compares
	// future chunks against.
	AvgLogLikelihood float64
	Iterations       int
	Converged        bool
}

// ErrNotEnoughData is returned when there are fewer records than
// components.
var ErrNotEnoughData = errors.New("em: fewer records than components")

// Fit runs the Gaussian-mixture EM algorithm of Section 3.2 on data.
func Fit(data []linalg.Vector, cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	if cfg.K < 1 {
		return nil, fmt.Errorf("em: K = %d, need at least 1", cfg.K)
	}
	n := len(data)
	if n < cfg.K {
		return nil, ErrNotEnoughData
	}
	d := len(data[0])
	for i, x := range data {
		if len(x) != d {
			return nil, fmt.Errorf("em: record %d has dim %d, want %d", i, len(x), d)
		}
		if !x.IsFinite() {
			return nil, fmt.Errorf("em: record %d is not finite", i)
		}
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	span := cfg.Telemetry.Tracer().Begin(cfg.TraceID, cfg.TraceParent, "em", 0, 0)

	mix, err := initialModel(data, cfg, rng)
	if err != nil {
		return nil, err
	}

	stats := make([]*SuffStats, cfg.K)
	for j := range stats {
		stats[j] = NewSuffStats(d)
	}
	ws := newEWorkspace(n, d, cfg.K)

	prevAvgLL := math.Inf(-1)
	var iter int
	converged := false
	avgLL := 0.0
	for iter = 0; iter < cfg.MaxIter; iter++ {
		// Fused E+M pass (standard EM fusion — one pass over the data):
		// batched posteriors and sufficient statistics, sharded across
		// workers with a deterministic fixed-order reduction.
		avgLL = ws.eStep(data, mix, stats) / float64(n)

		// M-step: rebuild the mixture from the statistics.
		mix, err = modelFromStats(stats, data, cfg, rng)
		if err != nil {
			return nil, err
		}

		if cfg.converged(avgLL, prevAvgLL) {
			converged = true
			iter++
			break
		}
		prevAvgLL = avgLL
	}

	res := &Result{
		Mixture:          mix,
		AvgLogLikelihood: mix.AvgLogLikelihood(data),
		Iterations:       iter,
		Converged:        converged,
	}
	if converged {
		span.End(iter, "converged")
	} else {
		span.End(iter, "max-iter")
	}
	recordFit(cfg, "em-fit", res)
	return res, nil
}

// recordFit publishes one fit's outcome to cfg.Telemetry; a no-op when no
// registry is configured.
func recordFit(cfg Config, kind string, res *Result) {
	reg := cfg.Telemetry
	if reg == nil {
		return
	}
	reg.Counter("em.fits").Inc()
	reg.Counter("em.iterations").Add(int64(res.Iterations))
	if res.Converged {
		reg.Counter("em.converged").Inc()
	} else {
		reg.Counter("em.nonconverged").Inc()
	}
	reg.Histogram("em.iterations_per_fit", 2, 5, 10, 20, 50, 100).
		Observe(float64(res.Iterations))
	note := "converged"
	if !res.Converged {
		note = "max-iter"
	}
	reg.Record(telemetry.Event{
		Kind: kind, Value: res.AvgLogLikelihood, N: res.Iterations, Note: note,
	})
}

// FitStats runs EM where the "data set" is a collection of weighted
// sufficient-statistic blocks instead of raw records — the extended EM of
// the SEM baseline [6]. Each block is treated as mass concentrated at its
// mean with its own within-block scatter folded into the M-step, which is
// exact when block members share a posterior (the compression invariant).
func FitStats(blocks []*SuffStats, cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	if cfg.K < 1 {
		return nil, fmt.Errorf("em: K = %d, need at least 1", cfg.K)
	}
	var nonEmpty []*SuffStats
	for _, b := range blocks {
		if b.W > 0 {
			nonEmpty = append(nonEmpty, b)
		}
	}
	if len(nonEmpty) < cfg.K {
		return nil, ErrNotEnoughData
	}
	d := nonEmpty[0].Dim()
	rng := rand.New(rand.NewSource(cfg.Seed))

	// Initialize from block means (weighted k-means++ would be nicer; block
	// means with plain k-means++ is adequate and deterministic).
	means := make([]linalg.Vector, len(nonEmpty))
	for i, b := range nonEmpty {
		means[i] = b.Mean()
	}
	var mix *gaussian.Mixture
	if cfg.InitModel != nil {
		if cfg.InitModel.K() != cfg.K || cfg.InitModel.Dim() != d {
			return nil, fmt.Errorf("em: InitModel is K=%d d=%d, want K=%d d=%d",
				cfg.InitModel.K(), cfg.InitModel.Dim(), cfg.K, d)
		}
		mix = cfg.InitModel
	} else {
		centers := kMeansPlusPlus(means, cfg.K, rng)
		assign := hardAssign(means, centers)
		agg := make([]*SuffStats, cfg.K)
		for j := range agg {
			agg[j] = NewSuffStats(d)
		}
		for i, b := range nonEmpty {
			agg[assign[i]].Merge(b)
		}
		var err error
		mix, err = mixtureFromAggregates(agg, nonEmpty, cfg, rng)
		if err != nil {
			return nil, err
		}
	}

	stats := make([]*SuffStats, cfg.K)
	for j := range stats {
		stats[j] = NewSuffStats(d)
	}
	var totalW float64
	for _, b := range nonEmpty {
		totalW += b.W
	}

	// The block means are fixed across iterations, so the E-step scores
	// them through the batched kernel with reusable scratch.
	postM := linalg.NewMatrix(0, 0)
	logpdf := make([]float64, len(nonEmpty))
	scratch := gaussian.NewBatchScratch()

	prevAvgLL := math.Inf(-1)
	converged := false
	var iter int
	for iter = 0; iter < cfg.MaxIter; iter++ {
		for j := range stats {
			stats[j].Reset()
		}
		mix.PosteriorBatch(means, postM, logpdf, scratch)
		var sumLL float64
		for i, b := range nonEmpty {
			sumLL += b.W * logpdf[i]
			row := postM.Row(i)
			for j := 0; j < cfg.K; j++ {
				if row[j] <= 0 {
					continue
				}
				// Scale the whole block (including within-block scatter)
				// by the block's responsibility at its mean.
				stats[j].W += row[j] * b.W
				stats[j].Sum.AXPYInPlace(row[j], b.Sum)
				stats[j].Scatter.AddSym(row[j], b.Scatter)
			}
		}
		avgLL := sumLL / totalW

		var err error
		mix, err = mixtureFromAggregates(stats, nonEmpty, cfg, rng)
		if err != nil {
			return nil, err
		}
		if cfg.converged(avgLL, prevAvgLL) {
			converged = true
			iter++
			break
		}
		prevAvgLL = avgLL
	}

	// Average log-likelihood of the final model over block means.
	mix.ScoreBatch(means, logpdf, scratch)
	var sumLL float64
	for i, b := range nonEmpty {
		sumLL += b.W * logpdf[i]
	}
	res := &Result{
		Mixture:          mix,
		AvgLogLikelihood: sumLL / totalW,
		Iterations:       iter,
		Converged:        converged,
	}
	recordFit(cfg, "em-fit-stats", res)
	return res, nil
}

// initialModel builds the iteration-0 mixture: the provided warm start, or
// k-means++ centers, hard assignments, and per-cluster moments.
func initialModel(data []linalg.Vector, cfg Config, rng *rand.Rand) (*gaussian.Mixture, error) {
	d := len(data[0])
	if cfg.InitModel != nil {
		if cfg.InitModel.K() != cfg.K || cfg.InitModel.Dim() != d {
			return nil, fmt.Errorf("em: InitModel is K=%d d=%d, want K=%d d=%d",
				cfg.InitModel.K(), cfg.InitModel.Dim(), cfg.K, d)
		}
		return cfg.InitModel, nil
	}
	assign := hardAssign(data, kMeansPlusPlus(data, cfg.K, rng))
	stats := make([]*SuffStats, cfg.K)
	for j := range stats {
		stats[j] = NewSuffStats(d)
	}
	for i, x := range data {
		stats[assign[i]].Add(x, 1)
	}
	return modelFromStats(stats, data, cfg, rng)
}

// modelFromStats is the M-step: weights, means and covariances from the
// per-component sufficient statistics. Empty or near-empty components are
// re-seeded at a random record with the global covariance so EM can recover
// rather than divide by zero. The global covariance costs a pass over data,
// so it is computed once, on the first dead component, and shared by the
// rest (NewComponent keeps its own copy).
func modelFromStats(stats []*SuffStats, data []linalg.Vector, cfg Config, rng *rand.Rand) (*gaussian.Mixture, error) {
	k := len(stats)
	var totalW float64
	for _, s := range stats {
		totalW += s.W
	}
	weights := make([]float64, k)
	comps := make([]*gaussian.Component, k)
	var gcov *linalg.Sym
	for j, s := range stats {
		if s.W < 1e-9 {
			// Dead component: restart it at a random record.
			mean := data[rng.Intn(len(data))].Clone()
			if gcov == nil {
				gcov = globalCov(data, cfg.MinVar)
			}
			c, err := gaussian.NewComponent(mean, gcov, cfg.MinVar)
			if err != nil {
				return nil, err
			}
			comps[j] = c
			weights[j] = 1 / float64(len(data))
			continue
		}
		mean := s.Mean()
		cov := s.Cov(cfg.MinVar)
		if cfg.CovType == DiagCov {
			cov = linalg.Diagonal(cov.Diag())
		}
		c, err := gaussian.NewComponent(mean, cov, cfg.MinVar)
		if err != nil {
			return nil, err
		}
		comps[j] = c
		weights[j] = s.W / totalW
	}
	return gaussian.NewMixture(weights, comps)
}

// mixtureFromAggregates is modelFromStats for the block-based extended EM:
// dead components restart at a random block mean.
func mixtureFromAggregates(stats []*SuffStats, blocks []*SuffStats, cfg Config, rng *rand.Rand) (*gaussian.Mixture, error) {
	k := len(stats)
	var totalW float64
	for _, s := range stats {
		totalW += s.W
	}
	weights := make([]float64, k)
	comps := make([]*gaussian.Component, k)
	for j, s := range stats {
		if s.W < 1e-9 {
			b := blocks[rng.Intn(len(blocks))]
			mean := b.Mean()
			cov := b.Cov(cfg.MinVar)
			c, err := gaussian.NewComponent(mean, cov, cfg.MinVar)
			if err != nil {
				return nil, err
			}
			comps[j] = c
			weights[j] = 1e-6
			continue
		}
		mean := s.Mean()
		cov := s.Cov(cfg.MinVar)
		if cfg.CovType == DiagCov {
			cov = linalg.Diagonal(cov.Diag())
		}
		c, err := gaussian.NewComponent(mean, cov, cfg.MinVar)
		if err != nil {
			return nil, err
		}
		comps[j] = c
		weights[j] = s.W / totalW
	}
	return gaussian.NewMixture(weights, comps)
}

// globalCov returns the covariance of the full data set, used to re-seed
// dead components.
func globalCov(data []linalg.Vector, minVar float64) *linalg.Sym {
	d := len(data[0])
	s := NewSuffStats(d)
	for _, x := range data {
		s.Add(x, 1)
	}
	return s.Cov(minVar)
}
