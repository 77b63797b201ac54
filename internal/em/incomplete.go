package em

import (
	"fmt"
	"math"
	"math/rand"

	"cludistream/internal/gaussian"
	"cludistream/internal/linalg"
)

// This file implements EM for incomplete records — the capability the
// paper leads with ("the EM algorithm is an effective technique for
// learning the mixture model parameters in the presence of incomplete
// data", §1/§3). A missing attribute is encoded as NaN. The E-step
// evaluates each component's *marginal* density over the observed
// attributes; the M-step imputes the missing block with its conditional
// expectation μ_m + Σ_mo Σ_oo⁻¹ (x_o − μ_o) and adds the conditional
// covariance Σ_mm − Σ_mo Σ_oo⁻¹ Σ_om to the scatter, which is the exact
// EM update for missing-at-random Gaussian data.

// maxMissingDims bounds d for incomplete fitting (pattern masks are
// uint64).
const maxMissingDims = 64

// FitIncomplete runs Gaussian-mixture EM on records whose missing
// attributes are marked NaN. Records with every attribute missing are
// rejected. Complete data reduces to the standard algorithm (but prefer
// Fit there — it is faster).
func FitIncomplete(data []linalg.Vector, cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	if cfg.K < 1 {
		return nil, fmt.Errorf("em: K = %d, need at least 1", cfg.K)
	}
	n := len(data)
	if n < cfg.K {
		return nil, ErrNotEnoughData
	}
	d := len(data[0])
	if d > maxMissingDims {
		return nil, fmt.Errorf("em: FitIncomplete supports d ≤ %d, got %d", maxMissingDims, d)
	}
	masks := make([]uint64, n)
	for i, x := range data {
		if len(x) != d {
			return nil, fmt.Errorf("em: record %d has dim %d, want %d", i, len(x), d)
		}
		for _, v := range x {
			if math.IsInf(v, 0) {
				return nil, fmt.Errorf("em: record %d has infinite attribute", i)
			}
		}
		mask := observedMask(x)
		if mask == 0 {
			return nil, fmt.Errorf("em: record %d has no observed attributes", i)
		}
		masks[i] = mask
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	// Initialization: mean-impute, then standard k-means++ hard start.
	imputed := meanImpute(data, masks)
	mix, err := initialModel(imputed, cfg, rng)
	if err != nil {
		return nil, err
	}

	stats := make([]*SuffStats, cfg.K)
	for j := range stats {
		stats[j] = NewSuffStats(d)
	}
	post := make([]float64, cfg.K)

	prevAvgLL := math.Inf(-1)
	converged := false
	var iter int
	var avgLL float64
	for iter = 0; iter < cfg.MaxIter; iter++ {
		cache := newCondCache(mix)
		for j := range stats {
			stats[j].Reset()
		}
		var sumLL float64
		xhat := linalg.NewVector(d)
		for i, x := range data {
			mask := masks[i]
			lse := cache.logMarginal(mask, x, post)
			sumLL += lse
			for j := 0; j < cfg.K; j++ {
				w := math.Exp(post[j] - lse)
				if w <= 0 {
					continue
				}
				cond := cache.impute(j, mask, x, xhat)
				stats[j].Add(xhat, w)
				if cond != nil {
					stats[j].Scatter.AddSym(w, cond)
				}
			}
		}
		avgLL = sumLL / float64(n)

		mix, err = modelFromStats(stats, imputed, cfg, rng)
		if err != nil {
			return nil, err
		}
		if math.Abs(avgLL-prevAvgLL) <= cfg.Tol {
			converged = true
			iter++
			break
		}
		prevAvgLL = avgLL
	}
	res := &Result{
		Mixture:          mix,
		AvgLogLikelihood: avgLL,
		Iterations:       iter,
		Converged:        converged,
	}
	recordFit(cfg, "em-fit-incomplete", res)
	return res, nil
}

// AvgMarginalLogLikelihood returns the average over data of
// log Σ_j w_j·N(x_o; μ_o, Σ_oo): each record is scored on its observed
// (non-NaN) attributes alone, the likelihood FitIncomplete maximizes.
// Records with no observed attribute are skipped. It returns NaN when no
// record has one, or when d exceeds the 64 attributes an observation mask
// holds.
func AvgMarginalLogLikelihood(mix *gaussian.Mixture, data []linalg.Vector) float64 {
	if mix.Dim() > maxMissingDims {
		return math.NaN()
	}
	cache := newCondCache(mix)
	var sum float64
	n := 0
	for _, x := range data {
		mask := observedMask(x)
		if mask == 0 {
			continue
		}
		sum += cache.logMarginal(mask, x, nil)
		n++
	}
	if n == 0 {
		return math.NaN()
	}
	return sum / float64(n)
}

// meanImpute fills missing entries with per-attribute observed means.
func meanImpute(data []linalg.Vector, masks []uint64) []linalg.Vector {
	d := len(data[0])
	sums := make([]float64, d)
	counts := make([]float64, d)
	for i, x := range data {
		for a := 0; a < d; a++ {
			if masks[i]&(1<<a) != 0 {
				sums[a] += x[a]
				counts[a]++
			}
		}
	}
	means := make([]float64, d)
	for a := 0; a < d; a++ {
		if counts[a] > 0 {
			means[a] = sums[a] / counts[a]
		}
	}
	out := make([]linalg.Vector, len(data))
	for i, x := range data {
		y := x.Clone()
		for a := 0; a < d; a++ {
			if masks[i]&(1<<a) == 0 {
				y[a] = means[a]
			}
		}
		out[i] = y
	}
	return out
}

// condEntry caches, for one (component, observation pattern), everything
// the E-step needs: the marginal factorization over observed dims and the
// conditional regression onto missing dims.
type condEntry struct {
	obs, miss []int
	chol      *linalg.Cholesky // of Σ_oo
	logNorm   float64          // marginal normalizing constant
	// b[mi] solves Σ_oo b = Σ_o,miss[mi] — the regression coefficients.
	b []linalg.Vector
	// cond is Σ_mm − Σ_mo Σ_oo⁻¹ Σ_om embedded into full d×d (missing
	// block only); nil when nothing is missing.
	cond *linalg.Sym
}

type condCache struct {
	mix     *gaussian.Mixture
	entries map[uint64][]*condEntry // mask → per-component entry
}

func newCondCache(mix *gaussian.Mixture) *condCache {
	return &condCache{mix: mix, entries: make(map[uint64][]*condEntry)}
}

func (c *condCache) entry(j int, mask uint64) *condEntry {
	slot, ok := c.entries[mask]
	if !ok {
		slot = make([]*condEntry, c.mix.K())
		c.entries[mask] = slot
	}
	if slot[j] == nil {
		slot[j] = buildCondEntry(c.mix.Component(j), mask)
	}
	return slot[j]
}

func buildCondEntry(comp *gaussian.Component, mask uint64) *condEntry {
	d := comp.Dim()
	e := &condEntry{}
	for a := 0; a < d; a++ {
		if mask&(1<<a) != 0 {
			e.obs = append(e.obs, a)
		} else {
			e.miss = append(e.miss, a)
		}
	}
	cov := comp.Cov()
	oo := linalg.NewSym(len(e.obs))
	for i, ai := range e.obs {
		for jj := 0; jj <= i; jj++ {
			oo.Set(i, jj, cov.At(ai, e.obs[jj]))
		}
	}
	chol, err := linalg.CholeskyDecompose(oo)
	if err != nil {
		chol, err = linalg.CholeskyDecompose(linalg.RepairPSD(oo, 1e-9))
		if err != nil {
			// Give up on structure: identity marginal (effectively flat).
			chol, _ = linalg.CholeskyDecompose(linalg.Identity(len(e.obs)))
		}
	}
	e.chol = chol
	e.logNorm = -0.5*float64(len(e.obs))*math.Log(2*math.Pi) - 0.5*chol.LogDet()

	if len(e.miss) > 0 {
		// Regression coefficients: for each missing dim, solve Σ_oo b = Σ_o,m.
		e.b = make([]linalg.Vector, len(e.miss))
		for mi, am := range e.miss {
			rhs := linalg.NewVector(len(e.obs))
			for oi, ao := range e.obs {
				rhs[oi] = cov.At(ao, am)
			}
			e.b[mi] = e.chol.Solve(rhs)
		}
		// Conditional covariance embedded in full coordinates.
		e.cond = linalg.NewSym(d)
		for mi, am := range e.miss {
			for mj := 0; mj <= mi; mj++ {
				amj := e.miss[mj]
				v := cov.At(am, amj)
				for oi, ao := range e.obs {
					v -= cov.At(ao, am) * e.b[mj][oi]
				}
				e.cond.Set(am, amj, v)
			}
		}
	}
	return e
}

// observedMask returns x's observation mask: bit a set when attribute a is
// observed (not NaN).
func observedMask(x linalg.Vector) uint64 {
	var mask uint64
	for a, v := range x {
		if !math.IsNaN(v) {
			mask |= 1 << a
		}
	}
	return mask
}

// logMarginal evaluates log Σ_j w_j·N(x_o; μ_o, Σ_oo) for the record x with
// observation mask mask. When terms is non-nil, terms[j] receives component
// j's log w_j + log N(x_o; μ_o, Σ_oo).
func (c *condCache) logMarginal(mask uint64, x linalg.Vector, terms []float64) float64 {
	lse := math.Inf(-1)
	for j := 0; j < c.mix.K(); j++ {
		lp := math.Log(c.mix.Weight(j)) + c.marginalLogProb(j, mask, x)
		if terms != nil {
			terms[j] = lp
		}
		lse = gaussian.LogAdd(lse, lp)
	}
	return lse
}

// marginalLogProb evaluates log N(x_o; μ_o, Σ_oo).
func (c *condCache) marginalLogProb(j int, mask uint64, x linalg.Vector) float64 {
	e := c.entry(j, mask)
	mu := c.mix.Component(j).Mean()
	diff := linalg.NewVector(len(e.obs))
	for oi, ao := range e.obs {
		diff[oi] = x[ao] - mu[ao]
	}
	return e.logNorm - 0.5*e.chol.QuadForm(diff)
}

// impute writes the conditional-expectation completion of x under
// component j into xhat and returns the embedded conditional covariance
// (nil when the record is complete).
func (c *condCache) impute(j int, mask uint64, x, xhat linalg.Vector) *linalg.Sym {
	e := c.entry(j, mask)
	mu := c.mix.Component(j).Mean()
	diff := linalg.NewVector(len(e.obs))
	for oi, ao := range e.obs {
		xhat[ao] = x[ao]
		diff[oi] = x[ao] - mu[ao]
	}
	for mi, am := range e.miss {
		xhat[am] = mu[am] + e.b[mi].Dot(diff)
	}
	return e.cond
}
