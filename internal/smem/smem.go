// Package smem implements the split-and-merge EM algorithm of Ueda,
// Nakano, Ghahramani & Hinton (Neural Computation 12(9), 2000 — reference
// [23] of the paper). SMEM escapes the local optima plain EM converges to
// by repeatedly proposing simultaneous merge (two redundant components →
// one) and split (one underfitting component → two) moves, re-running EM,
// and keeping the result only when the likelihood improves.
//
// CluDistream's coordinator borrows SMEM's J_merge criterion (replacing it
// with the transmit-free M_merge); this package provides the genuine
// article so the repository can both validate that replacement (Figure 1)
// and offer a stronger local-model fitter for sites that can afford it.
package smem

import (
	"fmt"
	"math"
	"sort"

	"cludistream/internal/em"
	"cludistream/internal/gaussian"
	"cludistream/internal/linalg"
)

// Config parameterizes a SMEM fit.
type Config struct {
	// EM is the base EM configuration (K, tolerance, seed, ...).
	EM em.Config
	// MaxCandidates is how many (merge i,j + split k) triples are tried per
	// round, in criterion order (Ueda et al. use 5).
	MaxCandidates int
	// MaxRounds bounds the number of accepted-move rounds (default 3).
	MaxRounds int
	// MinGain is the average log-likelihood improvement required to accept
	// a move (default 1e-4).
	MinGain float64
}

func (c Config) withDefaults() Config {
	if c.MaxCandidates <= 0 {
		c.MaxCandidates = 5
	}
	if c.MaxRounds <= 0 {
		c.MaxRounds = 3
	}
	if c.MinGain <= 0 {
		c.MinGain = 1e-4
	}
	return c
}

// Result reports a SMEM fit.
type Result struct {
	Mixture          *gaussian.Mixture
	AvgLogLikelihood float64
	// EMRuns counts inner EM invocations (1 base + 1 per candidate tried).
	EMRuns int
	// AcceptedMoves counts split-merge proposals that improved the model.
	AcceptedMoves int
}

// Fit runs EM followed by split-and-merge refinement. It needs K ≥ 3: a
// move merges two components and splits a third.
func Fit(data []linalg.Vector, cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	if cfg.EM.K < 3 {
		return nil, fmt.Errorf("smem: K = %d, need ≥ 3 for split-merge moves", cfg.EM.K)
	}
	base, err := em.Fit(data, cfg.EM)
	if err != nil {
		return nil, err
	}
	res := &Result{
		Mixture:          base.Mixture,
		AvgLogLikelihood: base.Mixture.AvgLogLikelihood(data),
		EMRuns:           1,
	}

	for round := 0; round < cfg.MaxRounds; round++ {
		improved := false
		for _, cand := range candidates(res.Mixture, data, cfg.MaxCandidates) {
			proposal, err := applyMove(res.Mixture, data, cand)
			if err != nil {
				continue
			}
			refit := cfg.EM
			refit.InitModel = proposal
			refined, err := em.Fit(data, refit)
			res.EMRuns++
			if err != nil {
				continue
			}
			ll := refined.Mixture.AvgLogLikelihood(data)
			if ll > res.AvgLogLikelihood+cfg.MinGain {
				res.Mixture = refined.Mixture
				res.AvgLogLikelihood = ll
				res.AcceptedMoves++
				improved = true
				break // re-rank candidates against the new model
			}
		}
		if !improved {
			break
		}
	}
	return res, nil
}

// move is one (merge i,j; split k) proposal.
type move struct {
	i, j, k int
}

// candidates ranks proposals: pairs by descending J_merge, and for each
// pair, split components by descending split score (how poorly the
// component fits the data it claims).
func candidates(m *gaussian.Mixture, data []linalg.Vector, max int) []move {
	k := m.K()
	type pair struct {
		i, j int
		jm   float64
	}
	var pairs []pair
	for i := 0; i < k; i++ {
		for j := i + 1; j < k; j++ {
			pairs = append(pairs, pair{i, j, gaussian.JMerge(m, i, j, data)})
		}
	}
	sort.Slice(pairs, func(a, b int) bool { return pairs[a].jm > pairs[b].jm })

	scores := splitScores(m, data)
	order := make([]int, k)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return scores[order[a]] > scores[order[b]] })

	var out []move
	for _, p := range pairs {
		for _, s := range order {
			if s == p.i || s == p.j {
				continue
			}
			out = append(out, move{i: p.i, j: p.j, k: s})
			break // one split candidate per merge pair (Ueda's ordering)
		}
		if len(out) >= max {
			break
		}
	}
	return out
}

// splitScores measures local misfit per component: the responsibility-
// weighted KL surrogate Σ_x Pr(k|x)·(log f̂(x) − log p(x|k)) reduces, for a
// fixed kernel-free implementation, to how much worse the component
// explains its own points than the full mixture does. High score = the
// component is covering structure it cannot represent = split candidate.
// Posteriors and log p(x) come from one PosteriorBatch pass.
func splitScores(m *gaussian.Mixture, data []linalg.Vector) []float64 {
	k := m.K()
	post := linalg.NewMatrix(0, 0)
	logpdf := make([]float64, len(data))
	m.PosteriorBatch(data, post, logpdf, nil)
	num := make([]float64, k)
	den := make([]float64, k)
	for p, x := range data {
		for j := 0; j < k; j++ {
			pj := post.At(p, j)
			if pj <= 0 {
				continue
			}
			num[j] += pj * (logpdf[p] - m.Component(j).LogProb(x))
			den[j] += pj
		}
	}
	out := make([]float64, k)
	for j := 0; j < k; j++ {
		if den[j] > 0 {
			out[j] = num[j] / den[j]
		} else {
			out[j] = math.Inf(1) // dead component: always worth splitting
		}
	}
	return out
}

// applyMove builds the proposal mixture: components i and j moment-merged,
// component k split along its principal axis.
func applyMove(m *gaussian.Mixture, data []linalg.Vector, mv move) (*gaussian.Mixture, error) {
	d := m.Dim()
	wMerged, mean, cov := gaussian.MomentMerge(
		m.Weight(mv.i), m.Component(mv.i),
		m.Weight(mv.j), m.Component(mv.j))
	merged, err := gaussian.NewComponent(mean, cov, 0)
	if err != nil {
		return nil, err
	}

	// Split k: displace the two children ±½√λ along the dominant
	// eigenvector, halve the weight, shrink the covariance.
	ck := m.Component(mv.k)
	vals, vecs := linalg.JacobiEigen(ck.Cov())
	best := 0
	for idx := 1; idx < d; idx++ {
		if vals[idx] > vals[best] {
			best = idx
		}
	}
	axis := linalg.NewVector(d)
	for r := 0; r < d; r++ {
		axis[r] = vecs[r*d+best]
	}
	step := 0.5 * math.Sqrt(math.Max(vals[best], 1e-12))
	childCov := ck.Cov().Clone()
	childCov.ScaleInPlace(0.5)
	mk := ck.Mean()
	c1, err := gaussian.NewComponent(mk.Add(axis.Scale(step)), childCov, 0)
	if err != nil {
		return nil, err
	}
	c2, err := gaussian.NewComponent(mk.Add(axis.Scale(-step)), childCov, 0)
	if err != nil {
		return nil, err
	}

	var comps []*gaussian.Component
	var weights []float64
	for idx := 0; idx < m.K(); idx++ {
		switch idx {
		case mv.i:
			comps = append(comps, merged)
			weights = append(weights, wMerged)
		case mv.j:
			// replaced by one of k's children to keep K constant
			comps = append(comps, c1)
			weights = append(weights, m.Weight(mv.k)/2)
		case mv.k:
			comps = append(comps, c2)
			weights = append(weights, m.Weight(mv.k)/2)
		default:
			comps = append(comps, m.Component(idx))
			weights = append(weights, m.Weight(idx))
		}
	}
	return gaussian.NewMixture(weights, comps)
}
