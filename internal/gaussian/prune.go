// Pruned mixture scoring: the paper names "constructing index structure to
// accelerate merge and split based on the mixture models" as future work;
// this file applies the same idea to the J_fit hot path. A per-mixture
// ScoreIndex holds a k-d tree over component means plus two conservative
// constants, and AvgLogLikelihoodBounds evaluates only the top-m
// nearest-mean components per record, returning a mathematically sound
// interval [lo, hi] around the exact average log-likelihood:
//
//	lo  = the log-sum-exp over the m candidate components alone
//	      (a subset of the full sum, hence a lower bound), and
//	hi  = LogAdd(lo, ub) where ub bounds the total mass of every skipped
//	      component: for a skipped component j the squared Mahalanobis
//	      distance satisfies (x−μ_j)ᵀΣ_j⁻¹(x−μ_j) ≥ ‖x−μ_j‖²/λmax(Σ_j)
//	      ≥ dm²/λmax(model), with dm the distance to the m-th nearest
//	      mean (every skipped mean is at least that far), so
//	      Σ_skipped w_j·p(x|j) ≤ exp(logSumWN − ½·dm²/λmax).
//
// Callers (the site's fit test) act on the interval only when it decides
// the J_fit verdict with slack to spare, and fall back to the exact batched
// scan otherwise — which is how the pruned path stays bit-identical to the
// exact path at the decision level.
package gaussian

import (
	"math"

	"cludistream/internal/kdtree"
	"cludistream/internal/linalg"
)

// lambdaMaxInflate guards the eigenvalue bound against Jacobi rounding:
// the largest eigenvalue is inflated by this relative factor (plus a tiny
// absolute floor) before it is used to lower-bound Mahalanobis distances.
const lambdaMaxInflate = 1e-6

// ScoreIndex is the per-mixture pruning index: a k-d tree over the means
// of the non-zero-weight components and the two constants of the skipped-
// mass bound. It is built lazily (once, thread-safe) and read-only after
// construction, so concurrent scoring goroutines can share it.
type ScoreIndex struct {
	tree *kdtree.Tree
	// active is the number of non-zero-weight (indexed) components.
	active int
	// lambdaMax bounds the largest covariance eigenvalue over all indexed
	// components, inflated by lambdaMaxInflate.
	lambdaMax float64
	// logSumWN = log Σ_j exp(logW_j + logNorm_j) over indexed components —
	// the x-independent part of the skipped-mass bound.
	logSumWN float64
	usable   bool
}

// scoreIndex returns the mixture's pruning index, building it on first use.
func (m *Mixture) scoreIndex() *ScoreIndex {
	m.pruneOnce.Do(func() { m.prune = buildScoreIndex(m) })
	return m.prune
}

func buildScoreIndex(m *Mixture) *ScoreIndex {
	idx := &ScoreIndex{}
	d := m.Dim()
	tree := kdtree.New(d)
	logSumWN := math.Inf(-1)
	lambdaMax := 0.0
	for j, c := range m.comps {
		if m.weights[j] == 0 {
			continue
		}
		tree.Insert(j, c.mean)
		logSumWN = LogAdd(logSumWN, m.logW[j]+c.logNorm)
		eig, _ := linalg.JacobiEigen(c.cov)
		for _, lam := range eig {
			if lam > lambdaMax {
				lambdaMax = lam
			}
		}
		idx.active++
	}
	lambdaMax = lambdaMax*(1+lambdaMaxInflate) + 1e-300
	if idx.active < 2 || !(lambdaMax > 0) || math.IsInf(lambdaMax, 1) ||
		math.IsNaN(logSumWN) || math.IsInf(logSumWN, 1) {
		return idx // unusable: degenerate weights or covariance spectrum
	}
	idx.tree = tree
	idx.lambdaMax = lambdaMax
	idx.logSumWN = logSumWN
	idx.usable = true
	return idx
}

// AvgLogLikelihoodBounds returns a sound interval [lo, hi] around
// AvgLogLikelihoodScratch(data) evaluated with only the topM nearest-mean
// components per record (see the file comment for the bound). ok reports
// whether the pruned evaluation applies: it is false — and the caller must
// use the exact path — when the index is degenerate, topM would not skip
// anything, or the data is empty. Records must be free of NaNs (the site
// filters incomplete records before scoring).
//
// The interval brackets the exact value up to floating-point roundoff of
// order machine epsilon times the magnitudes involved; callers must keep a
// guard slack of that order when acting on it.
func (m *Mixture) AvgLogLikelihoodBounds(data []linalg.Vector, topM int, s *BatchScratch) (lo, hi float64, ok bool) {
	idx := m.scoreIndex()
	if !idx.usable || topM <= 0 || idx.active <= topM || len(data) == 0 {
		return 0, 0, false
	}
	if s == nil {
		s = scratchPool.Get().(*BatchScratch)
		defer scratchPool.Put(s)
	}
	d := m.Dim()
	s.ensure(d, len(m.comps))
	if cap(s.nbrs) < topM {
		s.nbrs = make([]kdtree.Neighbor, 0, topM)
	}
	diff := linalg.Vector(s.panel[:d])
	half := linalg.Vector(s.panel[d : 2*d])
	var sumLo, sumHi float64
	for _, x := range data {
		nbrs := idx.tree.NearestKInto(x, topM, s.nbrs[:0])
		s.nbrs = nbrs
		dm := nbrs[len(nbrs)-1].DistSq
		loR := math.Inf(-1)
		for _, nb := range nbrs {
			j := nb.ID
			lp := m.logW[j] + m.comps[j].LogProbScratch(x, diff, half)
			loR = LogAdd(loR, lp)
		}
		ubSkip := idx.logSumWN - 0.5*dm/idx.lambdaMax
		sumLo += loR
		sumHi += LogAdd(loR, ubSkip)
	}
	n := float64(len(data))
	lo, hi = sumLo/n, sumHi/n
	if math.IsNaN(lo) || math.IsNaN(hi) || math.IsInf(lo, 0) || math.IsInf(hi, 0) {
		return 0, 0, false
	}
	return lo, hi, true
}
