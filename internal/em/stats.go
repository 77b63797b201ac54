// Package em implements the classical EM algorithm for Gaussian mixture
// models (Section 3.2 of the paper): k-means++ initialization, E/M
// iterations, and the ϖ-threshold convergence test on the log-likelihood.
// It also provides weighted sufficient statistics, the building block that
// the scalable-EM baseline (internal/sem) and the incremental fitting paths
// share.
package em

import (
	"cludistream/internal/linalg"
)

// SuffStats accumulates the weighted zeroth, first and second moments of a
// set of records: W = Σ w, Sum = Σ w·x, Scatter = Σ w·x·xᵀ. Together these
// are exactly what the M-step needs, and what SEM's compression phase
// stores in place of raw records.
type SuffStats struct {
	W       float64
	Sum     linalg.Vector
	Scatter *linalg.Sym
}

// NewSuffStats returns empty statistics for dimension d.
func NewSuffStats(d int) *SuffStats {
	return &SuffStats{Sum: linalg.NewVector(d), Scatter: linalg.NewSym(d)}
}

// Dim returns the dimensionality.
func (s *SuffStats) Dim() int { return len(s.Sum) }

// Add accumulates record x with weight w.
func (s *SuffStats) Add(x linalg.Vector, w float64) {
	s.W += w
	s.Sum.AXPYInPlace(w, x)
	s.Scatter.AddOuterScaled(w, x)
}

// AddColumn accumulates every record xs[p] with weight post[p·stride+col],
// in record order, skipping weights that are not positive (NaN included).
// Each accumulator receives exactly Add's additions: w·x_i is formed once
// and serves as both the Sum term and the scatter row's multiplier, and the
// packed lower triangle is swept in AddOuterScaled's order. At order 4 the
// fifteen sums (W, Sum, the ten Scatter entries) stay in registers across
// xs; every other order calls Add per record.
func (s *SuffStats) AddColumn(xs []linalg.Vector, post []float64, stride, col int) {
	if len(s.Sum) != 4 {
		for p, x := range xs {
			if r := post[p*stride+col]; r > 0 {
				s.Add(x, r)
			}
		}
		return
	}
	sum := s.Sum[:4]
	sc := s.Scatter.Packed()[:10]
	w := s.W
	s0, s1, s2, s3 := sum[0], sum[1], sum[2], sum[3]
	c0, c1, c2, c3, c4, c5, c6, c7, c8, c9 := sc[0], sc[1], sc[2], sc[3], sc[4], sc[5], sc[6], sc[7], sc[8], sc[9]
	for p, x := range xs {
		r := post[p*stride+col]
		if !(r > 0) {
			continue
		}
		x = x[:4]
		x0, x1, x2, x3 := x[0], x[1], x[2], x[3]
		w += r
		a0 := r * x0
		a1 := r * x1
		a2 := r * x2
		a3 := r * x3
		s0 += a0
		s1 += a1
		s2 += a2
		s3 += a3
		c0 += a0 * x0
		c1 += a1 * x0
		c2 += a1 * x1
		c3 += a2 * x0
		c4 += a2 * x1
		c5 += a2 * x2
		c6 += a3 * x0
		c7 += a3 * x1
		c8 += a3 * x2
		c9 += a3 * x3
	}
	s.W = w
	sum[0], sum[1], sum[2], sum[3] = s0, s1, s2, s3
	sc[0], sc[1], sc[2], sc[3], sc[4], sc[5], sc[6], sc[7], sc[8], sc[9] = c0, c1, c2, c3, c4, c5, c6, c7, c8, c9
}

// Merge folds other into s.
func (s *SuffStats) Merge(other *SuffStats) {
	s.W += other.W
	s.Sum.AddInPlace(other.Sum)
	s.Scatter.AddSym(1, other.Scatter)
}

// Reset zeroes the statistics in place.
func (s *SuffStats) Reset() {
	s.W = 0
	for i := range s.Sum {
		s.Sum[i] = 0
	}
	s.Scatter.ScaleInPlace(0)
}

// Clone returns an independent copy.
func (s *SuffStats) Clone() *SuffStats {
	return &SuffStats{W: s.W, Sum: s.Sum.Clone(), Scatter: s.Scatter.Clone()}
}

// Mean returns Sum/W. It panics if W == 0.
func (s *SuffStats) Mean() linalg.Vector {
	if s.W == 0 {
		panic("em: Mean of empty SuffStats")
	}
	return s.Sum.Scale(1 / s.W)
}

// Cov returns the weighted covariance Scatter/W − μμᵀ with the diagonal
// floored at minVar. It panics if W == 0.
func (s *SuffStats) Cov(minVar float64) *linalg.Sym {
	mu := s.Mean()
	cov := s.Scatter.Clone()
	cov.ScaleInPlace(1 / s.W)
	cov.AddOuterScaled(-1, mu)
	floorDiagonal(cov, minVar)
	return cov
}

// floorDiagonal raises diagonal entries below minVar up to minVar, the
// guard the paper's footnote motivates (zero-variance attributes make Σ
// singular).
func floorDiagonal(cov *linalg.Sym, minVar float64) {
	if minVar <= 0 {
		minVar = 1e-6
	}
	for i := 0; i < cov.Order(); i++ {
		if cov.At(i, i) < minVar {
			cov.Set(i, i, minVar)
		}
	}
}
