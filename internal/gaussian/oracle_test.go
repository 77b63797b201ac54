package gaussian

import (
	"math"

	"cludistream/internal/linalg"
)

// The scalar per-record read path, kept as the oracle the batched kernels
// of batch.go are pinned to bit for bit. Production scores through the
// kernels only (Mixture.LogPDF is ScoreBatch on one record); this is the
// record-at-a-time loop they replaced: per component a difference, a
// forward half-solve and a dot product, then one sequential LogAdd chain.

// oracleLogProb is log p(x|c) = logNorm − ½·‖L⁻¹(x−μ)‖² with
// caller-provided scratch vectors of dimension d.
func oracleLogProb(c *Component, x, diff, half linalg.Vector) float64 {
	for i := range x {
		diff[i] = x[i] - c.mean[i]
	}
	c.chol.HalfSolveInto(diff, half)
	return c.logNorm - 0.5*half.Dot(half)
}

// oracleLogPDF is log p(x) = log Σ_j w_j p(x|j), zero-weight components
// skipped.
func oracleLogPDF(m *Mixture, x linalg.Vector) float64 {
	diff := linalg.NewVector(m.Dim())
	half := linalg.NewVector(m.Dim())
	lse := math.Inf(-1)
	for j, c := range m.comps {
		if m.weights[j] == 0 {
			continue
		}
		lse = LogAdd(lse, m.logW[j]+oracleLogProb(c, x, diff, half))
	}
	return lse
}

// oraclePosterior writes Pr(j|x) (Eq. 2) into dst (length K) and returns
// log p(x).
func oraclePosterior(m *Mixture, x linalg.Vector, dst []float64) float64 {
	diff := linalg.NewVector(m.Dim())
	half := linalg.NewVector(m.Dim())
	lse := math.Inf(-1)
	for j, c := range m.comps {
		if m.weights[j] == 0 {
			dst[j] = math.Inf(-1)
			continue
		}
		dst[j] = m.logW[j] + oracleLogProb(c, x, diff, half)
		lse = LogAdd(lse, dst[j])
	}
	for j := range dst {
		if math.IsInf(dst[j], -1) {
			dst[j] = 0
			continue
		}
		dst[j] = math.Exp(dst[j] - lse)
	}
	return lse
}

// oracleMaxComponentLogPDF is Theorem 2's sharpened statistic
// max_j log(w_j·p(x|j)).
func oracleMaxComponentLogPDF(m *Mixture, x linalg.Vector) float64 {
	best := math.Inf(-1)
	for j, c := range m.comps {
		if m.weights[j] == 0 {
			continue
		}
		if lp := m.logW[j] + c.LogProb(x); lp > best {
			best = lp
		}
	}
	return best
}
