package em

import (
	"fmt"
	"math"

	"cludistream/internal/linalg"
)

// NumParams returns the free-parameter count of a K-component Gaussian
// mixture in d dimensions: K−1 weights, K·d means, and K covariances (full:
// d(d+1)/2 each; diagonal: d each).
func NumParams(k, d int, cov CovType) int {
	perCov := d * (d + 1) / 2
	if cov == DiagCov {
		perCov = d
	}
	return (k - 1) + k*d + k*perCov
}

// BIC returns the Bayesian information criterion for a fitted model:
// −2·logL + p·ln(n). Lower is better.
func BIC(avgLogLikelihood float64, n, k, d int, cov CovType) float64 {
	logL := avgLogLikelihood * float64(n)
	return -2*logL + float64(NumParams(k, d, cov))*math.Log(float64(n))
}

// SelectionResult reports a FitBestK sweep.
type SelectionResult struct {
	// Best is the winning fit.
	Best *Result
	// BestK is the selected component count.
	BestK int
	// Scores maps each tried K to its BIC.
	Scores map[int]float64
}

// FitBestK fits the mixture for every K in [kMin, kMax] and returns the
// fit minimizing BIC. The paper's sites do not assume a fixed number of
// components ("new model is added to the model list if the data does not
// fit current models"); FitBestK extends that philosophy inside a single
// model by choosing K from the data. Fits that fail (e.g. K > n) are
// skipped; an error is returned only if every K fails.
func FitBestK(data []linalg.Vector, kMin, kMax int, cfg Config) (*SelectionResult, error) {
	if kMin < 1 || kMax < kMin {
		return nil, fmt.Errorf("em: bad K range [%d, %d]", kMin, kMax)
	}
	if len(data) == 0 {
		return nil, ErrNotEnoughData
	}
	d := len(data[0])
	sel := &SelectionResult{Scores: make(map[int]float64)}
	bestScore := math.Inf(1)
	var lastErr error
	for k := kMin; k <= kMax; k++ {
		c := cfg
		c.K = k
		res, err := Fit(data, c)
		if err != nil {
			lastErr = err
			continue
		}
		score := BIC(res.Mixture.AvgLogLikelihood(data), len(data), k, d, c.CovType)
		sel.Scores[k] = score
		if score < bestScore {
			bestScore = score
			sel.Best = res
			sel.BestK = k
		}
	}
	if sel.Best == nil {
		return nil, fmt.Errorf("em: no K in [%d, %d] fit: %w", kMin, kMax, lastErr)
	}
	return sel, nil
}
