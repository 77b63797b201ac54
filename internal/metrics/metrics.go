// Package metrics provides the measurement helpers the experiments share:
// histograms (Figure 3) and simple descriptive statistics over series.
package metrics

import (
	"fmt"
	"math"

	"cludistream/internal/linalg"
)

// Histogram bins attribute attr of data into bins equal-width buckets over
// [lo, hi). Values outside the range clamp into the edge buckets, so mass
// is never silently dropped.
func Histogram(data []linalg.Vector, attr, bins int, lo, hi float64) []int {
	if bins < 1 {
		panic(fmt.Sprintf("metrics: bins = %d", bins))
	}
	if hi <= lo {
		panic(fmt.Sprintf("metrics: empty range [%v, %v)", lo, hi))
	}
	out := make([]int, bins)
	width := (hi - lo) / float64(bins)
	for _, x := range data {
		idx := int((x[attr] - lo) / width)
		if idx < 0 {
			idx = 0
		}
		if idx >= bins {
			idx = bins - 1
		}
		out[idx]++
	}
	return out
}

// Mean returns the arithmetic mean of xs (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, v := range xs {
		s += v
	}
	return s / float64(len(xs))
}

// MinMax returns the extrema of xs; it panics on empty input.
func MinMax(xs []float64) (lo, hi float64) {
	if len(xs) == 0 {
		panic("metrics: MinMax of empty slice")
	}
	lo, hi = xs[0], xs[0]
	for _, v := range xs[1:] {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	return lo, hi
}

// Pearson returns the Pearson correlation of two equal-length series; it
// panics on mismatched or short input. Figure-1 style agreement checks use
// it.
func Pearson(a, b []float64) float64 {
	if len(a) != len(b) || len(a) < 2 {
		panic("metrics: Pearson needs two equal series of length ≥ 2")
	}
	ma, mb := Mean(a), Mean(b)
	var cov, va, vb float64
	for i := range a {
		da, db := a[i]-ma, b[i]-mb
		cov += da * db
		va += da * da
		vb += db * db
	}
	if va == 0 || vb == 0 {
		return 0
	}
	return cov / math.Sqrt(va*vb)
}

// Spearman returns the rank correlation of two equal-length series — the
// right agreement measure when one series has heavy-tailed magnitudes (as
// M_merge does when two components nearly coincide).
func Spearman(a, b []float64) float64 {
	return Pearson(ranks(a), ranks(b))
}

func ranks(v []float64) []float64 {
	r := make([]float64, len(v))
	for i := range v {
		var rank float64
		for j := range v {
			if v[j] < v[i] {
				rank++
			}
		}
		r[i] = rank
	}
	return r
}
