package main

import (
	"sort"
	"time"
)

// quantile returns the q-quantile (nearest rank) of sorted values; 0 for
// an empty sample.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))+0.5) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// ms converts durations to sorted milliseconds.
func ms(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / 1e6
	}
	sort.Float64s(out)
	return out
}

func sum(ds []time.Duration) time.Duration {
	var t time.Duration
	for _, d := range ds {
		t += d
	}
	return t
}

// ratio is a/b, 0 when b is 0 (a layer the workload never reached).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
