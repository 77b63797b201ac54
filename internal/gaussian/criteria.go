package gaussian

import (
	"math"

	"cludistream/internal/linalg"
)

// This file implements the coordinator-side structural criteria of
// Section 5.2: SMEM's data-driven J_merge, and the transmit-free
// Mahalanobis surrogates M_merge (Eq. 5), M_split (Eq. 6) and M_remerge
// that CluDistream substitutes for it because raw records never reach the
// coordinator.

// JMerge is SMEM's merge criterion J_merge(i,j) = Σ_x Pr(i|x)·Pr(j|x): two
// components that claim the same records with similar posteriors are merge
// candidates. It needs the raw data, so CluDistream only uses it offline to
// validate M_merge (Figure 1); the posteriors come from one PosteriorBatch
// pass.
func JMerge(m *Mixture, i, j int, data []linalg.Vector) float64 {
	post := linalg.NewMatrix(0, 0)
	m.PosteriorBatch(data, post, nil, nil)
	var sum float64
	for p := range data {
		sum += post.At(p, i) * post.At(p, j)
	}
	return sum
}

// CrossMahalanobisSq returns (μi−μj)ᵀ (Σi⁻¹+Σj⁻¹) (μi−μj), the symmetric
// squared Mahalanobis distance between two components' means that both
// M_merge and M_split are built from. The paper notes it can also be
// derived from the sum of the two directed KL divergences.
func CrossMahalanobisSq(a, b *Component) float64 {
	diff := a.Mean().Sub(b.Mean())
	s := a.CovInverse().Clone()
	s.AddSym(1, b.CovInverse())
	return s.Quad(diff)
}

// MMerge is Eq. 5: M_merge(i,j) = 1 / CrossMahalanobisSq(i,j). Larger
// values mean closer components, hence better merge candidates. Identical
// means give +Inf (merge immediately).
func MMerge(a, b *Component) float64 {
	d := CrossMahalanobisSq(a, b)
	if d == 0 {
		return math.Inf(1)
	}
	return 1 / d
}

// MSplit is Eq. 6: M_split(i, Mix) = (μi−μMix)ᵀ(Σi⁻¹+ΣMix⁻¹)(μi−μMix),
// where the father Mix is the group's representative component. A
// component far (in this metric) from its father should be split off.
// M_remerge is its reciprocal, 1/CrossMahalanobisSq = MMerge: the
// coordinator records it when a component joins a group, and Algorithm 2's
// stability test splits the component once M_split exceeds 1/M_remerge.
func MSplit(c, father *Component) float64 {
	return CrossMahalanobisSq(c, father)
}

// NormalizeSeries min-max normalizes a criterion series to [0,1] the way
// Figure 1 does: (v − min) / (max − min). A constant series maps to all
// zeros.
func NormalizeSeries(vals []float64) []float64 {
	out := make([]float64, len(vals))
	if len(vals) == 0 {
		return out
	}
	lo, hi := vals[0], vals[0]
	for _, v := range vals[1:] {
		lo = math.Min(lo, v)
		hi = math.Max(hi, v)
	}
	if hi == lo {
		return out
	}
	for i, v := range vals {
		out[i] = (v - lo) / (hi - lo)
	}
	return out
}
