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
// where (μMix, ΣMix) are the moments of the father mixture. A component far
// (in this metric) from its father should be split off.
func MSplit(c *Component, mixMean linalg.Vector, mixCov *linalg.Sym) float64 {
	father, err := NewComponent(mixMean, mixCov, 0)
	if err != nil {
		// A singular father (degenerate merged model) cannot hold anything:
		// force a split.
		return math.Inf(1)
	}
	return CrossMahalanobisSq(c, father)
}

// MSplitComp is MSplit against a father that is already a Component.
func MSplitComp(c, father *Component) float64 {
	return CrossMahalanobisSq(c, father)
}

// MRemerge is the re-merge criterion: the reciprocal of MSplit. The split
// component joins the sibling mixture with the largest M_remerge, i.e. the
// nearest one. Note the identity M_split = 1/M_remerge that Algorithm 2's
// stability test relies on.
func MRemerge(c *Component, mixMean linalg.Vector, mixCov *linalg.Sym) float64 {
	d := MSplit(c, mixMean, mixCov)
	if d == 0 {
		return math.Inf(1)
	}
	return 1 / d
}

// KLDivergence returns KL(a ‖ b) for Gaussians in closed form:
// ½·[tr(Σb⁻¹Σa) + (μb−μa)ᵀΣb⁻¹(μb−μa) − d + log(|Σb|/|Σa|)].
// The paper observes M_merge's distance is the mean-difference part of the
// symmetrized KL; this function exists so tests can verify that relation.
func KLDivergence(a, b *Component) float64 {
	d := float64(a.Dim())
	binv := b.CovInverse()
	// tr(Σb⁻¹ Σa)
	var tr float64
	for i := 0; i < a.Dim(); i++ {
		for k := 0; k < a.Dim(); k++ {
			tr += binv.At(i, k) * a.Cov().At(k, i)
		}
	}
	diff := b.Mean().Sub(a.Mean())
	quad := binv.Quad(diff)
	return 0.5 * (tr + quad - d + b.LogDet() - a.LogDet())
}

// SymKL returns KL(a‖b) + KL(b‖a).
func SymKL(a, b *Component) float64 {
	return KLDivergence(a, b) + KLDivergence(b, a)
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
