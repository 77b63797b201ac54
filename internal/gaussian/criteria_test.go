package gaussian

import (
	"math"
	"math/rand"
	"testing"

	"cludistream/internal/linalg"
)

func TestCrossMahalanobisKnown(t *testing.T) {
	// Unit covariances: Σi⁻¹+Σj⁻¹ = 2I, so distance = 2‖μi−μj‖².
	a := Spherical(linalg.Vector{0, 0}, 1)
	b := Spherical(linalg.Vector{3, 4}, 1)
	if got := CrossMahalanobisSq(a, b); math.Abs(got-50) > 1e-10 {
		t.Fatalf("cross-maha = %v, want 50", got)
	}
}

func TestCrossMahalanobisSymmetric(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	for i := 0; i < 20; i++ {
		a, b := randComponent(rng, 3), randComponent(rng, 3)
		ab := CrossMahalanobisSq(a, b)
		ba := CrossMahalanobisSq(b, a)
		if math.Abs(ab-ba) > 1e-9*(1+ab) {
			t.Fatalf("not symmetric: %v vs %v", ab, ba)
		}
		if ab < 0 {
			t.Fatalf("negative distance %v", ab)
		}
	}
}

func TestMMergeOrdering(t *testing.T) {
	// Closer components must have larger M_merge.
	base := Spherical(linalg.Vector{0}, 1)
	near := Spherical(linalg.Vector{0.5}, 1)
	far := Spherical(linalg.Vector{5}, 1)
	if MMerge(base, near) <= MMerge(base, far) {
		t.Fatal("M_merge does not prefer nearby components")
	}
	// Identical means: +Inf.
	if !math.IsInf(MMerge(base, Spherical(linalg.Vector{0}, 2)), 1) {
		t.Fatal("identical means should give +Inf M_merge")
	}
}

func TestMSplitRemergeReciprocal(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	c := randComponent(rng, 2)
	father := MustComponent(linalg.Vector{5, -1}, linalg.NewSymFrom(2, []float64{2, 0.3, 0.3, 1}))
	ms := MSplit(c, father)
	// M_remerge is what the coordinator records at join: MMerge against
	// the father.
	mr := MMerge(c, father)
	// The paper's identity: M_split = 1/M_remerge.
	if math.Abs(ms*mr-1) > 1e-9 {
		t.Fatalf("M_split·M_remerge = %v, want 1", ms*mr)
	}
}

func TestMSplitSingularFather(t *testing.T) {
	c := Spherical(linalg.Vector{0, 0}, 1)
	// A perfectly correlated father covariance: NewComponent repairs it,
	// and M_split against the repaired father must be a number, finite or
	// +Inf, never NaN.
	sing := linalg.NewSymFrom(2, []float64{1, 1, 1, 1})
	father, err := NewComponent(linalg.Vector{3, 3}, sing, 0)
	if err != nil {
		t.Fatalf("singular father not repaired: %v", err)
	}
	if got := MSplit(c, father); math.IsNaN(got) {
		t.Fatal("M_split returned NaN for singular father")
	}
}

func TestJMergeIdentifiesOverlap(t *testing.T) {
	// Three components: 0 and 1 overlap, 2 is far away. J_merge(0,1) must
	// dominate J_merge(0,2) and J_merge(1,2).
	rng := rand.New(rand.NewSource(53))
	c0 := Spherical(linalg.Vector{0}, 1)
	c1 := Spherical(linalg.Vector{1}, 1)
	c2 := Spherical(linalg.Vector{20}, 1)
	m := MustMixture([]float64{1, 1, 1}, []*Component{c0, c1, c2})
	data := m.SampleN(rng, 3000)
	j01 := JMerge(m, 0, 1, data)
	j02 := JMerge(m, 0, 2, data)
	j12 := JMerge(m, 1, 2, data)
	if j01 <= j02 || j01 <= j12 {
		t.Fatalf("J_merge(0,1)=%v should dominate (0,2)=%v and (1,2)=%v", j01, j02, j12)
	}
}

// TestJMergeMatchesScalar pins JMerge, which reads its posteriors from one
// PosteriorBatch pass, bit for bit to a per-record reference built from
// Component.LogProb, log(w_j) and LogAdd, at d = 2, 4 and 8 with component
// 0 at weight zero, over every pair.
func TestJMergeMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(57))
	for _, d := range []int{2, 4, 8} {
		m := randMixture(t, rng, 4, d, true)
		data := randData(rng, 301, d)
		want := make([]float64, m.K()*m.K())
		lp := make([]float64, m.K())
		for _, x := range data {
			lse := math.Inf(-1)
			for j := range lp {
				lp[j] = math.Log(m.Weight(j)) + m.Component(j).LogProb(x)
				lse = LogAdd(lse, lp[j])
			}
			for j := range lp {
				if math.IsInf(lp[j], -1) {
					lp[j] = 0
				} else {
					lp[j] = math.Exp(lp[j] - lse)
				}
			}
			for i := range lp {
				for j := range lp {
					want[i*m.K()+j] += lp[i] * lp[j]
				}
			}
		}
		for i := 0; i < m.K(); i++ {
			for j := 0; j < m.K(); j++ {
				if got := JMerge(m, i, j, data); math.Float64bits(got) != math.Float64bits(want[i*m.K()+j]) {
					t.Fatalf("d=%d J_merge(%d,%d) = %v, scalar %v", d, i, j, got, want[i*m.K()+j])
				}
			}
		}
	}
}

func TestMMergeTracksJMerge(t *testing.T) {
	// The Figure-1 claim in miniature: rank correlation between M_merge and
	// J_merge across all pairs of a fitted model should be strongly
	// positive.
	rng := rand.New(rand.NewSource(54))
	var comps []*Component
	for i := 0; i < 5; i++ {
		comps = append(comps, Spherical(linalg.Vector{float64(i) * 1.5, float64(i%2) * 2}, 0.8))
	}
	m := MustMixture([]float64{1, 1, 1, 1, 1}, comps)
	data := m.SampleN(rng, 4000)

	var mm, jm []float64
	for i := 0; i < m.K(); i++ {
		for j := i + 1; j < m.K(); j++ {
			mm = append(mm, MMerge(m.Component(i), m.Component(j)))
			jm = append(jm, JMerge(m, i, j, data))
		}
	}
	if rho := spearman(mm, jm); rho < 0.7 {
		t.Fatalf("Spearman(M_merge, J_merge) = %v, want ≥ 0.7", rho)
	}
}

// KLDivergence returns KL(a ‖ b) for Gaussians in closed form:
// ½·[tr(Σb⁻¹Σa) + (μb−μa)ᵀΣb⁻¹(μb−μa) − d + log(|Σb|/|Σa|)].
// The paper observes M_merge's distance is the mean-difference part of the
// symmetrized KL; TestSymKLRelatesToCrossMahalanobis checks that relation.
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

func TestKLDivergenceProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	for i := 0; i < 20; i++ {
		a, b := randComponent(rng, 3), randComponent(rng, 3)
		if kl := KLDivergence(a, b); kl < -1e-9 {
			t.Fatalf("KL negative: %v", kl)
		}
		if kl := KLDivergence(a, a); math.Abs(kl) > 1e-9 {
			t.Fatalf("KL(a‖a) = %v, want 0", kl)
		}
	}
}

func TestSymKLRelatesToCrossMahalanobis(t *testing.T) {
	// For equal covariances, SymKL = CrossMahalanobisSq/2 exactly:
	// KL(a‖b)+KL(b‖a) = Δᵀ(Σ⁻¹)Δ while cross-maha = Δᵀ(2Σ⁻¹)Δ.
	cov := linalg.NewSymFrom(2, []float64{2, 0.5, 0.5, 1})
	a := MustComponent(linalg.Vector{0, 0}, cov)
	b := MustComponent(linalg.Vector{1, 2}, cov)
	sym := SymKL(a, b)
	cross := CrossMahalanobisSq(a, b)
	if math.Abs(sym-cross/2) > 1e-9 {
		t.Fatalf("SymKL = %v, cross/2 = %v", sym, cross/2)
	}
}

func TestNormalizeSeries(t *testing.T) {
	got := NormalizeSeries([]float64{2, 4, 6})
	want := []float64{0, 0.5, 1}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-15 {
			t.Fatalf("normalize = %v", got)
		}
	}
	if got := NormalizeSeries([]float64{5, 5}); got[0] != 0 || got[1] != 0 {
		t.Fatalf("constant series should normalize to zeros, got %v", got)
	}
	if got := NormalizeSeries(nil); len(got) != 0 {
		t.Fatal("nil series should give empty result")
	}
}

// spearman computes Spearman's rank correlation.
func spearman(a, b []float64) float64 {
	ra, rb := ranks(a), ranks(b)
	n := float64(len(a))
	var ma, mb float64
	for i := range ra {
		ma += ra[i]
		mb += rb[i]
	}
	ma /= n
	mb /= n
	var cov, va, vb float64
	for i := range ra {
		da, db := ra[i]-ma, rb[i]-mb
		cov += da * db
		va += da * da
		vb += db * db
	}
	return cov / math.Sqrt(va*vb)
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
