package gaussian

import (
	"math"
	"math/rand"

	"cludistream/internal/linalg"
	"cludistream/internal/simplex"
)

// This file implements the actual merging of two Gaussian components into
// one (Section 5.2.1): the closed-form moment merge used as the starting
// point, the Monte-Carlo estimator of the paper's L1 accuracy-loss l(x),
// and the Nelder–Mead refinement that minimizes it.

// MomentMerge returns the weight, mean and covariance of the Gaussian that
// matches the first two moments of the pair (w_i·p_i + w_j·p_j):
//
//	w  = w_i + w_j
//	μ  = (w_i·μ_i + w_j·μ_j) / w
//	Σ  = (w_i·(Σ_i + μ_iμ_iᵀ) + w_j·(Σ_j + μ_jμ_jᵀ)) / w − μμᵀ
//
// This is the optimal single-Gaussian approximation under KL and serves as
// the simplex starting point.
func MomentMerge(wi float64, ci *Component, wj float64, cj *Component) (float64, linalg.Vector, *linalg.Sym) {
	w := wi + wj
	d := ci.Dim()
	mean := linalg.NewVector(d)
	mean.AXPYInPlace(wi/w, ci.Mean())
	mean.AXPYInPlace(wj/w, cj.Mean())

	cov := linalg.NewSym(d)
	cov.AddSym(wi/w, ci.Cov())
	cov.AddSym(wj/w, cj.Cov())
	di := ci.Mean().Sub(mean)
	dj := cj.Mean().Sub(mean)
	cov.AddOuterScaled(wi/w, di)
	cov.AddOuterScaled(wj/w, dj)
	return w, mean, cov
}

// L1Loss estimates the paper's accuracy-loss
//
//	l = ∫ |w_i·p(x|i) + w_j·p(x|j) − (w_i+w_j)·p(x|i′)| dx
//
// by importance sampling: x is drawn from the normalized parent pair
// q(x) = (w_i·p_i + w_j·p_j)/(w_i+w_j) and the integrand is averaged as
// |a(x) − b(x)|/q(x). The estimator is unbiased wherever q > 0, and the
// merged density i′ always lives between the parents, so coverage is good.
// nSamples ≤ 0 selects 256; FitMerge steers Nelder–Mead with 128 by
// default (MergeOptions.Samples).
//
// The draws and the parent densities do not depend on the merged component,
// so they live in a lossPanel; L1Loss draws one and scores merged on it.
func L1Loss(wi float64, ci *Component, wj float64, cj *Component, merged *Component, nSamples int, rng *rand.Rand) float64 {
	if nSamples <= 0 {
		nSamples = 256
	}
	return newLossPanel(wi, ci, wj, cj, nSamples, rng).lossOf(merged)
}

// lossPanel is the part of the L1Loss estimator that is the same for every
// candidate merged component of one parent pair: the sample points and the
// parent mixture evaluated on them. FitMerge's objective uses common random
// numbers — every evaluation sees the same draws — so one panel serves the
// whole simplex search and an evaluation only has to score its candidate.
type lossPanel struct {
	w float64 // w_i + w_j
	n int     // samples drawn: the estimator's divisor
	// The samples at which q is positive and finite, in draw order; the
	// estimator skips the others, so they are not kept.
	xs []linalg.Vector
	a  []float64 // w_i·p_i(x) + w_j·p_j(x)
	q  []float64 // a / w, the importance density
	// Scratch of one evaluation: the d × n panel of x − μ′ that
	// Cholesky.QuadFormRows works on at every order but 4 (at the daemons'
	// d = 4 it is not touched), and the squared Mahalanobis distances.
	diff []float64
	maha []float64
}

// newLossPanel draws nSamples points from the normalized parent pair,
// consuming rng exactly as a per-candidate estimator would, and then
// evaluates the parents on all of them; the evaluation draws nothing, so
// the draws are those of an estimator that interleaves the two.
func newLossPanel(wi float64, ci *Component, wj float64, cj *Component, nSamples int, rng *rand.Rand) *lossPanel {
	d := ci.Dim()
	w := wi + wj
	pi := wi / w
	p := &lossPanel{
		w:    w,
		n:    nSamples,
		xs:   make([]linalg.Vector, nSamples),
		a:    make([]float64, nSamples),
		q:    make([]float64, nSamples),
		diff: make([]float64, d*nSamples),
		maha: make([]float64, nSamples),
	}
	points := make([]float64, d*nSamples)
	for s := range p.xs {
		x := linalg.Vector(points[s*d : (s+1)*d : (s+1)*d])
		if rng.Float64() < pi {
			ci.SampleInto(rng, x)
		} else {
			cj.SampleInto(rng, x)
		}
		p.xs[s] = x
	}
	// Each parent's log-density is Component.LogProb's expression,
	// logNorm − 0.5·maha, on the batched kernel, which is bit-identical to
	// it per sample. p.a holds p_i(x) until p_j's pass folds it in.
	ci.chol.QuadFormRows(p.xs, ci.mean, p.diff, p.maha)
	for s, m := range p.maha {
		p.a[s] = math.Exp(ci.logNorm - 0.5*m)
	}
	cj.chol.QuadFormRows(p.xs, cj.mean, p.diff, p.maha)
	kept := 0
	for s, m := range p.maha {
		a := wi*p.a[s] + wj*math.Exp(cj.logNorm-0.5*m)
		q := a / w
		if q <= 0 || math.IsInf(q, 0) || math.IsNaN(q) {
			continue
		}
		p.xs[kept], p.a[kept], p.q[kept] = p.xs[s], a, q
		kept++
	}
	p.xs, p.a, p.q = p.xs[:kept], p.a[:kept], p.q[:kept]
	return p
}

// loss scores the Gaussian with the given mean, covariance factor and log
// normalizing constant on the panel. It does not allocate. The candidate's
// squared Mahalanobis distances come from QuadFormRows, bit-identical per
// sample to Component.LogProb's.
func (p *lossPanel) loss(mean linalg.Vector, chol *linalg.Cholesky, logNorm float64) float64 {
	count := len(p.xs)
	chol.QuadFormRows(p.xs, mean, p.diff, p.maha)
	var acc float64
	for s := 0; s < count; s++ {
		b := p.w * math.Exp(logNorm-0.5*p.maha[s])
		acc += math.Abs(p.a[s]-b) / p.q[s]
	}
	return acc / float64(p.n)
}

// lossOf scores component c on the panel.
func (p *lossPanel) lossOf(c *Component) float64 { return p.loss(c.mean, c.chol, c.logNorm) }

// MergeOptions tunes FitMerge. The zero value selects the defaults the
// experiments use.
type MergeOptions struct {
	// Samples is the Monte-Carlo sample count per objective evaluation
	// (default 128).
	Samples int
	// MaxIter caps simplex iterations (default 25·d — merging is on the
	// coordinator's critical path, so the budget is deliberately tight).
	MaxIter int
	// Seed drives the common-random-numbers stream used across objective
	// evaluations; fixed CRN makes the noisy objective coherent for the
	// simplex. Zero means seed 1.
	Seed int64
	// MomentOnly skips the simplex refinement and returns the moment merge
	// directly (the ablation of DESIGN.md §5).
	MomentOnly bool
}

// FitMerge merges components i and j (with weights wi, wj) into a single
// component i′ by minimizing the L1 accuracy-loss with downhill simplex,
// starting from the moment merge. It returns the merged weight and
// component. The simplex optimizes the mean and the log of the covariance
// diagonal scale factors — a (2d)-parameter search that keeps Σ positive
// definite by construction while still letting the fit trade variance
// against position; full-matrix search would need d(d+3)/2 parameters for
// marginal gain.
func FitMerge(wi float64, ci *Component, wj float64, cj *Component, opt MergeOptions) (float64, *Component) {
	w, mean0, cov0 := MomentMerge(wi, ci, wj, cj)
	base, err := NewComponent(mean0, cov0, 0)
	if err != nil {
		// Only numerically absurd parents — means near overflow, variances
		// hundreds of orders of magnitude apart, as a corrupt or hostile
		// model can carry — have a moment merge with no finite Cholesky
		// factor. The pair merges to its heavier parent's shape instead of
		// taking the coordinator down.
		if wj > wi {
			return w, cj
		}
		return w, ci
	}
	if opt.MomentOnly {
		return w, base
	}
	if opt.Samples <= 0 {
		opt.Samples = 128
	}
	seed := opt.Seed
	if seed == 0 {
		seed = 1
	}
	d := ci.Dim()
	if opt.MaxIter <= 0 {
		opt.MaxIter = 25 * d
	}

	// Common random numbers: every objective evaluation, and the moment
	// merge it is finally compared with, is scored on the one panel drawn
	// from this seed.
	obj := newMergeObjective(cov0, newLossPanel(wi, ci, wj, cj, opt.Samples, rand.New(rand.NewSource(seed))))

	p0 := make([]float64, 2*d)
	copy(p0, mean0)
	res, err := simplex.Minimize(obj.eval, p0, simplex.Options{MaxIter: opt.MaxIter, Step: 0.05, TolF: 1e-6, TolX: 1e-6})
	if err != nil {
		return w, base
	}
	// Only accept the refined parameters if they actually improve on the
	// moment merge under the same CRN stream.
	if res.F >= obj.panel.lossOf(base) {
		return w, base
	}
	obj.setCov(res.X[d:])
	merged, err2 := NewComponent(linalg.Vector(res.X[:d]), obj.cov, 0)
	if err2 != nil {
		return w, base
	}
	return w, merged
}

// mergeObjective is the function FitMerge's simplex minimizes, with the
// scratch one evaluation needs so that it does not allocate. Its parameter
// vector is [μ_1..μ_d, log s_1..log s_d] where Σ′ has entries
// Σ′[a][b] = s_a·s_b·Σ0[a][b] — a diagonal congruence of the moment
// covariance Σ0, which preserves positive definiteness for any s > 0.
type mergeObjective struct {
	cov0  *linalg.Sym
	panel *lossPanel
	scale linalg.Vector   // s of the last setCov
	cov   *linalg.Sym     // Σ′ of the last setCov
	chol  linalg.Cholesky // its factor
}

func newMergeObjective(cov0 *linalg.Sym, panel *lossPanel) *mergeObjective {
	d := cov0.Order()
	return &mergeObjective{cov0: cov0, panel: panel, scale: linalg.NewVector(d), cov: linalg.NewSym(d)}
}

// setCov fills o.scale and o.cov from the log scale factors.
func (o *mergeObjective) setCov(logScale []float64) {
	for a := range o.scale {
		o.scale[a] = math.Exp(logScale[a])
	}
	for a, sa := range o.scale {
		for b := 0; b <= a; b++ {
			o.cov.Set(a, b, sa*o.scale[b]*o.cov0.At(a, b))
		}
	}
}

// eval returns the panel's L1 loss of the candidate p describes, +Inf for
// a candidate that is out of bounds or not a Gaussian.
func (o *mergeObjective) eval(p []float64) float64 {
	d := len(o.scale)
	mean := linalg.Vector(p[:d])
	o.setCov(p[d:])
	for _, sa := range o.scale {
		// The merged covariance may shrink or grow only moderately
		// relative to the moment match: merge candidates are close (the
		// coordinator gates on M_merge), and an unbounded scale lets
		// the simplex chase Monte-Carlo noise into degenerate shapes.
		if sa > 2 || sa < 0.5 {
			return math.Inf(1)
		}
	}
	if !mean.IsFinite() || !o.cov.IsFinite() {
		return math.Inf(1)
	}
	// NewComponent's arithmetic, on scratch the search reuses; a covariance
	// that does not factor takes NewComponent's own repair path.
	if linalg.CholeskyDecomposeInto(o.cov, &o.chol) != nil {
		cand, err := NewComponent(mean, o.cov, 0)
		if err != nil {
			return math.Inf(1)
		}
		return o.panel.lossOf(cand)
	}
	return o.panel.loss(mean, &o.chol, logNormOf(&o.chol))
}
