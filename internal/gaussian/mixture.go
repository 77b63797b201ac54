package gaussian

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"cludistream/internal/linalg"
)

// Mixture is a Gaussian mixture model p(x) = Σ_j w_j p(x|j) (Eq. 1 of the
// paper), the representation CluDistream uses for every cluster model on
// both remote sites and the coordinator.
type Mixture struct {
	weights []float64
	comps   []*Component
	// logW caches log(weights[j]) (−Inf for zero weights). Mixtures are
	// immutable, so the cache is computed once in NewMixture instead of
	// once per record in every scoring loop.
	logW []float64
}

// ErrEmptyMixture is returned by constructors given no components.
var ErrEmptyMixture = errors.New("gaussian: mixture needs at least one component")

// NewMixture builds a mixture from parallel weight/component slices. The
// weights are copied and normalized to sum to 1; they must be non-negative
// with a positive sum, and every component must share one dimensionality.
func NewMixture(weights []float64, comps []*Component) (*Mixture, error) {
	sum, err := checkMixture(weights, comps)
	if err != nil {
		return nil, err
	}
	ws := make([]float64, len(weights))
	for i, w := range weights {
		ws[i] = w / sum
	}
	return newMixture(ws, comps), nil
}

// NewNormalizedMixture is NewMixture for weights that are already a
// normalized mixture's — read back from a checkpoint or an archive. They
// are kept bit for bit: a sum of doubles that were each divided by their
// total is often 1 − 2⁻⁵³, so dividing by it once more moves weights by an
// ulp and a recovered coordinator would no longer be bit-identical to the
// one that wrote the checkpoint. The sum must be 1 to within 1e-9.
func NewNormalizedMixture(weights []float64, comps []*Component) (*Mixture, error) {
	sum, err := checkMixture(weights, comps)
	if err != nil {
		return nil, err
	}
	if math.Abs(sum-1) > 1e-9 {
		return nil, fmt.Errorf("gaussian: weights sum to %v, want 1", sum)
	}
	return newMixture(append([]float64(nil), weights...), comps), nil
}

// checkMixture validates parallel weight/component slices and returns the
// weight sum.
func checkMixture(weights []float64, comps []*Component) (float64, error) {
	if len(comps) == 0 {
		return 0, ErrEmptyMixture
	}
	if len(weights) != len(comps) {
		return 0, fmt.Errorf("gaussian: %d weights for %d components", len(weights), len(comps))
	}
	d := comps[0].Dim()
	var sum float64
	for i, w := range weights {
		if w < 0 || math.IsNaN(w) {
			return 0, fmt.Errorf("gaussian: negative or NaN weight %v at %d", w, i)
		}
		if comps[i].Dim() != d {
			return 0, fmt.Errorf("gaussian: component %d has dim %d, want %d", i, comps[i].Dim(), d)
		}
		sum += w
	}
	if sum <= 0 {
		return 0, errors.New("gaussian: weights sum to zero")
	}
	return sum, nil
}

// newMixture takes ownership of ws and copies comps.
func newMixture(ws []float64, comps []*Component) *Mixture {
	cs := make([]*Component, len(comps))
	copy(cs, comps)
	lw := make([]float64, len(ws))
	for i, w := range ws {
		lw[i] = math.Log(w) // Log(0) = -Inf, matching the zero-weight skip
	}
	return &Mixture{weights: ws, comps: cs, logW: lw}
}

// MustMixture is NewMixture that panics on error.
func MustMixture(weights []float64, comps []*Component) *Mixture {
	m, err := NewMixture(weights, comps)
	if err != nil {
		panic(err)
	}
	return m
}

// Uniform builds a mixture with equal weights over comps.
func Uniform(comps []*Component) (*Mixture, error) {
	ws := make([]float64, len(comps))
	for i := range ws {
		ws[i] = 1
	}
	return NewMixture(ws, comps)
}

// K returns the number of components.
func (m *Mixture) K() int { return len(m.comps) }

// Dim returns the data dimensionality.
func (m *Mixture) Dim() int { return m.comps[0].Dim() }

// Weight returns w_j.
func (m *Mixture) Weight(j int) float64 { return m.weights[j] }

// Weights returns a copy of the weight vector.
func (m *Mixture) Weights() []float64 {
	return append([]float64(nil), m.weights...)
}

// Component returns component j (immutable).
func (m *Mixture) Component(j int) *Component { return m.comps[j] }

// Components returns a copy of the component slice (components themselves
// are shared — they are immutable).
func (m *Mixture) Components() []*Component {
	return append([]*Component(nil), m.comps...)
}

// LogPDF returns log p(x) = log Σ_j w_j p(x|j), evaluated stably with
// log-sum-exp. Two scratch vectors are allocated per call (not per
// component); the fit test and the E-step funnel through here, so the
// allocation profile matters.
func (m *Mixture) LogPDF(x linalg.Vector) float64 {
	diff := linalg.NewVector(m.Dim())
	half := linalg.NewVector(m.Dim())
	return m.logPDFScratch(x, diff, half)
}

func (m *Mixture) logPDFScratch(x, diff, half linalg.Vector) float64 {
	lse := math.Inf(-1)
	for j, c := range m.comps {
		if m.weights[j] == 0 {
			continue
		}
		lp := m.logW[j] + c.LogProbScratch(x, diff, half)
		lse = LogAdd(lse, lp)
	}
	return lse
}

// PDF returns the density p(x).
func (m *Mixture) PDF(x linalg.Vector) float64 { return math.Exp(m.LogPDF(x)) }

// MaxComponentLogPDF returns max_j log(w_j·p(x|j)) — the "sharpened"
// statistic the proof of Theorem 2 substitutes for the full mixture
// likelihood ("we use the maximal probability of x belongs to one of the
// clusters instead of the overall probability").
func (m *Mixture) MaxComponentLogPDF(x linalg.Vector) float64 {
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

// AvgLogLikelihood is Definition 1: (1/|D|)·Σ_x log p(x). It is the quality
// measure used by every experiment in Section 6 and the statistic of the
// J_fit test. An empty data set yields 0. It runs on the batched scoring
// kernel (see batch.go), which is bit-identical to summing LogPDF per
// record but streams through the data block-wise.
func (m *Mixture) AvgLogLikelihood(data []linalg.Vector) float64 {
	return m.AvgLogLikelihoodScratch(data, nil)
}

// AvgMaxComponentLL is AvgLogLikelihood with the sharpened per-record
// statistic of Theorem 2's proof. Batched like AvgLogLikelihood.
func (m *Mixture) AvgMaxComponentLL(data []linalg.Vector) float64 {
	return m.AvgMaxComponentLLScratch(data, nil)
}

// PosteriorInto writes Pr(j|x) = w_j·p(x|j) / p(x) (Eq. 2) for all j into
// dst, which must have length K. It returns log p(x) as a by-product (the
// E-step wants both).
func (m *Mixture) PosteriorInto(x linalg.Vector, dst []float64) float64 {
	if len(dst) != len(m.comps) {
		panic("gaussian: posterior buffer length mismatch")
	}
	diff := linalg.NewVector(m.Dim())
	half := linalg.NewVector(m.Dim())
	lse := math.Inf(-1)
	for j, c := range m.comps {
		if m.weights[j] == 0 {
			dst[j] = math.Inf(-1)
			continue
		}
		dst[j] = m.logW[j] + c.LogProbScratch(x, diff, half)
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

// Posterior returns Pr(·|x) as a fresh slice.
func (m *Mixture) Posterior(x linalg.Vector) []float64 {
	dst := make([]float64, len(m.comps))
	m.PosteriorInto(x, dst)
	return dst
}

// Sample draws one record: pick a component by weight, then sample it.
func (m *Mixture) Sample(rng *rand.Rand) linalg.Vector {
	j := m.SampleComponentIndex(rng)
	return m.comps[j].Sample(rng)
}

// SampleComponentIndex draws a component index distributed as the weights.
func (m *Mixture) SampleComponentIndex(rng *rand.Rand) int {
	u := rng.Float64()
	var acc float64
	for j, w := range m.weights {
		acc += w
		if u < acc {
			return j
		}
	}
	return len(m.weights) - 1
}

// SampleN draws n records.
func (m *Mixture) SampleN(rng *rand.Rand, n int) []linalg.Vector {
	out := make([]linalg.Vector, n)
	for i := range out {
		out[i] = m.Sample(rng)
	}
	return out
}

// Reweighted returns a mixture with the same components and new weights.
func (m *Mixture) Reweighted(weights []float64) (*Mixture, error) {
	return NewMixture(weights, m.comps)
}

// Moments returns the overall mean and covariance of the mixture:
// μ = Σ w_j μ_j and Σ = Σ w_j (Σ_j + μ_j μ_jᵀ) − μμᵀ. The coordinator uses
// these as the parameters (μ_Mix, Σ_Mix) of a father mixture node in the
// M_split/M_remerge criteria (Eq. 6).
func (m *Mixture) Moments() (linalg.Vector, *linalg.Sym) {
	d := m.Dim()
	mean := linalg.NewVector(d)
	for j, c := range m.comps {
		mean.AXPYInPlace(m.weights[j], c.Mean())
	}
	cov := linalg.NewSym(d)
	for j, c := range m.comps {
		cov.AddSym(m.weights[j], c.Cov())
		diff := c.Mean().Sub(mean)
		cov.AddOuterScaled(m.weights[j], diff)
	}
	return mean, cov
}

// String renders a compact summary.
func (m *Mixture) String() string {
	return fmt.Sprintf("Mixture(K=%d, d=%d)", m.K(), m.Dim())
}

// Signature returns a cheap change-detection fingerprint of the mixture:
// component count plus a weighted hash of means and weights. Two mixtures
// with equal signatures are almost surely identical; hierarchy nodes use
// this to decide whether their locally-observed model changed enough to
// re-upload (Section 7's event-driven propagation).
func (m *Mixture) Signature() float64 {
	sig := float64(m.K()) * 1e9
	for j := 0; j < m.K(); j++ {
		w := m.weights[j]
		for i, v := range m.comps[j].Mean() {
			sig += w * v * float64(i+1)
		}
		sig += w * float64(j+1) * 13.37
	}
	return sig
}

// ApproxEqual reports whether two mixtures describe materially the same
// model: identical component counts, weights within weightTol, and
// component means within meanTol per coordinate (matched positionally —
// coordinator snapshots keep stable group ordering). Hierarchy nodes use
// this as the §7 "locally-observed Gaussian mixture model changes" test:
// weight drift within tolerance does not trigger a re-upload.
func (m *Mixture) ApproxEqual(o *Mixture, weightTol, meanTol float64) bool {
	if o == nil || m.K() != o.K() || m.Dim() != o.Dim() {
		return false
	}
	for j := 0; j < m.K(); j++ {
		if math.Abs(m.weights[j]-o.weights[j]) > weightTol {
			return false
		}
		if !m.comps[j].Mean().Equal(o.comps[j].Mean(), meanTol) {
			return false
		}
	}
	return true
}

// LogAdd returns log(e^a + e^b) stably, as a + log1p(e^(b−a)) with a ≥ b.
// It is the one log-sum-exp step of the repository: the J_fit test, the
// E-step and the query tier all reduce through it, so they agree bit for
// bit by construction.
//
// It returns a without evaluating Exp and Log1p when that sum provably
// rounds back to a. With biased exponent e ≥ 1, |a| ≥ 2^(e−1023), so both
// floats next to a are at least 2^(e−1076) away and any t < 2^(e−1077)
// added to a rounds to a. Since log1p(x) ≤ x, skipping only when
// e^(b−a) < 2^(e−1078) leaves a factor of two for the rounding of Exp,
// Log1p and the threshold itself. Zero and subnormal a (e = 0) always
// take the formula, which keeps −0 + 0 = +0. NaN fails the comparison, so
// it also takes the formula. The result is bit-identical to the formula;
// TestLogAddMatchesFormula checks this.
func LogAdd(a, b float64) float64 {
	if math.IsInf(a, -1) {
		return b
	}
	if math.IsInf(b, -1) {
		return a
	}
	if a < b {
		a, b = b, a
	}
	d := b - a
	if e := int(math.Float64bits(a) >> 52 & 0x7ff); e != 0 && d < float64(e-1078)*math.Ln2 {
		return a
	}
	return a + math.Log1p(math.Exp(d))
}
