package gaussian

import (
	"math"
	"sync"

	"cludistream/internal/linalg"
)

// BatchBlock is the number of records a batched scoring pass processes per
// block: large enough to amortize per-component setup (log-weights,
// factor walks) across many records, small enough that the d×block panel
// and block×K log-prob tile stay resident in L1/L2 cache. Callers that
// decode records as they score them (the query tier's batch endpoint)
// feed the kernels one block at a time.
const BatchBlock = 128

// BatchScratch is the caller-owned workspace of the batched scoring
// kernels. One scratch serves any mixture — buffers grow on demand and are
// reused across calls — but it is not safe for concurrent use; give each
// goroutine its own (the parallel E-step keeps one per worker).
type BatchScratch struct {
	panel []float64 // d × BatchBlock dimension-major diff/half-solve panel
	logp  []float64 // BatchBlock × K per-record component log-probs
	maha  []float64 // BatchBlock squared Mahalanobis distances
	vals  []float64 // BatchBlock per-record reductions (logpdf, max, min)
}

// NewBatchScratch returns an empty scratch; buffers are sized lazily.
func NewBatchScratch() *BatchScratch { return &BatchScratch{} }

func (s *BatchScratch) ensure(d, k int) {
	if need := d * BatchBlock; cap(s.panel) < need {
		s.panel = make([]float64, need)
	} else {
		s.panel = s.panel[:need]
	}
	if need := BatchBlock * k; cap(s.logp) < need {
		s.logp = make([]float64, need)
	} else {
		s.logp = s.logp[:need]
	}
	if cap(s.maha) < BatchBlock {
		s.maha = make([]float64, BatchBlock)
		s.vals = make([]float64, BatchBlock)
	}
}

// scratchPool backs the scratchless convenience entry points
// (AvgLogLikelihood and friends) so every call site in the tree gets
// amortized allocation without threading a scratch through its signature.
var scratchPool = sync.Pool{New: func() any { return NewBatchScratch() }}

// scoreBlock fills s.logp[p*K+j] = log(w_j·p(x_p|j)) for the records xs
// (at most BatchBlock of them), batched per component: one
// Cholesky.QuadFormRows call per component. Per record the arithmetic and
// its order match the scalar logW[j] + (logNorm − ½·QuadForm) path
// exactly, so every entry is bit-identical to what
// PosteriorInto/logPDFScratch would compute.
func (m *Mixture) scoreBlock(xs []linalg.Vector, s *BatchScratch) {
	k := len(m.comps)
	count := len(xs)
	for j, c := range m.comps {
		if m.weights[j] == 0 {
			for p := 0; p < count; p++ {
				s.logp[p*k+j] = math.Inf(-1)
			}
			continue
		}
		c.chol.QuadFormRows(xs, c.mean, s.panel, s.maha)
		lw, ln := m.logW[j], c.logNorm
		for p := 0; p < count; p++ {
			s.logp[p*k+j] = lw + (ln - 0.5*s.maha[p])
		}
	}
}

// lseRows reduces each K-wide row of logp with the same sequential LogAdd
// chain the scalar path uses (−Inf entries are no-ops), keeping the fused
// reduction bit-identical to LogPDF.
func lseRows(logp []float64, count, k int, dst []float64) {
	for p := 0; p < count; p++ {
		row := logp[p*k : p*k+k]
		lse := math.Inf(-1)
		for _, lp := range row {
			lse = LogAdd(lse, lp)
		}
		dst[p] = lse
	}
}

// ScoreBatch writes log p(x) for every record of data into dst (len(data)
// long), bit-identical to calling LogPDF per record but batched: per-model
// constants are loaded once per block instead of once per record. Pass a
// reusable scratch for allocation-free operation, or nil to borrow one
// from an internal pool.
func (m *Mixture) ScoreBatch(data []linalg.Vector, dst []float64, s *BatchScratch) {
	if len(dst) != len(data) {
		panic("gaussian: ScoreBatch dst length mismatch")
	}
	if s == nil {
		s = scratchPool.Get().(*BatchScratch)
		defer scratchPool.Put(s)
	}
	k := len(m.comps)
	s.ensure(m.Dim(), k)
	for base := 0; base < len(data); base += BatchBlock {
		xs := data[base:min(base+BatchBlock, len(data))]
		m.scoreBlock(xs, s)
		lseRows(s.logp, len(xs), k, dst[base:base+len(xs)])
	}
}

// ClassifyBatch assigns every record of data to its argmax-posterior
// component: idx[p] is the winner (strict >, so ties go to the lowest
// index), logPDF[p] is log p(x) reduced with the same sequential LogAdd
// chain as LogPDF, and logPost[p] is the winner's log w_j·p(x|j) minus
// logPDF[p]. All three must be len(data) long. It is the block kernel of
// classification, as ScoreBatch is of density.
func (m *Mixture) ClassifyBatch(data []linalg.Vector, idx []int, logPost, logPDF []float64, s *BatchScratch) {
	if len(idx) != len(data) || len(logPost) != len(data) || len(logPDF) != len(data) {
		panic("gaussian: ClassifyBatch dst length mismatch")
	}
	if s == nil {
		s = scratchPool.Get().(*BatchScratch)
		defer scratchPool.Put(s)
	}
	k := len(m.comps)
	s.ensure(m.Dim(), k)
	for base := 0; base < len(data); base += BatchBlock {
		xs := data[base:min(base+BatchBlock, len(data))]
		m.scoreBlock(xs, s)
		lse := logPDF[base : base+len(xs)]
		lseRows(s.logp, len(xs), k, lse)
		for p := range xs {
			best, bestLP := 0, math.Inf(-1)
			for j, lp := range s.logp[p*k : p*k+k] {
				if lp > bestLP {
					best, bestLP = j, lp
				}
			}
			idx[base+p] = best
			logPost[base+p] = bestLP - lse[p]
		}
	}
}

// PosteriorBatch computes posteriors Pr(j|x) (Eq. 2) for every record of
// data into the rows of post (reshaped to len(data)×K) and, when logpdf is
// non-nil, the per-record log p(x) into it. It returns Σ log p(x) summed
// in record order. Results are bit-identical to PosteriorInto per record;
// this is the E-step kernel.
func (m *Mixture) PosteriorBatch(data []linalg.Vector, post *linalg.Matrix, logpdf []float64, s *BatchScratch) float64 {
	if logpdf != nil && len(logpdf) != len(data) {
		panic("gaussian: PosteriorBatch logpdf length mismatch")
	}
	if s == nil {
		s = scratchPool.Get().(*BatchScratch)
		defer scratchPool.Put(s)
	}
	k := len(m.comps)
	s.ensure(m.Dim(), k)
	post.Reset(len(data), k)
	out := post.Data()
	var sum float64
	for base := 0; base < len(data); base += BatchBlock {
		xs := data[base:min(base+BatchBlock, len(data))]
		m.scoreBlock(xs, s)
		lseRows(s.logp, len(xs), k, s.vals)
		for p := 0; p < len(xs); p++ {
			lse := s.vals[p]
			row := s.logp[p*k : p*k+k]
			dst := out[(base+p)*k : (base+p)*k+k]
			for j, lp := range row {
				if math.IsInf(lp, -1) {
					dst[j] = 0
					continue
				}
				dst[j] = math.Exp(lp - lse)
			}
			sum += lse
			if logpdf != nil {
				logpdf[base+p] = lse
			}
		}
	}
	return sum
}

// AvgLogLikelihoodScratch is AvgLogLikelihood with a caller-owned scratch
// for allocation-free repeated evaluation (the site's J_fit test scores
// every chunk through here).
func (m *Mixture) AvgLogLikelihoodScratch(data []linalg.Vector, s *BatchScratch) float64 {
	if len(data) == 0 {
		return 0
	}
	if s == nil {
		s = scratchPool.Get().(*BatchScratch)
		defer scratchPool.Put(s)
	}
	k := len(m.comps)
	s.ensure(m.Dim(), k)
	var sum float64
	for base := 0; base < len(data); base += BatchBlock {
		xs := data[base:min(base+BatchBlock, len(data))]
		m.scoreBlock(xs, s)
		lseRows(s.logp, len(xs), k, s.vals)
		for p := 0; p < len(xs); p++ {
			sum += s.vals[p]
		}
	}
	return sum / float64(len(data))
}

// AvgLogLikelihoodInterval returns an interval [lo, hi] around
// AvgLogLikelihoodScratch(data) without a single Exp or Log1p call. The
// per-record terms l_j = log(w_j·p(x|j)) come from scoreBlock, bit-identical
// to the exact path's, and each record's log-sum-exp is bounded by its row
// maximum m:
//
//	m ≤ log Σ_j e^(l_j) = m + log1p(S) ≤ m + S,   S = Σ_{j≠argmax} e^(l_j−m),
//
// with every term of S replaced by expUpper's bound. lo is the mean of the
// row maxima; the exact LogAdd chain never falls below its largest term and
// float addition is monotone, so lo never exceeds the exact average. hi
// brackets it up to the rounding of that chain, of order K·2⁻⁵²·|avg|, so a
// caller that decides on the interval keeps a guard of that order. ok is
// false — run the exact scan — for empty data, any NaN, and a non-finite lo
// or hi.
func (m *Mixture) AvgLogLikelihoodInterval(data []linalg.Vector, s *BatchScratch) (lo, hi float64, ok bool) {
	if len(data) == 0 {
		return 0, 0, false
	}
	if s == nil {
		s = scratchPool.Get().(*BatchScratch)
		defer scratchPool.Put(s)
	}
	k := len(m.comps)
	s.ensure(m.Dim(), k)
	var sumLo, sumHi float64
	for base := 0; base < len(data); base += BatchBlock {
		xs := data[base:min(base+BatchBlock, len(data))]
		m.scoreBlock(xs, s)
		for p := range xs {
			row := s.logp[p*k : p*k+k]
			top, arg := row[0], 0
			for j := 1; j < k; j++ {
				if row[j] > top {
					top, arg = row[j], j
				}
			}
			var rest float64
			for j, lp := range row {
				if j != arg {
					rest += expUpper(lp - top)
				}
			}
			sumLo += top
			sumHi += top + rest
		}
	}
	n := float64(len(data))
	lo, hi = sumLo/n, sumHi/n
	if math.IsNaN(lo) || math.IsNaN(hi) || math.IsInf(lo, 0) || math.IsInf(hi, 0) {
		return 0, 0, false
	}
	return lo, hi, true
}

// expUpper bounds e^d from above for d ≤ 0 without a transcendental call.
// Split y = d·log₂e as n + f with n = ⌈y⌉ and f ∈ (−1, 0]. On [−1, 0] the
// convex 2^f lies under its chord 1 + f/2, so e^d ≤ 2^n·(1 + f/2), built by
// adding n to the exponent bits of 1 + f/2; it overestimates by at most
// 6.15 %. Below y = −60 the bound is the constant 2⁻⁶⁰. NaN stays NaN.
func expUpper(d float64) float64 {
	y := d * math.Log2E
	switch {
	case y < -60:
		return 0x1p-60
	case y != y:
		return y
	}
	n := int64(y) // truncation toward zero is ⌈y⌉ for y ≤ 0
	f := y - float64(n)
	return math.Float64frombits(math.Float64bits(1+0.5*f) + uint64(n)<<52)
}

// AvgLogLikelihoodBounds is AvgLogLikelihoodInterval; topM is ignored. It
// keeps the signature of the k-d-pruned scorer it replaced for the
// benchmark's kernel probe.
func (m *Mixture) AvgLogLikelihoodBounds(data []linalg.Vector, topM int, s *BatchScratch) (lo, hi float64, ok bool) {
	return m.AvgLogLikelihoodInterval(data, s)
}

// AvgLogLikelihoodMulti writes, for each mixture of ms, the average
// log-likelihood of data into dst (len(ms) long), reading the data exactly
// once: every block of records is scored against all mixtures while it is
// cache-resident, instead of re-traversing the chunk per model. Each entry
// is bit-identical to AvgLogLikelihoodScratch on that mixture — the
// per-mixture arithmetic and accumulation order are unchanged; only the
// data traversal is shared. The site's refit re-scan scores every model it
// tested through here in one pass.
func AvgLogLikelihoodMulti(ms []*Mixture, data []linalg.Vector, dst []float64, s *BatchScratch) {
	if len(dst) != len(ms) {
		panic("gaussian: AvgLogLikelihoodMulti dst length mismatch")
	}
	for i := range dst {
		dst[i] = 0
	}
	if len(data) == 0 || len(ms) == 0 {
		return
	}
	if s == nil {
		s = scratchPool.Get().(*BatchScratch)
		defer scratchPool.Put(s)
	}
	for base := 0; base < len(data); base += BatchBlock {
		xs := data[base:min(base+BatchBlock, len(data))]
		for i, m := range ms {
			k := len(m.comps)
			s.ensure(m.Dim(), k)
			m.scoreBlock(xs, s)
			lseRows(s.logp, len(xs), k, s.vals)
			for p := 0; p < len(xs); p++ {
				dst[i] += s.vals[p]
			}
		}
	}
	for i := range dst {
		dst[i] /= float64(len(data))
	}
}

// AvgMaxComponentLLScratch is AvgMaxComponentLL with caller-owned scratch.
func (m *Mixture) AvgMaxComponentLLScratch(data []linalg.Vector, s *BatchScratch) float64 {
	if len(data) == 0 {
		return 0
	}
	if s == nil {
		s = scratchPool.Get().(*BatchScratch)
		defer scratchPool.Put(s)
	}
	k := len(m.comps)
	s.ensure(m.Dim(), k)
	var sum float64
	for base := 0; base < len(data); base += BatchBlock {
		xs := data[base:min(base+BatchBlock, len(data))]
		m.scoreBlock(xs, s)
		for p := 0; p < len(xs); p++ {
			row := s.logp[p*k : p*k+k]
			best := math.Inf(-1)
			for _, lp := range row {
				if lp > best {
					best = lp
				}
			}
			sum += best
		}
	}
	return sum / float64(len(data))
}

// NearestComponents finds, for every record, the component with the
// smallest squared Mahalanobis distance (ties to the lowest index, like a
// scalar ascending scan with strict <). idx and dist receive the winning
// index and distance; either may be nil. SEM's compression phase is the
// main consumer — it classifies whole buffers at once.
func (m *Mixture) NearestComponents(data []linalg.Vector, idx []int, dist []float64, s *BatchScratch) {
	if s == nil {
		s = scratchPool.Get().(*BatchScratch)
		defer scratchPool.Put(s)
	}
	s.ensure(m.Dim(), len(m.comps))
	for base := 0; base < len(data); base += BatchBlock {
		xs := data[base:min(base+BatchBlock, len(data))]
		best := s.vals[:len(xs)]
		bestJ := s.logp[:len(xs)] // reuse as float-encoded winners
		for p := range best {
			best[p] = math.Inf(1)
			bestJ[p] = 0
		}
		for j, c := range m.comps {
			c.chol.QuadFormRows(xs, c.mean, s.panel, s.maha)
			for p := 0; p < len(xs); p++ {
				if s.maha[p] < best[p] {
					best[p] = s.maha[p]
					bestJ[p] = float64(j)
				}
			}
		}
		for p := 0; p < len(xs); p++ {
			if idx != nil {
				idx[base+p] = int(bestJ[p])
			}
			if dist != nil {
				dist[base+p] = best[p]
			}
		}
	}
}
