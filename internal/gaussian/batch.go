package gaussian

import (
	"math"
	"sync"
	"unsafe"

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
	tab   []float64 // intervalQuads' constant table (intervalTable)
	// tabFor is the mixture intervalTable last laid out tab for, and
	// tabAt its table in tab, nil when the kernel does not serve it.
	// Mixtures are immutable and the pointer keeps tabFor alive, so the
	// same pointer means the same constants.
	tabFor *Mixture
	tabAt  *float64
	lse    *lseWork // lseRows' kernel workspace, where lseKernel is set
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
	if s.lse == nil && lseKernel {
		s.lse = new(lseWork)
	}
}

// scratchPool backs the scratchless convenience entry points
// (AvgLogLikelihood and friends) so every call site in the tree gets
// amortized allocation without threading a scratch through its signature.
var scratchPool = sync.Pool{New: func() any { return NewBatchScratch() }}

// scoreBlock fills s.logp[p*K+j] = log(w_j·p(x_p|j)) for the records xs
// (at most BatchBlock of them), batched per component: one
// Cholesky.QuadFormRows call per component. Per record the arithmetic and
// its order match the scalar log(w_j) + Component.LogProb(x) exactly, so
// every entry is bit-identical to it. With bound set the Mahalanobis terms
// come from Cholesky.QuadFormRowsBound instead, and each entry is only
// within the allowance AvgLogLikelihoodInterval derives; nothing else
// scores that way.
func (m *Mixture) scoreBlock(xs []linalg.Vector, s *BatchScratch, bound bool) {
	k := len(m.comps)
	count := len(xs)
	for j, c := range m.comps {
		if m.weights[j] == 0 {
			for p := 0; p < count; p++ {
				s.logp[p*k+j] = math.Inf(-1)
			}
			continue
		}
		if bound {
			c.chol.QuadFormRowsBound(xs, c.mean, s.panel, s.maha)
		} else {
			c.chol.QuadFormRows(xs, c.mean, s.panel, s.maha)
		}
		lw, ln := m.logW[j], c.logNorm
		i := j
		for _, q := range s.maha[:count] {
			s.logp[i] = lw + (ln - 0.5*q)
			i += k
		}
	}
}

// lseRows reduces each K-wide row of logp with one sequential LogAdd chain
// in component order (−Inf entries are no-ops), the reduction every
// kernel below shares. Where lseKernel is set, lseQuads runs the chains of
// the leading rows, four at a time; LogAdd takes each row step it hands
// back, and lseRowsGo the tail of fewer than four rows. Every chain keeps
// its order, so each result is bit-identical to lseRowsGo's, the path on
// every other CPU.
func lseRows(logp []float64, count, k int, dst []float64, w *lseWork) {
	quads := 0
	if lseKernel && k > 0 {
		quads = min(count, BatchBlock) / 4
	}
	if quads > 0 {
		_ = logp[4*quads*k-1]
		acc := w.acc[:4*quads]
		for i := range acc {
			acc[i] = math.Inf(-1)
		}
		for j := 0; j < k; {
			var handed int
			j, handed = lseQuads(&logp[0], k, quads, j, w)
			for _, p := range w.handed[:handed] {
				acc[p] = LogAdd(acc[p], logp[int(p)*k+j-1])
			}
		}
		copy(dst, acc)
	}
	n := 4 * quads
	lseRowsGo(logp[n*k:], count-n, k, dst[n:])
}

// lseWork is lseQuads' workspace; its layout is the ACC … HANDED offsets
// of lse_amd64.s. acc[BatchBlock] takes the padding lanes' results.
type lseWork struct {
	acc    [BatchBlock + 4]float64 // the chains
	d, a   [BatchBlock + 4]float64 // the packed formula lanes' b − a and a
	slot   [BatchBlock + 4]int64   // … and their rows
	handed [BatchBlock]int64       // the rows a column handed back
}

// lseRowsGo is lseRows in Go. Four records' chains run in one loop, so
// each step's Exp/Log1p overlaps the other three chains' instead of
// waiting on its own predecessor; every chain keeps its own order, so each
// result is bit-identical to a lone chain's.
func lseRowsGo(logp []float64, count, k int, dst []float64) {
	p := 0
	for ; p+4 <= count; p += 4 {
		r0 := logp[p*k : p*k+k]
		r1 := logp[(p+1)*k : (p+1)*k+k]
		r2 := logp[(p+2)*k : (p+2)*k+k]
		r3 := logp[(p+3)*k : (p+3)*k+k]
		l0, l1, l2, l3 := math.Inf(-1), math.Inf(-1), math.Inf(-1), math.Inf(-1)
		for j := range r0 {
			l0 = LogAdd(l0, r0[j])
			l1 = LogAdd(l1, r1[j])
			l2 = LogAdd(l2, r2[j])
			l3 = LogAdd(l3, r3[j])
		}
		dst[p], dst[p+1], dst[p+2], dst[p+3] = l0, l1, l2, l3
	}
	for ; p < count; p++ {
		lse := math.Inf(-1)
		for _, lp := range logp[p*k : p*k+k] {
			lse = LogAdd(lse, lp)
		}
		dst[p] = lse
	}
}

// ScoreBatch writes log p(x) for every record of data into dst (len(data)
// long), batched: per-model constants are loaded once per block instead of
// once per record. LogPDF is ScoreBatch on one record. Pass a reusable
// scratch for allocation-free operation, or nil to borrow one from an
// internal pool.
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
		m.scoreBlock(xs, s, false)
		lseRows(s.logp, len(xs), k, dst[base:base+len(xs)], s.lse)
	}
}

// ClassifyBatch assigns every record of data to its argmax-posterior
// component: idx[p] is the winner (strict >, so ties go to the lowest
// index), logPDF[p] is log p(x) reduced with the same sequential LogAdd
// chain as ScoreBatch, and logPost[p] is the winner's log w_j·p(x|j) minus
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
		m.scoreBlock(xs, s, false)
		lse := logPDF[base : base+len(xs)]
		lseRows(s.logp, len(xs), k, lse, s.lse)
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
// in record order. It is the one source of posteriors: em's E-step (and
// its weighted fit over bucket means), JMerge (Fig 1) and dem's local
// E-step read it.
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
		m.scoreBlock(xs, s, false)
		lseRows(s.logp, len(xs), k, s.vals, s.lse)
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
// every chunk through here). It is AvgLogLikelihoodMulti on one mixture.
func (m *Mixture) AvgLogLikelihoodScratch(data []linalg.Vector, s *BatchScratch) float64 {
	ms, avg := [1]*Mixture{m}, [1]float64{}
	AvgLogLikelihoodMulti(ms[:], data, avg[:], s)
	return avg[0]
}

// AvgLogLikelihoodInterval returns an interval [lo, hi] around
// AvgLogLikelihoodScratch(data) without a single Exp or Log1p call, and
// without a division per record: it scores through scoreBlock's bound
// mode, whose terms b_j differ from the exact path's l_j = log(w_j·p(x|j))
// by the rounding of the division-free Mahalanobis kernel. Each record's
// log-sum-exp is then bounded through the row maximum t = b_a:
//
//	t − E ≤ l_a ≤ log Σ_j e^(l_j) ≤ t + E + (1 + 64ρ)·(1 + 2E)·S,
//	S = Σ_{j≠a} e^(b_j−t),
//
// with every term of S replaced by expUpper's bound, ρ =
// linalg.QuadFormBoundRel and the allowance E = ρ·(A + |t|) +
// linalg.QuadFormBoundAbs, A = max_j (|log w_j| + |log-norm_j|) over the
// weighted components. The allowance holds because the kernel's ½q is
// within (ρ/2)·½q of the exact one's and ½q ≤ A + |b_j| up to rounding, so
// |l_j − b_j| ≤ ρ·(A + |b_j|) with the roundings of both evaluations of
// lw + (ln − ½q) absorbed; since b_j ≤ t, ρ·|b_j| ≤ ρ·|t| + ρ·(t − b_j),
// which turns e^(l_j−l_a) into at most e^((1−ρ)(b_j−t)+E), and
// e^((1−ρ)d) ≤ (1 + 64ρ)·expUpper(d) for every d ≤ 0. The right-hand form
// needs E ≤ 1 (e^E ≤ 1 + 2E); a record beyond that (|t| above ~4·10¹²,
// only at absurd distances) takes t + E + log K, from log Σ_j e^(l_j) ≤
// max_j l_j + log K. At K = 1 the interval is 2E wide on average.
//
// lo is the mean of the t − E; the exact LogAdd chain never falls below
// any of its terms and float addition is monotone, so lo never exceeds the
// exact average. hi brackets it up to the rounding of that chain, of order
// K·2⁻⁵²·|avg|, so a caller that decides on the interval keeps a guard of
// that order (the allowance sits thousands of times below the site's).
// ok is false — run the exact scan — for empty data, any NaN, and a
// non-finite lo or hi.
//
// On amd64 CPUs with AVX2 at d = 4 the records go through intervalQuads,
// four at a time, and a last few through intervalTail, both from the
// kernel's constant table and bit-identical to the Go path below (see
// intervalTable); the Go path scores whatever the kernel hands back, every
// other shape, and every call on other CPUs and architectures.
func (m *Mixture) AvgLogLikelihoodInterval(data []linalg.Vector, s *BatchScratch) (lo, hi float64, ok bool) {
	return m.avgLogLikelihoodInterval(data, s, true)
}

// avgLogLikelihoodInterval is AvgLogLikelihoodInterval; with simd false it
// never enters the four-record kernel, which makes it the kernel's oracle.
func (m *Mixture) avgLogLikelihoodInterval(data []linalg.Vector, s *BatchScratch, simd bool) (lo, hi float64, ok bool) {
	if len(data) == 0 {
		return 0, 0, false
	}
	if s == nil {
		s = scratchPool.Get().(*BatchScratch)
		defer scratchPool.Put(s)
	}
	k := len(m.comps)
	s.ensure(m.Dim(), k)
	a := m.intervalA()
	var tab *float64
	if simd {
		tab = m.intervalTable(a, s)
	}
	logK := math.Log(float64(k))
	var sums [2]float64 // Σ lo, Σ hi over the records, in record order
	for p := 0; p < len(data); {
		n := min(BatchBlock, len(data)-p)
		if tab != nil {
			p += intervalQuads(tab, k, data[p:], &sums)
			// The quad the kernel handed back, or the tail of fewer than four.
			if n = min(4, len(data)-p); n == 0 || n < 4 && m.intervalTail(tab, data[p:], s, a, logK, &sums) {
				break
			}
		}
		m.intervalRows(data[p:p+n], s, a, logK, &sums)
		p += n
	}
	nf := float64(len(data))
	lo, hi = sums[0]/nf, sums[1]/nf
	if math.IsNaN(lo) || math.IsNaN(hi) || math.IsInf(lo, 0) || math.IsInf(hi, 0) {
		return 0, 0, false
	}
	return lo, hi, true
}

// intervalA is the A of AvgLogLikelihoodInterval's allowance: the largest
// |log w_j| + |log-norm_j| over the weighted components.
func (m *Mixture) intervalA() float64 {
	var a float64
	for j, c := range m.comps {
		if m.weights[j] != 0 {
			a = math.Max(a, math.Abs(m.logW[j])+math.Abs(c.logNorm))
		}
	}
	return a
}

// intervalRows adds the interval bounds of the records xs (at most
// BatchBlock of them) to sums, one record after another: the Go path of
// AvgLogLikelihoodInterval.
func (m *Mixture) intervalRows(xs []linalg.Vector, s *BatchScratch, a, logK float64, sums *[2]float64) {
	m.scoreBlock(xs, s, true)
	intervalSums(s.logp, len(xs), len(m.comps), a, logK, sums)
}

// intervalTail is intervalRows for the records xs after the kernel's last
// quad (fewer than four), with the terms computed from the constants
// intervalTable laid out at tab, as intervalQuads computes them, instead
// of through scoreBlock, whose bound mode redoes Cholesky.Bound4's
// divisions for every component. It adds nothing and returns false where
// the kernel would hand the records back: a record not 4 long, or an
// allowance e above 1 or NaN, which every record with a non-finite
// coordinate has; the terms of every other record are scoreBlock's, bit
// for bit.
func (m *Mixture) intervalTail(tab *float64, xs []linalg.Vector, s *BatchScratch, a, logK float64, sums *[2]float64) bool {
	k := len(m.comps)
	comps := unsafe.Slice(tab, intervalHead+intervalComp*k)[intervalHead:]
	for p, x := range xs {
		if len(x) != 4 {
			return false
		}
		row := s.logp[p*k : p*k+k]
		for j := range row {
			// Row i of a component's constants is c[4i] (intervalTable).
			c := comps[intervalComp*j : intervalComp*(j+1)]
			y0 := (x[0] - c[0]) * c[40]
			y1 := (x[1] - c[4] - c[16]*y0) * c[44]
			y2 := (x[2] - c[8] - c[20]*y0 - c[24]*y1) * c[48]
			y3 := (x[3] - c[12] - c[28]*y0 - c[32]*y1 - c[36]*y2) * c[52]
			row[j] = c[56] + (c[60] - 0.5*(y0*y0+y1*y1+y2*y2+y3*y3))
		}
		top := row[0]
		for _, b := range row[1:] {
			if b > top {
				top = b
			}
		}
		if e := linalg.QuadFormBoundRel*(a+math.Abs(top)) + linalg.QuadFormBoundAbs; !(e <= 1) {
			return false
		}
	}
	intervalSums(s.logp, len(xs), k, a, logK, sums)
	return true
}

// intervalSums adds the interval bounds of the count rows of terms in logp
// (k a row) to sums, one record after another.
func intervalSums(logp []float64, count, k int, a, logK float64, sums *[2]float64) {
	const rho = linalg.QuadFormBoundRel
	sumLo, sumHi := sums[0], sums[1]
	for p := 0; p < count; p++ {
		row := logp[p*k : p*k+k]
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
		e := rho*(a+math.Abs(top)) + linalg.QuadFormBoundAbs
		sumLo += top - e
		if e <= 1 {
			sumHi += top + e + rest*((1+64*rho)*(1+2*e))
		} else if rest == rest {
			sumHi += top + e + logK
		} else {
			sumHi = rest // NaN: refuse below
		}
	}
	sums[0], sums[1] = sumLo, sumHi
}

// The layout of intervalQuads' constant table, in float64s. Every constant
// is stored four times, once per AVX2 lane, and the table starts on a
// 32-byte boundary so the kernel reads it as aligned memory operands. The
// header holds, in this order, log₂e, −60, ½, 1, the |·| mask, A,
// linalg.QuadFormBoundRel, linalg.QuadFormBoundAbs and 1 + 64ρ; each
// component then holds μ0..μ3, l10, l20, l21, l30, l31, l32, 1/l00..1/l33,
// log w and its log-norm; K term slots follow, where the kernel keeps one
// quad of records' terms b_j between its two passes.
const (
	intervalLanes = 4
	intervalHead  = intervalLanes * 9
	intervalComp  = intervalLanes * 16
)

// intervalTable returns intervalQuads' constants for m, laid out in s,
// or nil when the kernel does not serve m. It lays them out only when s
// last held another mixture's: a stationary site tests one mixture chunk
// after chunk. a is m.intervalA().
func (m *Mixture) intervalTable(a float64, s *BatchScratch) *float64 {
	if s.tabFor != m {
		s.tabFor, s.tabAt = m, m.layOutIntervalTable(a, s)
	}
	return s.tabAt
}

// layOutIntervalTable lays out intervalQuads' constants for m in s and
// returns the table, or nil when the kernel does not serve m: on an architecture
// or CPU without it, at d ≠ 4, or when the factor of a weighted component
// is not one QuadFormRowsBound's division-free order-4 loop takes. The
// factor constants come from Cholesky.Bound4, which that loop reads too, so
// each term is computed from the same values in the same order as
// scoreBlock's bound mode computes it. A zero-weight component gets zero factor
// constants and log w = −Inf: its term is then −Inf, as scoreBlock writes
// it, for every finite record, and a record with a non-finite coordinate
// has no finite term, so its top is −Inf or NaN and the kernel hands it
// back.
func (m *Mixture) layOutIntervalTable(a float64, s *BatchScratch) *float64 {
	if !intervalKernel || m.Dim() != 4 {
		return nil
	}
	k := len(m.comps)
	need := intervalHead + intervalComp*k + intervalLanes*k + intervalLanes - 1 // room to align
	if cap(s.tab) < need {
		s.tab = make([]float64, need)
	}
	t := s.tab[:need]
	t = t[(-uintptr(unsafe.Pointer(&t[0]))&31)/8:] // to the first 32-byte boundary
	const rho = linalg.QuadFormBoundRel
	for i, v := range [9]float64{math.Log2E, -60, 0.5, 1, math.Float64frombits(1<<63 - 1), a, rho, linalg.QuadFormBoundAbs, 1 + 64*rho} {
		fillLanes(t[intervalLanes*i:], v)
	}
	for j, c := range m.comps {
		var row [16]float64
		if m.weights[j] == 0 {
			row[14] = math.Inf(-1)
		} else {
			lr, ok := c.chol.Bound4()
			if !ok {
				return nil
			}
			copy(row[:4], c.mean)
			copy(row[4:14], lr[:])
			row[14], row[15] = m.logW[j], c.logNorm
		}
		dst := t[intervalHead+intervalComp*j:]
		for i, v := range row {
			fillLanes(dst[intervalLanes*i:], v)
		}
	}
	return &t[0]
}

// fillLanes stores v in the first intervalLanes entries of dst.
func fillLanes(dst []float64, v float64) {
	*(*[intervalLanes]float64)(dst) = [intervalLanes]float64{v, v, v, v}
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
// sums its records' log-sum-exp in record order and divides once, so it does
// not depend on the other mixtures; only the data traversal is shared. The
// site's refit re-scan scores every model it tested through here in one
// pass, and AvgLogLikelihoodScratch is the one-mixture call.
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
			m.scoreBlock(xs, s, false)
			lseRows(s.logp, len(xs), k, s.vals, s.lse)
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
		m.scoreBlock(xs, s, false)
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
