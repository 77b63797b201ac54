package gaussian

import (
	"math"
	"math/rand"
	"testing"

	"cludistream/internal/linalg"
)

// randMixture builds a random full-covariance mixture. When zeroWeight is
// set, component 0 gets weight 0 so the batch path's −Inf handling is
// exercised against the scalar skip.
func randMixture(t *testing.T, rng *rand.Rand, k, d int, zeroWeight bool) *Mixture {
	t.Helper()
	comps := make([]*Component, k)
	ws := make([]float64, k)
	for j := range comps {
		mean := linalg.NewVector(d)
		for i := range mean {
			mean[i] = rng.NormFloat64() * 3
		}
		cov := linalg.NewSym(d)
		for r := 0; r < d+3; r++ {
			v := linalg.NewVector(d)
			for i := range v {
				v[i] = rng.NormFloat64()
			}
			cov.AddOuterScaled(0.5, v)
		}
		c, err := NewComponent(mean, cov, 1e-9)
		if err != nil {
			t.Fatal(err)
		}
		comps[j] = c
		ws[j] = 0.2 + rng.Float64()
	}
	if zeroWeight {
		ws[0] = 0
	}
	m, err := NewMixture(ws, comps)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func randData(rng *rand.Rand, n, d int) []linalg.Vector {
	out := make([]linalg.Vector, n)
	for i := range out {
		out[i] = linalg.NewVector(d)
		for j := range out[i] {
			out[i][j] = rng.NormFloat64() * 4
		}
	}
	return out
}

// TestScoreBatchBitIdentical pins the batched scorer, and LogPDF on top of
// it, to the scalar oracle bit-for-bit, across dimensions, component
// counts, zero weights, and data sizes that straddle the block boundary.
func TestScoreBatchBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, tc := range []struct {
		k, d, n    int
		zeroWeight bool
	}{
		{1, 1, 1, false},
		{3, 2, 17, false},
		{5, 4, 127, false},
		{5, 4, 128, true},
		{4, 8, 129, false},
		{6, 12, 400, true},
	} {
		m := randMixture(t, rng, tc.k, tc.d, tc.zeroWeight)
		data := randData(rng, tc.n, tc.d)
		got := make([]float64, tc.n)
		m.ScoreBatch(data, got, NewBatchScratch())
		for i, x := range data {
			want := oracleLogPDF(m, x)
			if math.Float64bits(got[i]) != math.Float64bits(want) {
				t.Fatalf("K=%d d=%d n=%d zero=%v: record %d ScoreBatch=%v oracle=%v",
					tc.k, tc.d, tc.n, tc.zeroWeight, i, got[i], want)
			}
			if lp := m.LogPDF(x); math.Float64bits(lp) != math.Float64bits(want) {
				t.Fatalf("K=%d d=%d n=%d zero=%v: record %d LogPDF=%v oracle=%v",
					tc.k, tc.d, tc.n, tc.zeroWeight, i, lp, want)
			}
		}
	}
}

// TestLseRowsInterleavedBitIdentical pins the four-chain log-sum-exp to the
// scalar oracle's one chain per record, bit for bit, at record counts that
// leave every remainder of the four-record loop and straddle the block
// boundary, and at K = 1, 5 and 56, with and without zero weights.
func TestLseRowsInterleavedBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for _, k := range []int{1, 5, 56} {
		for _, n := range []int{1, 3, 5, 127, 128, 129} {
			zero := n%2 == 1 && k > 1
			m := randMixture(t, rng, k, 3, zero)
			data := randData(rng, n, 3)
			got := make([]float64, n)
			m.ScoreBatch(data, got, NewBatchScratch())
			var sum float64
			for i, x := range data {
				want := oracleLogPDF(m, x)
				if math.Float64bits(got[i]) != math.Float64bits(want) {
					t.Fatalf("K=%d n=%d zero=%v: record %d ScoreBatch=%v oracle=%v", k, n, zero, i, got[i], want)
				}
				sum += want
			}
			if avg := m.AvgLogLikelihoodScratch(data, nil); math.Float64bits(avg) != math.Float64bits(sum/float64(n)) {
				t.Fatalf("K=%d n=%d: AvgLogLikelihood %v, oracle %v", k, n, avg, sum/float64(n))
			}
		}
	}
}

// TestPosteriorBatchBitIdentical pins PosteriorBatch (posteriors, per-record
// log-likelihoods, and their ordered sum) to the scalar oracle bit-for-bit.
func TestPosteriorBatchBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for _, tc := range []struct {
		k, d, n    int
		zeroWeight bool
	}{
		{2, 3, 5, false},
		{5, 4, 300, true},
		{4, 8, 131, false},
	} {
		m := randMixture(t, rng, tc.k, tc.d, tc.zeroWeight)
		data := randData(rng, tc.n, tc.d)
		post := linalg.NewMatrix(0, 0)
		logpdf := make([]float64, tc.n)
		sum := m.PosteriorBatch(data, post, logpdf, NewBatchScratch())

		scalarPost := make([]float64, tc.k)
		var scalarSum float64
		for i, x := range data {
			lse := oraclePosterior(m, x, scalarPost)
			scalarSum += lse
			if math.Float64bits(logpdf[i]) != math.Float64bits(lse) {
				t.Fatalf("record %d logpdf=%v want %v", i, logpdf[i], lse)
			}
			for j := 0; j < tc.k; j++ {
				if math.Float64bits(post.At(i, j)) != math.Float64bits(scalarPost[j]) {
					t.Fatalf("record %d comp %d posterior=%v want %v", i, j, post.At(i, j), scalarPost[j])
				}
			}
		}
		if math.Float64bits(sum) != math.Float64bits(scalarSum) {
			t.Fatalf("sum=%v want %v", sum, scalarSum)
		}
	}
}

// TestAvgLogLikelihoodBitIdentical pins the batched Definition-1 statistic
// to an explicit in-order sum of the scalar oracle — the quantity the J_fit
// test thresholds, so a single flipped bit could flip a clustering
// decision.
func TestAvgLogLikelihoodBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	m := randMixture(t, rng, 5, 6, true)
	data := randData(rng, 333, 6)

	var sum float64
	for _, x := range data {
		sum += oracleLogPDF(m, x)
	}
	want := sum / float64(len(data))
	if got := m.AvgLogLikelihood(data); math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("AvgLogLikelihood=%v want %v", got, want)
	}

	var maxSum float64
	for _, x := range data {
		maxSum += oracleMaxComponentLogPDF(m, x)
	}
	wantMax := maxSum / float64(len(data))
	if got := m.AvgMaxComponentLL(data); math.Float64bits(got) != math.Float64bits(wantMax) {
		t.Fatalf("AvgMaxComponentLL=%v want %v", got, wantMax)
	}
}

// TestNearestComponentsBitIdentical pins the batched nearest-component
// sweep to the scalar ascending argmin over MahalanobisSq.
func TestNearestComponentsBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	m := randMixture(t, rng, 4, 5, false)
	data := randData(rng, 200, 5)
	idx := make([]int, len(data))
	dist := make([]float64, len(data))
	m.NearestComponents(data, idx, dist, nil)
	for i, x := range data {
		best, bestD := 0, math.Inf(1)
		for j := 0; j < m.K(); j++ {
			if d := m.Component(j).MahalanobisSq(x); d < bestD {
				best, bestD = j, d
			}
		}
		if idx[i] != best || math.Float64bits(dist[i]) != math.Float64bits(bestD) {
			t.Fatalf("record %d: batch (%d, %v), scalar (%d, %v)", i, idx[i], dist[i], best, bestD)
		}
	}
}

// TestBatchScratchReuse verifies one scratch serves mixtures of different
// shapes in sequence (buffers regrow as needed).
func TestBatchScratchReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	s := NewBatchScratch()
	for _, shape := range []struct{ k, d int }{{2, 2}, {6, 10}, {3, 4}} {
		m := randMixture(t, rng, shape.k, shape.d, false)
		data := randData(rng, 150, shape.d)
		got := make([]float64, len(data))
		m.ScoreBatch(data, got, s)
		for i, x := range data {
			if want := oracleLogPDF(m, x); math.Float64bits(got[i]) != math.Float64bits(want) {
				t.Fatalf("shape %+v record %d: %v want %v", shape, i, got[i], want)
			}
		}
	}
}

// TestBatchKernelsMatchScalarEveryDim runs every block kernel against the
// scalar per-record oracle for d = 1..8 (order 4 takes QuadFormRows'
// register path, every other order the panel) and counts on both sides of
// a block: ScoreBatch against oracleLogPDF, PosteriorBatch against
// oraclePosterior, NearestComponents against MahalanobisSq, and
// ClassifyBatch against an ascending strict-> argmax over
// log w_j + LogProb with a sequential LogAdd chain.
func TestBatchKernelsMatchScalarEveryDim(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	s := NewBatchScratch()
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	for d := 1; d <= 8; d++ {
		for _, n := range []int{1, 127, 128, 129, 1000} {
			k := 1 + rng.Intn(6)
			m := randMixture(t, rng, k, d, k > 1 && n%2 == 0)
			data := randData(rng, n, d)
			dens := make([]float64, n)
			m.ScoreBatch(data, dens, s)
			post := linalg.NewMatrix(0, 0)
			logpdf := make([]float64, n)
			m.PosteriorBatch(data, post, logpdf, s)
			near, nearD := make([]int, n), make([]float64, n)
			m.NearestComponents(data, near, nearD, s)
			cls, clsPost, clsDens := make([]int, n), make([]float64, n), make([]float64, n)
			m.ClassifyBatch(data, cls, clsPost, clsDens, s)

			scalarPost := make([]float64, k)
			for p, x := range data {
				want := oracleLogPDF(m, x)
				lse := oraclePosterior(m, x, scalarPost)
				best, bestLP, bestN, bestD := 0, math.Inf(-1), 0, math.Inf(1)
				total := math.Inf(-1)
				for j := 0; j < k; j++ {
					lp := math.Inf(-1)
					if m.Weight(j) != 0 {
						lp = m.logW[j] + m.Component(j).LogProb(x)
					}
					if lp > bestLP {
						best, bestLP = j, lp
					}
					total = LogAdd(total, lp)
					if md := m.Component(j).MahalanobisSq(x); md < bestD {
						bestN, bestD = j, md
					}
					if !same(post.At(p, j), scalarPost[j]) {
						t.Fatalf("d=%d n=%d record %d: posterior[%d] %v, want %v", d, n, p, j, post.At(p, j), scalarPost[j])
					}
				}
				switch {
				case !same(dens[p], want):
					t.Fatalf("d=%d n=%d record %d: ScoreBatch %v, oracle %v", d, n, p, dens[p], want)
				case !same(logpdf[p], lse):
					t.Fatalf("d=%d n=%d record %d: PosteriorBatch logpdf %v, want %v", d, n, p, logpdf[p], lse)
				case near[p] != bestN || !same(nearD[p], bestD):
					t.Fatalf("d=%d n=%d record %d: NearestComponents (%d, %v), want (%d, %v)", d, n, p, near[p], nearD[p], bestN, bestD)
				case cls[p] != best || !same(clsDens[p], total) || !same(clsDens[p], want) || !same(clsPost[p], bestLP-total):
					t.Fatalf("d=%d n=%d record %d: ClassifyBatch (%d, %v, %v), want (%d, %v, %v)",
						d, n, p, cls[p], clsPost[p], clsDens[p], best, bestLP-total, total)
				}
			}
		}
	}
}
