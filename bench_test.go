package cludistream_test

// The benchmark harness regenerates every table and figure of the paper's
// evaluation (run with `go test -bench=. -benchmem`). Each BenchmarkFigN
// executes the corresponding experiment at the Quick profile and reports
// figure-specific metrics (bytes, ratios, average log-likelihoods) through
// b.ReportMetric, so a bench run doubles as a reproduction report. The
// micro-benchmarks at the bottom cover the hot paths the figures aggregate.

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"cludistream/internal/coordinator"
	"cludistream/internal/em"
	"cludistream/internal/experiments"
	"cludistream/internal/gaussian"
	"cludistream/internal/linalg"
	"cludistream/internal/site"
	"cludistream/internal/stream"
	"cludistream/internal/telemetry"

	cludistream "cludistream"
)

// nan returns NaN without importing math at every use site.
func nan() float64 { return math.NaN() }

// benchParams returns the Quick profile with a bench-stable seed.
func benchParams() experiments.Params {
	p := experiments.Quick()
	p.Seed = 1
	return p
}

// runFigure executes one experiment per iteration and lets the caller
// export headline metrics from the final table.
func runFigure(b *testing.B, run func(experiments.Params) (*experiments.Table, error), report func(*testing.B, *experiments.Table)) {
	b.Helper()
	var last *experiments.Table
	for i := 0; i < b.N; i++ {
		tb, err := run(benchParams())
		if err != nil {
			b.Fatal(err)
		}
		last = tb
	}
	if report != nil && last != nil {
		report(b, last)
	}
}

func BenchmarkFig1MergeCriterion(b *testing.B) {
	runFigure(b, func(p experiments.Params) (*experiments.Table, error) {
		return experiments.Fig1(p, true)
	}, nil)
}

func BenchmarkFig2CommunicationCost(b *testing.B) {
	runFigure(b, experiments.Fig2a, func(b *testing.B, tb *experiments.Table) {
		last := tb.Rows[len(tb.Rows)-1]
		b.ReportMetric(last[1], "clud-bytes")
		b.ReportMetric(last[2], "sem-bytes")
		if last[1] > 0 {
			b.ReportMetric(last[2]/last[1], "sem/clud-ratio")
		}
	})
}

func BenchmarkFig2bCommunicationCostPd(b *testing.B) {
	runFigure(b, experiments.Fig2b, func(b *testing.B, tb *experiments.Table) {
		last := tb.Rows[len(tb.Rows)-1]
		b.ReportMetric(last[1], "clud-bytes-pd0.1")
		b.ReportMetric(last[3], "clud-bytes-pd0.5")
		b.ReportMetric(last[4], "sem-bytes")
	})
}

func BenchmarkFig3Histograms(b *testing.B) {
	runFigure(b, experiments.Fig3, nil)
}

func BenchmarkFig4NoiseRobustness(b *testing.B) {
	runFigure(b, experiments.Fig4, nil)
}

func BenchmarkFig5HorizonQuality(b *testing.B) {
	runFigure(b, experiments.Fig5, func(b *testing.B, tb *experiments.Table) {
		last := tb.Rows[len(tb.Rows)-1]
		b.ReportMetric(last[1], "clud-avgLL")
		b.ReportMetric(last[2], "sem-avgLL")
	})
}

func BenchmarkFig6LandmarkQuality(b *testing.B) {
	runFigure(b, experiments.Fig6, func(b *testing.B, tb *experiments.Table) {
		last := tb.Rows[len(tb.Rows)-1]
		b.ReportMetric(last[1], "clud-avgLL")
		b.ReportMetric(last[2], "sem-avgLL")
		b.ReportMetric(last[3], "sampling-avgLL")
	})
}

func BenchmarkFig7CoordinatorQuality(b *testing.B) {
	runFigure(b, func(p experiments.Params) (*experiments.Table, error) {
		return experiments.Fig7(p, false)
	}, func(b *testing.B, tb *experiments.Table) {
		last := tb.Rows[len(tb.Rows)-1]
		b.ReportMetric(last[1], "clud-avgLL")
		b.ReportMetric(last[2], "central-sem-avgLL")
	})
}

func BenchmarkFig8Throughput(b *testing.B) {
	runFigure(b, func(p experiments.Params) (*experiments.Table, error) {
		return experiments.Fig8(p, false)
	}, func(b *testing.B, tb *experiments.Table) {
		last := tb.Rows[len(tb.Rows)-1]
		b.ReportMetric(last[0]/last[1], "clud-updates/s")
		b.ReportMetric(last[0]/last[2], "sem-updates/s")
	})
}

func BenchmarkFig9aVaryK(b *testing.B) {
	runFigure(b, experiments.Fig9a, nil)
}

func BenchmarkFig9bVaryD(b *testing.B) {
	runFigure(b, experiments.Fig9b, nil)
}

func BenchmarkFig10Memory(b *testing.B) {
	runFigure(b, experiments.Fig10a, func(b *testing.B, tb *experiments.Table) {
		last := tb.Rows[len(tb.Rows)-1]
		b.ReportMetric(last[1], "clud-bytes")
		b.ReportMetric(last[2], "sem-bytes")
	})
}

func BenchmarkFig10bMemoryModel(b *testing.B) {
	runFigure(b, experiments.Fig10b, nil)
}

func BenchmarkFig11VaryEpsilon(b *testing.B) {
	runFigure(b, experiments.Fig11, nil)
}

func BenchmarkFig12VaryDelta(b *testing.B) {
	runFigure(b, experiments.Fig12, nil)
}

func BenchmarkFig13VaryCmax(b *testing.B) {
	runFigure(b, experiments.Fig13, func(b *testing.B, tb *experiments.Table) {
		b.ReportMetric(tb.Rows[0][2], "em-runs-cmax1")
		b.ReportMetric(tb.Rows[3][2], "em-runs-cmax4")
	})
}

func BenchmarkFig14VaryPd(b *testing.B) {
	runFigure(b, experiments.Fig14, func(b *testing.B, tb *experiments.Table) {
		b.ReportMetric(tb.Rows[0][1], "sec-pd0.1")
		b.ReportMetric(tb.Rows[len(tb.Rows)-1][1], "sec-pd1.0")
	})
}

func BenchmarkAblationAlwaysCluster(b *testing.B) {
	runFigure(b, experiments.AblationTestAndCluster, func(b *testing.B, tb *experiments.Table) {
		b.ReportMetric(tb.Rows[0][3], "speedup-pd0.1")
	})
}

func BenchmarkAblationMergeFit(b *testing.B) {
	runFigure(b, experiments.AblationMergeFit, func(b *testing.B, tb *experiments.Table) {
		b.ReportMetric(tb.Rows[0][0], "moment-L1")
		b.ReportMetric(tb.Rows[0][1], "simplex-L1")
	})
}

func BenchmarkAblationCovType(b *testing.B) {
	runFigure(b, experiments.AblationCovType, nil)
}

func BenchmarkAblationTestStatistic(b *testing.B) {
	runFigure(b, experiments.AblationSharpTest, nil)
}

func BenchmarkAblationVsDEM(b *testing.B) {
	runFigure(b, experiments.AblationVsDEM, func(b *testing.B, tb *experiments.Table) {
		b.ReportMetric(tb.Rows[0][0], "clud-bytes")
		b.ReportMetric(tb.Rows[0][1], "dem-bytes")
	})
}

func BenchmarkAblationMergeTree(b *testing.B) {
	runFigure(b, experiments.AblationMergeTree, func(b *testing.B, tb *experiments.Table) {
		b.ReportMetric(tb.Rows[0][0], "merged-K")
		b.ReportMetric(tb.Rows[0][1], "flat-K")
	})
}

// --- micro-benchmarks over the hot paths ---

func benchMixture(k, d int) *gaussian.Mixture {
	rng := rand.New(rand.NewSource(1))
	comps := make([]*gaussian.Component, k)
	ws := make([]float64, k)
	for j := range comps {
		mean := linalg.NewVector(d)
		for i := range mean {
			mean[i] = rng.NormFloat64() * 5
		}
		comps[j] = gaussian.Spherical(mean, 1+rng.Float64())
		ws[j] = 1
	}
	return gaussian.MustMixture(ws, comps)
}

func BenchmarkMixtureLogPDF(b *testing.B) {
	m := benchMixture(5, 4)
	x := linalg.Vector{1, -1, 0.5, 2}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = m.LogPDF(x)
	}
}

func BenchmarkEMFitChunk(b *testing.B) {
	m := benchMixture(5, 4)
	data := m.SampleN(rand.New(rand.NewSource(2)), 314)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := em.Fit(data, em.Config{K: 5, Seed: 1, MaxIter: 50, Tol: 1e-3}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEMFitSiteChunk is one refit of the shape a site runs: d = 4,
// K = 5, a full 1567-record chunk (seven E-step shards) under the site's
// em.Config defaults (MaxIter 100, Tol 1e-4). ns/record-iter divides the
// fit time by records × EM iterations, the cost of one fused E+M visit to
// one record.
func BenchmarkEMFitSiteChunk(b *testing.B) {
	m := benchMixture(5, 4)
	data := m.SampleN(rand.New(rand.NewSource(2)), 1567)
	var iters int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := em.Fit(data, em.Config{K: 5, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		iters = res.Iterations
	}
	b.StopTimer()
	b.ReportMetric(float64(iters), "iters/op")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(data)*iters), "ns/record-iter")
}

func BenchmarkSiteObserve(b *testing.B) {
	st, err := site.New(site.Config{
		SiteID: 1, Dim: 4, K: 5, Epsilon: 0.1, FitEps: 0.8, Delta: 0.01, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	gen, err := stream.NewSynthetic(stream.SyntheticConfig{Dim: 4, K: 5, Pd: 0.1, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	data := stream.Take(gen, 100_000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := st.Observe(data[i%len(data)]); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSystemFeed(b *testing.B) {
	sys, err := cludistream.New(cludistream.Config{NumSites: 4, Dim: 4, K: 5, Epsilon: 0.1, FitEps: 0.8, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	gen, err := stream.NewSynthetic(stream.SyntheticConfig{Dim: 4, K: 5, Pd: 0.1, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	data := stream.Take(gen, 100_000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := sys.Feed(i%4, data[i%len(data)]); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationSnapshots(b *testing.B) {
	runFigure(b, experiments.AblationSnapshots, func(b *testing.B, tb *experiments.Table) {
		b.ReportMetric(tb.Rows[0][2], "event-driven-accuracy")
		b.ReportMetric(tb.Rows[3][2], "sparse-snapshot-accuracy")
	})
}

func BenchmarkAblationHierarchy(b *testing.B) {
	runFigure(b, experiments.AblationHierarchy, func(b *testing.B, tb *experiments.Table) {
		b.ReportMetric(tb.Rows[0][2], "flat-steady-bytes")
		b.ReportMetric(tb.Rows[1][2], "tree-steady-bytes")
	})
}

func BenchmarkAblationIncomplete(b *testing.B) {
	runFigure(b, experiments.AblationIncomplete, func(b *testing.B, tb *experiments.Table) {
		b.ReportMetric(tb.Rows[0][1], "avgLL-clean")
		b.ReportMetric(tb.Rows[2][1], "avgLL-30pct-missing")
	})
}

func BenchmarkEMFitIncomplete(b *testing.B) {
	m := benchMixture(5, 4)
	rng := rand.New(rand.NewSource(6))
	data := m.SampleN(rng, 314)
	for _, x := range data {
		if rng.Float64() < 0.5 {
			x[rng.Intn(4)] = nan()
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := em.FitIncomplete(data, em.Config{K: 5, Seed: 1, MaxIter: 50, Tol: 1e-3}); err != nil {
			b.Fatal(err)
		}
	}
}

// benchData samples n points from a bench mixture for batch benchmarks.
func benchData(m *gaussian.Mixture, n int, seed int64) []linalg.Vector {
	return m.SampleN(rand.New(rand.NewSource(seed)), n)
}

// BenchmarkScoreBatch times the blocked scorer on a 1024-record workload
// (d=8, K=4 — the regime the batch layer targets).
func BenchmarkScoreBatch(b *testing.B) {
	m := benchMixture(4, 8)
	data := benchData(m, 1024, 4)
	dst := make([]float64, len(data))
	scratch := gaussian.NewBatchScratch()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.ScoreBatch(data, dst, scratch)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(data)), "ns/record")
}

// BenchmarkPosteriorBatch times the E-step responsibility kernel on the
// same shape.
func BenchmarkPosteriorBatch(b *testing.B) {
	m := benchMixture(4, 8)
	data := benchData(m, 1024, 5)
	post := linalg.NewMatrix(0, 0)
	scratch := gaussian.NewBatchScratch()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = m.PosteriorBatch(data, post, nil, scratch)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(data)), "ns/record")
}

// BenchmarkEMFitWorkers measures the fused parallel E+M pass at several
// worker counts on a d=8, K=4, n=4096 workload. The pool is GOMAXPROCS
// wide, so each sub-benchmark pins GOMAXPROCS to its worker count. The
// fitted model is bit-identical at every count (see
// em.TestFitGOMAXPROCSInvariant), so the sub-benchmarks differ only in
// wall clock; on a multi-core machine workers=4/8 should beat workers=1
// by the core count.
func BenchmarkEMFitWorkers(b *testing.B) {
	m := benchMixture(4, 8)
	data := benchData(m, 4096, 8)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			runtime.GOMAXPROCS(workers)
			for i := 0; i < b.N; i++ {
				if _, err := em.Fit(data, em.Config{K: 4, Seed: 1, MaxIter: 30, Tol: 1e-4}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkCholeskyDecompose(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	d := 8
	cov := linalg.NewSym(d)
	for t := 0; t < d+2; t++ {
		v := linalg.NewVector(d)
		for i := range v {
			v[i] = rng.NormFloat64()
		}
		cov.AddOuterScaled(1, v)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := linalg.CholeskyDecompose(cov); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkQuadFormPanel times the blocked Mahalanobis solve at d=8 over a
// 128-record panel (one batch block).
func BenchmarkQuadFormPanel(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	const d, n = 8, 128
	cov := linalg.NewSym(d)
	for t := 0; t < d+2; t++ {
		v := linalg.NewVector(d)
		for i := range v {
			v[i] = rng.NormFloat64()
		}
		cov.AddOuterScaled(1, v)
	}
	chol, err := linalg.CholeskyDecompose(cov)
	if err != nil {
		b.Fatal(err)
	}
	src := make([]float64, d*n)
	for i := range src {
		src[i] = rng.NormFloat64()
	}
	panel := make([]float64, d*n)
	dst := make([]float64, n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(panel, src) // the solve is in-place; restore the rhs each round
		chol.QuadFormPanel(panel, n, n, dst)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/record")
}

// BenchmarkFitMerge is one re-fit of a two-member group as the daemons run
// it: d = 4, two sites' fits of one cluster, record-count weights, the
// coordinator's default merge options.
func BenchmarkFitMerge(b *testing.B) {
	cov := linalg.NewSymFrom(4, []float64{
		1.2, 0.3, -0.2, 0.1,
		0.3, 0.9, 0.25, 0,
		-0.2, 0.25, 1.5, -0.3,
		0.1, 0, -0.3, 0.7,
	})
	a := gaussian.MustComponent(linalg.Vector{-6.1, 2.3, 0.4, 7.2}, cov)
	cov.ScaleInPlace(1.1)
	c := gaussian.MustComponent(linalg.Vector{-5.9, 2.2, 0.6, 7.1}, cov)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = gaussian.FitMerge(3072, a, 2560, c, gaussian.MergeOptions{Seed: 1})
	}
}

// slidingCoordinator is a coordinator at the daemons' sliding shape: two
// sites hold their own fit of one K = 5, d = 4 palette, each counting count
// records, so every cluster is a two-member group.
func slidingCoordinator(b *testing.B, count int) (*coordinator.Coordinator, *telemetry.Registry) {
	reg := telemetry.NewRegistry()
	c, err := coordinator.New(coordinator.Config{Dim: 4, Telemetry: reg})
	if err != nil {
		b.Fatal(err)
	}
	truth := benchMixture(5, 4)
	rng := rand.New(rand.NewSource(2))
	for siteID := 1; siteID <= 2; siteID++ {
		comps := make([]*gaussian.Component, truth.K())
		ws := make([]float64, truth.K())
		for j := range comps {
			mean := truth.Component(j).Mean().Clone()
			for i := range mean {
				mean[i] += 0.05 * rng.NormFloat64()
			}
			comps[j] = gaussian.MustComponent(mean, truth.Component(j).Cov())
			ws[j] = 1 + 0.1*rng.Float64()
		}
		if err := c.HandleUpdate(site.Update{SiteID: siteID, ModelID: 1, Kind: site.NewModel,
			Mixture: gaussian.MustMixture(ws, comps), Count: count}); err != nil {
			b.Fatal(err)
		}
	}
	if got := len(c.Groups()); got != truth.K() {
		b.Fatalf("%d groups, want %d two-member groups", got, truth.K())
	}
	return c, reg
}

// slidingChunk is the records per chunk at d = 4, slidingWindow the chunks
// per window.
const slidingChunk, slidingWindow = 1567, 12

// BenchmarkCoordinatorSlidingSteadyState is one chunk of a full sliding
// window at the coordinator, at the daemons' shape (slidingCoordinator):
// a chunk is a WeightUpdate(+M) and the Deletion(−M) of the chunk that
// left the window, the sites taking turns. The counters oscillate, so after
// one turn each every pair merge is one the coordinator has fitted before:
// the benchmark fails unless fits/op is 0.
func BenchmarkCoordinatorSlidingSteadyState(b *testing.B) {
	const m = slidingChunk
	c, reg := slidingCoordinator(b, slidingWindow*m)
	chunk := func(i int) {
		siteID := 1 + i%2
		if err := c.HandleUpdate(site.Update{SiteID: siteID, ModelID: 1, Kind: site.WeightUpdate, Count: m}); err != nil {
			b.Fatal(err)
		}
		if err := c.HandleDeletion(siteID, 1, m); err != nil {
			b.Fatal(err)
		}
	}
	fits := reg.Counter("coord.merge_fits")
	chunk(0)
	chunk(1)
	warm := fits.Value()
	if warm == 0 {
		b.Fatal("the warm-up fitted no merge")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		chunk(i)
	}
	b.StopTimer()
	perOp := float64(fits.Value()-warm) / float64(b.N)
	b.ReportMetric(perOp, "fits/op")
	if perOp != 0 {
		b.Fatalf("%v merges fitted per steady-state chunk, want 0", perOp)
	}
}

// BenchmarkCoordinatorSlidingGrowth is one chunk of a sliding window that
// is still filling, at the same shape: a chunk is a WeightUpdate(+M) alone,
// the sites taking turns. Every count is new, so no pair merge is one the
// coordinator has fitted before and each of the five two-member groups
// re-fits its representative: the benchmark fails unless fits/op is 5.
func BenchmarkCoordinatorSlidingGrowth(b *testing.B) {
	const m = slidingChunk
	c, reg := slidingCoordinator(b, m)
	fits := reg.Counter("coord.merge_fits")
	before := fits.Value()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.HandleUpdate(site.Update{SiteID: 1 + i%2, ModelID: 1, Kind: site.WeightUpdate, Count: m}); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	perOp := float64(fits.Value()-before) / float64(b.N)
	b.ReportMetric(perOp, "fits/op")
	if perOp != 5 {
		b.Fatalf("%v merges fitted per growing chunk, want 5", perOp)
	}
}

// BenchmarkSiteSteadyState measures the paper's common case — a stationary
// stream where every chunk passes the J_fit test and EM never runs — at the
// daemons' K = 5, and asserts the pooled ingest path stays at 0
// allocs/record (the chunker's two-buffer recycle protocol plus the batch
// scorer) with the interval verdict deciding the tests.
func BenchmarkSiteSteadyState(b *testing.B) {
	st, err := site.New(site.Config{
		SiteID: 1, Dim: 4, K: 5, Epsilon: 0.1, FitEps: 0.8, Delta: 0.01, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	data := benchData(benchMixture(5, 4), 100_000, 2)
	// Establish the first model so the measured loop is pure test-mode.
	for _, x := range data[:2*st.ChunkSize()] {
		if _, err := st.Observe(x); err != nil {
			b.Fatal(err)
		}
	}
	idx := 0
	if avg := testing.AllocsPerRun(1000, func() {
		if _, err := st.Observe(data[idx%len(data)]); err != nil {
			b.Fatal(err)
		}
		idx++
	}); avg != 0 {
		b.Fatalf("steady-state Observe allocates %v per record, want 0", avg)
	}
	if st.Stats().PruneHits == 0 {
		b.Fatal("no J_fit test was decided by the interval; the gate does not cover the interval verdict")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := st.Observe(data[i%len(data)]); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "records/s")
}

// BenchmarkScorePruned measures the steady-state J_fit test at growing K:
// the transcendental-free interval verdict, exact-fallback guarded, decides
// every chunk at each K (the name predates the interval kernel).
func BenchmarkScorePruned(b *testing.B) {
	for _, k := range []int{4, 16, 64} {
		b.Run(fmt.Sprintf("K=%d/pruned", k), func(b *testing.B) {
			st, err := site.New(site.Config{
				SiteID: 1, Dim: 4, K: k, Epsilon: 0.1, FitEps: 8, Delta: 0.01,
				Seed: 1, ChunkSize: 64 * k,
			})
			if err != nil {
				b.Fatal(err)
			}
			data := benchData(benchMixture(k, 4), 50_000, 2)
			defer func() {
				if st.Stats().Refits > 1 {
					b.Fatalf("stream refit %d times; the loop is no longer pure test-mode", st.Stats().Refits)
				}
			}()
			for _, x := range data[:2*st.ChunkSize()] {
				if _, err := st.Observe(x); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := st.Observe(data[i%len(data)]); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "records/s")
		})
	}
}

// BenchmarkSiteSteadyStatePruned is BenchmarkSiteSteadyState at K=16: the
// J_fit hot path must stay at 0 allocs/record with the interval verdict
// deciding every chunk. The name shares the BenchmarkSiteSteadyState prefix
// so the Makefile alloc-gate exercises both.
func BenchmarkSiteSteadyStatePruned(b *testing.B) {
	st, err := site.New(site.Config{
		SiteID: 1, Dim: 4, K: 16, Epsilon: 0.1, FitEps: 8, Delta: 0.01, Seed: 1,
		ChunkSize: 256,
	})
	if err != nil {
		b.Fatal(err)
	}
	data := benchData(benchMixture(16, 4), 50_000, 2)
	for _, x := range data[:2*st.ChunkSize()] {
		if _, err := st.Observe(x); err != nil {
			b.Fatal(err)
		}
	}
	idx := 0
	if avg := testing.AllocsPerRun(1000, func() {
		if _, err := st.Observe(data[idx%len(data)]); err != nil {
			b.Fatal(err)
		}
		idx++
	}); avg != 0 {
		b.Fatalf("K=16 steady-state Observe allocates %v per record, want 0", avg)
	}
	if st.Stats().PruneHits == 0 {
		b.Fatal("no J_fit test was decided by the interval; benchmark is not exercising it")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := st.Observe(data[i%len(data)]); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "records/s")
}

// benchPhaseMix builds a K-component mixture whose means sit on a circle
// rotated by phase — the multi-test benchmark cycles phases so chunks keep
// re-testing the CMax-deep archive.
func benchPhaseMix(k int, phase float64) *gaussian.Mixture {
	comps := make([]*gaussian.Component, k)
	ws := make([]float64, k)
	for j := range comps {
		ang := phase + 2*math.Pi*float64(j)/float64(k)
		comps[j] = gaussian.Spherical(linalg.Vector{6 * math.Cos(ang), 6 * math.Sin(ang)}, 0.4)
		ws[j] = float64(1 + j%3)
	}
	return gaussian.MustMixture(ws, comps)
}

// BenchmarkMultiTestDepth drives a regime-cycling stream that keeps the
// CMax archive full, so every chunk runs the multi-test deep before
// refitting. The site completes the chunk once for every probe.
// stat-hits/refit counts refit re-scores served from the multi-test memo;
// it reads 0 by design, since the interval decides every probe and leaves
// no exact score to serve: a refit re-scores all probes in one fused pass.
func BenchmarkMultiTestDepth(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	var data []linalg.Vector
	for c := 0; c < 24; c++ {
		// A continuously rotating regime: every chunk is novel, so the site
		// tests the full CMax archive and then refits — the deepest
		// multi-test workload Algorithm 1 produces.
		data = append(data, benchPhaseMix(8, 0.45*float64(c)).SampleN(rng, 200)...)
	}
	b.Run("shared", func(b *testing.B) {
		var last site.Stats
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			st, err := site.New(site.Config{
				SiteID: 1, Dim: 2, K: 8, Epsilon: 0.5, Delta: 0.01, CMax: 4,
				Seed: 7, ChunkSize: 200,
			})
			if err != nil {
				b.Fatal(err)
			}
			for _, x := range data {
				if _, err := st.Observe(x); err != nil {
					b.Fatal(err)
				}
			}
			last = st.Stats()
		}
		b.ReportMetric(float64(b.N)*float64(len(data))/b.Elapsed().Seconds(), "records/s")
		if last.Chunks > 0 {
			b.ReportMetric(float64(last.Tests)/float64(last.Chunks), "tests/chunk")
		}
		if last.Refits > 0 {
			b.ReportMetric(float64(last.StatCacheHits)/float64(last.Refits), "stat-hits/refit")
		}
	})
}

// BenchmarkRemergeIncremental replays one deterministic model-update stream
// through the coordinator's dirty-group stability sweep, which reaches the
// tree the every-group sweep reaches (pinned by
// TestIncrementalRemergeMatchesExact).
func BenchmarkRemergeIncremental(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	type upd struct {
		siteID, modelID, count int
		mix                    *gaussian.Mixture
	}
	var updates []upd
	for i := 0; i < 400; i++ {
		siteID := i%40 + 1
		k := rng.Intn(3) + 1
		comps := make([]*gaussian.Component, k)
		ws := make([]float64, k)
		for j := range comps {
			comps[j] = gaussian.Spherical(linalg.Vector{rng.NormFloat64() * 40}, 0.5+rng.Float64())
			ws[j] = rng.Float64() + 0.2
		}
		updates = append(updates, upd{siteID, i/40 + 1, rng.Intn(500) + 50, gaussian.MustMixture(ws, comps)})
	}
	b.Run("on", func(b *testing.B) {
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c, err := coordinator.New(coordinator.Config{Dim: 1, Merge: gaussian.MergeOptions{MomentOnly: true}})
			if err != nil {
				b.Fatal(err)
			}
			for _, u := range updates {
				if err := c.HandleUpdate(site.Update{
					SiteID: u.siteID, ModelID: u.modelID, Kind: site.NewModel,
					Mixture: u.mix, Count: u.count,
				}); err != nil {
					b.Fatal(err)
				}
			}
		}
		b.ReportMetric(float64(b.N)*float64(len(updates))/b.Elapsed().Seconds(), "updates/s")
	})
}
