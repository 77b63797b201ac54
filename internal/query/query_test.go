package query

import (
	"bytes"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"cludistream/internal/coordinator"
	"cludistream/internal/gaussian"
	"cludistream/internal/linalg"
	"cludistream/internal/site"
	"cludistream/internal/telemetry"
)

// randMixture builds a K-component spherical mixture with distinct means.
func randMixture(rng *rand.Rand, k, dim int) *gaussian.Mixture {
	comps := make([]*gaussian.Component, k)
	ws := make([]float64, k)
	for j := 0; j < k; j++ {
		mean := make(linalg.Vector, dim)
		for d := range mean {
			mean[d] = rng.NormFloat64() * 10
		}
		comps[j] = gaussian.Spherical(mean, 0.5+rng.Float64())
		ws[j] = 0.5 + rng.Float64()
	}
	return gaussian.MustMixture(ws, comps)
}

func randPoint(rng *rand.Rand, dim int) linalg.Vector {
	x := make(linalg.Vector, dim)
	for d := range x {
		x[d] = rng.NormFloat64() * 10
	}
	return x
}

// newCoord returns a coordinator pre-loaded with nSites site models.
func newCoord(t testing.TB, rng *rand.Rand, dim, nSites int) *coordinator.Coordinator {
	t.Helper()
	c, err := coordinator.New(coordinator.Config{Dim: dim, Merge: gaussian.MergeOptions{MomentOnly: true}})
	if err != nil {
		t.Fatal(err)
	}
	for s := 1; s <= nSites; s++ {
		u := site.Update{SiteID: s, ModelID: 1, Kind: site.NewModel,
			Mixture: randMixture(rng, 3, dim), Count: 100 + rng.Intn(100)}
		if err := c.HandleUpdate(u); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

func publishCoord(t testing.TB, p *Publisher, c *coordinator.Coordinator) *Snapshot {
	t.Helper()
	sn, err := p.Publish(c.GlobalMixture(), c.MixtureVersion(), c.TotalWeight())
	if err != nil {
		t.Fatal(err)
	}
	return sn
}

func TestCurrentNilBeforePublish(t *testing.T) {
	p := NewPublisher(Options{})
	if p.Current() != nil {
		t.Fatal("Current() non-nil before first Publish")
	}
	q := p.NewQuerier()
	if _, ok := q.Classify([]float64{0}); ok {
		t.Fatal("Classify reported ok with no snapshot")
	}
	if _, ok := q.LogDensity([]float64{0}); ok {
		t.Fatal("LogDensity reported ok with no snapshot")
	}
	if _, ok := q.TopK([]float64{0}, 2); ok {
		t.Fatal("TopK reported ok with no snapshot")
	}
}

func TestPublishRejectsEmptyMixture(t *testing.T) {
	p := NewPublisher(Options{})
	if _, err := p.Publish(nil, 1, 0); err == nil {
		t.Fatal("Publish(nil) did not error")
	}
}

// TestLogDensityMatchesMixture pins bit-identity between the snapshot's
// zero-alloc LogDensity and gaussian.Mixture.LogPDF: same component
// order, same log-sum-exp recurrence, deep-copied components with a
// deterministic Cholesky.
func TestLogDensityMatchesMixture(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	mix := randMixture(rng, 8, 3)
	p := NewPublisher(Options{})
	sn, err := p.Publish(mix, 7, 123)
	if err != nil {
		t.Fatal(err)
	}
	s := NewScratch()
	for i := 0; i < 200; i++ {
		x := randPoint(rng, 3)
		got, want := sn.LogDensity(x, s), mix.LogPDF(x)
		if got != want {
			t.Fatalf("LogDensity(%v) = %v, want %v (bit-identical)", x, got, want)
		}
	}
	if sn.Version() != 7 || sn.Mass() != 123 {
		t.Fatalf("version/mass = %d/%v, want 7/123", sn.Version(), sn.Mass())
	}
}

func TestClassifyMatchesPosterior(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	mix := randMixture(rng, 6, 2)
	p := NewPublisher(Options{})
	sn, err := p.Publish(mix, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	s := NewScratch()
	postM := linalg.NewMatrix(0, 0)
	for i := 0; i < 200; i++ {
		x := randPoint(rng, 2)
		res := sn.Classify(x, s)
		mix.PosteriorBatch([]linalg.Vector{x}, postM, nil, nil)
		post := postM.Row(0)
		best := 0
		for j := range post {
			if post[j] > post[best] {
				best = j
			}
		}
		if res.Component != best {
			t.Fatalf("Classify(%v) = comp %d, posterior argmax = %d (post %v)", x, res.Component, best, post)
		}
		if math.Abs(math.Exp(res.LogPosterior)-post[best]) > 1e-12 {
			t.Fatalf("LogPosterior exp %v vs posterior %v", math.Exp(res.LogPosterior), post[best])
		}
		if want := mix.LogPDF(x); res.LogDensity != want {
			t.Fatalf("Classification.LogDensity = %v, want %v", res.LogDensity, want)
		}
	}
}

func TestTopKMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	mix := randMixture(rng, 16, 4)
	p := NewPublisher(Options{})
	sn, err := p.Publish(mix, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	s := NewScratch()
	for i := 0; i < 50; i++ {
		x := randPoint(rng, 4)
		nbrs := sn.TopK(x, 5, s)
		if len(nbrs) != 5 {
			t.Fatalf("TopK returned %d neighbors, want 5", len(nbrs))
		}
		// brute force
		type cand struct {
			id int
			d2 float64
		}
		best := make([]cand, 0, mix.K())
		for j := 0; j < mix.K(); j++ {
			var d2 float64
			for d, v := range mix.Component(j).Mean() {
				diff := x[d] - v
				d2 += diff * diff
			}
			best = append(best, cand{j, d2})
		}
		for a := range best {
			for b := a + 1; b < len(best); b++ {
				if best[b].d2 < best[a].d2 {
					best[a], best[b] = best[b], best[a]
				}
			}
		}
		for a := 0; a < 5; a++ {
			if nbrs[a].DistSq != best[a].d2 {
				t.Fatalf("TopK[%d].DistSq = %v, want %v", a, nbrs[a].DistSq, best[a].d2)
			}
		}
		// k > K clamps
		all := sn.TopK(x, mix.K()+10, s)
		if len(all) != mix.K() {
			t.Fatalf("TopK with k>K returned %d, want %d", len(all), mix.K())
		}
	}
}

// TestSnapshotImmutableUnderIngest is the deep-copy pin: every byte of a
// held snapshot must stay fixed while the coordinator that produced it
// keeps merging, splitting and compacting.
func TestSnapshotImmutableUnderIngest(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	dim := 3
	c := newCoord(t, rng, dim, 4)
	p := NewPublisher(Options{})
	sn := publishCoord(t, p, c)

	// Record every byte the snapshot exposes.
	type pin struct {
		weights []float64
		means   [][]float64
		covs    [][]float64
	}
	record := func(sn *Snapshot) pin {
		var pr pin
		for j := 0; j < sn.K(); j++ {
			pr.weights = append(pr.weights, sn.Weight(j))
			c := sn.Component(j)
			pr.means = append(pr.means, append([]float64(nil), c.Mean()...))
			var flat []float64
			cov := c.Cov()
			for i := 0; i < cov.Order(); i++ {
				for k := 0; k <= i; k++ {
					flat = append(flat, cov.At(i, k))
				}
			}
			pr.covs = append(pr.covs, flat)
		}
		return pr
	}
	before := record(sn)

	// Ingest aggressively: new models, weight shifts, deletions, resets.
	for s := 1; s <= 8; s++ {
		_ = c.HandleUpdate(site.Update{SiteID: 100 + s, ModelID: 1, Kind: site.NewModel,
			Mixture: randMixture(rng, 4, dim), Count: 50})
		_ = c.HandleUpdate(site.Update{SiteID: s%4 + 1, ModelID: 1, Kind: site.WeightUpdate, Count: 500})
	}
	c.ResetSite(2)
	publishCoord(t, p, c) // swap in a new snapshot; old one stays pinned

	after := record(sn)
	for j := range before.weights {
		if before.weights[j] != after.weights[j] {
			t.Fatalf("held snapshot weight[%d] changed: %v -> %v", j, before.weights[j], after.weights[j])
		}
		for d := range before.means[j] {
			if before.means[j][d] != after.means[j][d] {
				t.Fatalf("held snapshot mean[%d][%d] changed", j, d)
			}
		}
		for i := range before.covs[j] {
			if before.covs[j][i] != after.covs[j][i] {
				t.Fatalf("held snapshot cov[%d][%d] changed", j, i)
			}
		}
	}
	if cur := p.Current(); cur == sn {
		t.Fatal("Current() still returns the old snapshot after republish")
	}
}

// TestQueryRaceHammer runs concurrent readers against a writer that
// republishes continuously while the coordinator ingests — the -race
// gate for the RCU claim. Readers verify self-consistency of whatever
// snapshot they observe (posterior sums to 1, density finite).
func TestQueryRaceHammer(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	dim := 2
	c := newCoord(t, rng, dim, 3)
	reg := telemetry.NewRegistry()
	p := NewPublisher(Options{Telemetry: reg})
	publishCoord(t, p, c)

	stop := make(chan struct{})
	var writerWG, wg sync.WaitGroup
	writerWG.Add(1)
	go func() { // writer: ingest + republish
		defer writerWG.Done()
		wrng := rand.New(rand.NewSource(6))
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			_ = c.HandleUpdate(site.Update{SiteID: 50 + i%10, ModelID: 1 + i/10, Kind: site.NewModel,
				Mixture: randMixture(wrng, 3, dim), Count: 60})
			publishCoord(t, p, c)
		}
	}()

	readers := runtime.GOMAXPROCS(0)
	errCh := make(chan error, readers)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			q := p.NewQuerier()
			defer q.Flush()
			rrng := rand.New(rand.NewSource(seed))
			var lastVer uint64
			for i := 0; i < 3000; i++ {
				x := randPoint(rrng, dim)
				res, ok := q.Classify(x)
				if !ok {
					errCh <- errNoSnapshot
					return
				}
				if math.IsNaN(res.LogDensity) || res.LogPosterior > 1e-9 {
					errCh <- errBadResult
					return
				}
				if ld, _ := q.LogDensity(x); math.IsNaN(ld) {
					errCh <- errBadResult
					return
				}
				if nbrs, _ := q.TopK(x, 2); len(nbrs) == 0 {
					errCh <- errBadResult
					return
				}
				if v := q.Snapshot().Version(); v < lastVer {
					errCh <- errVersionWentBack
					return
				} else {
					lastVer = v
				}
			}
		}(int64(100 + r))
	}
	wg.Wait() // readers done; now stop the writer
	close(stop)
	writerWG.Wait()
	select {
	case err := <-errCh:
		t.Fatal(err)
	default:
	}
}

// sentinel errors for the hammer's error channel
var (
	errNoSnapshot      = errString("reader saw no snapshot")
	errBadResult       = errString("reader saw NaN density or positive log-posterior")
	errVersionWentBack = errString("snapshot version went backwards")
)

type errString string

func (e errString) Error() string { return string(e) }

// TestQuerierCountersFlush pins the batched-counter contract: after
// Flush, the shared telemetry counters hold the exact op counts.
func TestQuerierCountersFlush(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	reg := telemetry.NewRegistry()
	p := NewPublisher(Options{Telemetry: reg})
	if _, err := p.Publish(randMixture(rng, 4, 2), 1, 1); err != nil {
		t.Fatal(err)
	}
	q := p.NewQuerier()
	x := []float64{0, 0}
	const n = counterFlushEvery*2 + 37 // crosses the auto-flush boundary twice
	for i := 0; i < n; i++ {
		q.Classify(x)
	}
	for i := 0; i < 5; i++ {
		q.LogDensity(x)
		q.TopK(x, 2)
	}
	q.Flush()
	snap := reg.Snapshot()
	if got := snap.Counters["query.classify"]; got != n {
		t.Fatalf("query.classify = %d, want %d", got, n)
	}
	if got := snap.Counters["query.density"]; got != 5 {
		t.Fatalf("query.density = %d, want 5", got)
	}
	if got := snap.Counters["query.topk"]; got != 5 {
		t.Fatalf("query.topk = %d, want 5", got)
	}
	if got := snap.Gauges["query.snapshot_version"]; got != 1 {
		t.Fatalf("query.snapshot_version = %v, want 1", got)
	}
	if got := snap.Counters["query.publishes"]; got != 1 {
		t.Fatalf("query.publishes = %d, want 1", got)
	}
}

// TestQueryReadPathZeroAlloc is the alloc gate `make check` runs: every
// read op must be allocation-free once the scratch has warmed up.
func TestQueryReadPathZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	p := NewPublisher(Options{Telemetry: telemetry.NewRegistry()})
	if _, err := p.Publish(randMixture(rng, 8, 4), 1, 1); err != nil {
		t.Fatal(err)
	}
	q := p.NewQuerier()
	x := randPoint(rng, 4)
	q.Classify(x) // warm the scratch
	q.TopK(x, 4)
	if allocs := testing.AllocsPerRun(500, func() { q.Classify(x) }); allocs != 0 {
		t.Fatalf("Classify allocated %.1f times per op, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(500, func() { q.LogDensity(x) }); allocs != 0 {
		t.Fatalf("LogDensity allocated %.1f times per op, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(500, func() { q.TopK(x, 4) }); allocs != 0 {
		t.Fatalf("TopK allocated %.1f times per op, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(500, func() { _ = p.Current() }); allocs != 0 {
		t.Fatalf("Current allocated %.1f times per op, want 0", allocs)
	}

	// The CLUQ batch ops, decoded and scored block by block through the
	// same Querier: 300 records span three blocks.
	sn := p.Current()
	pts := make([][]float64, 300)
	for i := range pts {
		pts[i] = randPoint(rng, 4)
	}
	for _, op := range []int{OpClassify, OpDensity, OpTopK} {
		payload := batchReq(byte(op), 4, pts)[batchHdrQ:]
		body := bytes.NewReader(payload)
		out := make([]byte, 0, len(pts)*20*4)
		run := func() {
			body.Reset(payload)
			if _, err := q.appendBatch(out, sn, op, 4, len(pts), body); err != nil {
				t.Fatal(err)
			}
		}
		run() // warm the block buffers
		if allocs := testing.AllocsPerRun(100, run); allocs != 0 {
			t.Fatalf("batch op %d allocated %.1f times per call, want 0", op, allocs)
		}
	}
}
