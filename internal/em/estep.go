package em

import (
	"runtime"
	"sync"
	"sync/atomic"

	"cludistream/internal/gaussian"
	"cludistream/internal/linalg"
)

// eShardSize is the fixed number of records per E-step shard. Shard
// boundaries depend only on the data length — never on the worker count —
// and the per-shard partial statistics are reduced in ascending shard
// order, so the fused E+M pass produces bit-identical results whether it
// runs on 1 worker or 64. (Floating-point accumulation is not associative;
// a worker-count-dependent partition would make chaos tests and figure
// tables flap with GOMAXPROCS.) 256 records keeps a shard's posterior
// tile and scratch panels comfortably inside L2 while leaving enough
// shards to balance load.
const eShardSize = 256

// eShard holds one shard's partial fused E+M results.
type eShard struct {
	stats []*SuffStats
	sumLL float64
}

// workerState is the per-worker scratch of the parallel E-step; workers
// never share mutable state, so the pass is data-race-free by
// construction.
type workerState struct {
	batch *gaussian.BatchScratch
	post  *linalg.Matrix
}

// eWorkspace owns the shard accumulators and per-worker scratch across EM
// iterations, so the parallel pass allocates only on the first iteration.
type eWorkspace struct {
	workers int
	shards  []eShard
	states  []*workerState
}

// newEWorkspace sizes a workspace for n records of dimension d with k
// components, running on GOMAXPROCS workers (at most one per shard). The
// pass shards the data on fixed boundaries and reduces partial statistics
// in fixed order, so the fitted mixture is bit-identical at every worker
// count.
func newEWorkspace(n, d, k int) *eWorkspace {
	numShards := (n + eShardSize - 1) / eShardSize
	workers := runtime.GOMAXPROCS(0)
	if workers > numShards {
		workers = numShards
	}
	if workers < 1 {
		workers = 1
	}
	ws := &eWorkspace{workers: workers}
	ws.shards = make([]eShard, numShards)
	for s := range ws.shards {
		ws.shards[s].stats = make([]*SuffStats, k)
		for j := range ws.shards[s].stats {
			ws.shards[s].stats[j] = NewSuffStats(d)
		}
	}
	ws.states = make([]*workerState, workers)
	for w := range ws.states {
		ws.states[w] = &workerState{
			batch: gaussian.NewBatchScratch(),
			post:  linalg.NewMatrix(0, 0),
		}
	}
	return ws
}

// runShard computes shard si: batched posteriors over its record range and
// the shard-local sufficient statistics. Components run outer and records
// inner (SuffStats.AddColumn), so at order 4 each component's sums stay in
// registers across the shard. Every accumulator still receives its
// additions in record order, the sequence a record-outer loop gives it, so
// the fit is bit-identical to one.
func (ws *eWorkspace) runShard(si int, data []linalg.Vector, mix *gaussian.Mixture, st *workerState) {
	k := mix.K()
	lo := si * eShardSize
	hi := min(lo+eShardSize, len(data))
	xs := data[lo:hi]
	sh := &ws.shards[si]
	sh.sumLL = mix.PosteriorBatch(xs, st.post, nil, st.batch)
	post := st.post.Data()
	for j, s := range sh.stats {
		s.Reset()
		s.AddColumn(xs, post, k, j)
	}
}

// eStep runs one fused E+M accumulation pass over data under mix: shards
// are computed concurrently (pulled off an atomic counter by ws.workers
// goroutines), then reduced into stats in fixed ascending shard order. It
// returns Σ log p(x). The reduction order and shard boundaries are
// independent of the worker count, so the result is deterministic and
// bit-identical at any parallelism.
func (ws *eWorkspace) eStep(data []linalg.Vector, mix *gaussian.Mixture, stats []*SuffStats) float64 {
	if ws.workers == 1 {
		st := ws.states[0]
		for si := range ws.shards {
			ws.runShard(si, data, mix, st)
		}
	} else {
		var next atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < ws.workers; w++ {
			wg.Add(1)
			go func(st *workerState) {
				defer wg.Done()
				for {
					si := int(next.Add(1)) - 1
					if si >= len(ws.shards) {
						return
					}
					ws.runShard(si, data, mix, st)
				}
			}(ws.states[w])
		}
		wg.Wait()
	}
	// Deterministic fixed-order reduction.
	for j := range stats {
		stats[j].Reset()
	}
	var sumLL float64
	for si := range ws.shards {
		sh := &ws.shards[si]
		for j := range stats {
			stats[j].Merge(sh.stats[j])
		}
		sumLL += sh.sumLL
	}
	return sumLL
}
