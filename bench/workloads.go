package main

import (
	"fmt"
	"math/rand"

	"cludistream/internal/gaussian"
	"cludistream/internal/linalg"
	"cludistream/internal/stream"
)

// workload is one traffic mix. Every stream samples mixtures drawn by
// internal/stream's synthetic generator at its own distributions (5
// spherical components, means in ±10, variance in [0.5,2), weights in
// [0.5,1.5)): the harness adds no recipe of its own, so components land
// within the coordinator's merge distance as often as the generator makes
// them.
//
// The mixtures and their order are one fixed draw (geometrySeed); the
// -seed argument seeds the records sampled from them and the sites' EM.
// What an update costs the coordinator depends on which components fall
// within merge distance of each other, and from one draw of the generator
// to the next that moved records_per_s by a factor of six on drift and
// two and a half on sliding (README, "Why the geometry is fixed"): with
// the draw tied to -seed, a run would measure the luck of its seed.
type workload struct {
	name string
	why  string
	// sites is the number of ingest drivers (one TCP connection each).
	sites int
	// sliding selects sited's -sliding-chunks 12 configuration.
	sliding bool
	// chunks is the fixed work of one rep: each site feeds chunks×M records
	// in the timed window (after the set-up chunk). smokeChunks replaces it
	// under -smoke.
	chunks, smokeChunks int
	// poolChunks is the per-site record pool generated in set-up, cycled
	// when the window is longer; 0 means the whole window, never cycled.
	poolChunks int
	// pacedRate, when positive, makes the ingest driver an open loop at
	// this many records per second.
	pacedRate float64
	// liveQuery runs the CLUQ client beside ingest, for as long as ingest
	// runs; otherwise it sends readBatches batches to the drained pipeline,
	// which is how every workload's served end state is checked.
	liveQuery bool
	// regimes returns the mixtures site i's stream alternates over and how
	// many records it stays on each; records is how many the stream must
	// cover.
	regimes func(i, records int) (mixes []*gaussian.Mixture, regimeLen int)
}

// The sliding workloads alternate over slidingRegimes mixtures, staying
// regimeChunks chunks on each: one cycle is 12 chunks = slidingHorizon.
const (
	slidingRegimes = 3
	regimeChunks   = 4
	geometrySeed   = 1
)

var workloads = []workload{
	{
		name: "steady", sites: 2, chunks: 1280, smokeChunks: 64, poolChunks: 32,
		why: "2 sites, each on its own stationary stream (Pd=0): chunk, gaussian scoring and site do all the work, nothing is sent after the first model; the control for every layer past site",
		regimes: func(i, records int) ([]*gaussian.Mixture, int) {
			return synthetic(0, geometrySeed*1000+int64(i), 1), records
		},
	},
	{
		name: "drift", sites: 2, chunks: 16, smokeChunks: 3,
		why: "2 sites on stream.Synthetic{Pd:0.5, RegimeLen:2000}, landmark window: every second chunk refits and ships a NewModel that merges into the groups earlier regimes left; placement + FitMerge dominate",
		regimes: func(i, records int) ([]*gaussian.Mixture, int) {
			return synthetic(0.5, geometrySeed*1000+int64(i), (records+1999)/2000), 2000
		},
	},
	{
		name: "sliding", sites: 2, sliding: true, chunks: 14, smokeChunks: 2, poolChunks: 3 * slidingRegimes * regimeChunks,
		why:     "2 sites alternating over one shared 3-regime palette, 12-chunk sliding window: a WeightUpdate and, past the horizon, a Deletion per chunk, each touching two-member groups that re-fit on every touch",
		regimes: palette,
	},
	{
		name: "query", sites: 1, sliding: true, chunks: 26, smokeChunks: 14, poolChunks: 3 * slidingRegimes * regimeChunks,
		pacedRate: 30_000, liveQuery: true,
		why:     "one sliding site paced open-loop at 30k records/s (single-member groups, cheap applies) beside one closed-loop CLUQ client: reads while the publisher keeps swapping snapshots",
		regimes: palette,
	},
}

// synthetic returns the first n regimes of stream.Synthetic{Pd: pd,
// RegimeLen: 2000} at its defaults: entry r is the mixture in force over
// records [2000r, 2000(r+1)), so a regime the generator did not redraw
// repeats its predecessor. The generator exposes its regimes only while
// it runs, so it is run (its records are discarded).
func synthetic(pd float64, seed int64, n int) []*gaussian.Mixture {
	g, err := stream.NewSynthetic(stream.SyntheticConfig{Dim: dim, K: 5, Pd: pd, RegimeLen: 2000, Seed: seed})
	if err != nil {
		panic(err) // a fixed valid configuration
	}
	mixes := make([]*gaussian.Mixture, n)
	for r := range mixes {
		g.Next()
		mixes[r] = g.CurrentMixture()
		for i := 1; i < 2000 && r < n-1; i++ {
			g.Next()
		}
	}
	return mixes
}

// palette is the regime mixtures every sliding site alternates over (the
// sites of one workload share it): the first regimes of slidingRegimes
// synthetic generators.
func palette(int, int) ([]*gaussian.Mixture, int) {
	mixes := make([]*gaussian.Mixture, slidingRegimes)
	for r := range mixes {
		mixes[r] = synthetic(0, geometrySeed*1000+500+int64(r), 1)[0]
	}
	return mixes, regimeChunks * chunkSize
}

func findWorkload(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// siteSeed derives site i's stream and EM seed from the run seed. The
// seed reaches the program under test only through the vectors generated
// from it and site.Config.Seed (sited passes its -seed to both as well).
func siteSeed(seed int64, i int) int64 { return seed*1000 + int64(i) + 1 }

// queryBatches is the CLUQ client's request pool; a multiple of three so
// the op cycle classify/density/topk lines up with the pool. readBatches
// is what a workload without a live reader sends to its drained pipeline.
const (
	queryBatches = 63
	readBatches  = 5 * queryBatches
	batchPoints  = 256
	topK         = 3
)

// queryPoints draws the read-side inputs: half near the means that will be
// served (records of the sites' own pools), half far (uniform over one and
// a half times the generator's mean range).
func queryPoints(seed int64, pools [][]linalg.Vector) [][]linalg.Vector {
	rng := rand.New(rand.NewSource(seed*1000 + 900))
	out := make([][]linalg.Vector, queryBatches)
	for b := range out {
		out[b] = make([]linalg.Vector, batchPoints)
		for i := range out[b] {
			if i%2 == 0 {
				pool := pools[rng.Intn(len(pools))]
				out[b][i] = pool[rng.Intn(len(pool))]
				continue
			}
			x := linalg.NewVector(dim)
			for d := range x {
				x[d] = (rng.Float64()*2 - 1) * 15
			}
			out[b][i] = x
		}
	}
	return out
}
