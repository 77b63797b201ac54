package cludistream_test

import (
	"fmt"
	"log"
	"math/rand"

	cludistream "cludistream"
	"cludistream/internal/coordinator"
	"cludistream/internal/gaussian"
	"cludistream/internal/linalg"
	"cludistream/internal/site"
	"cludistream/internal/stream"
	"cludistream/internal/tree"
)

// One remote site, one coordinator, one evolving stream: how many distinct
// distributions the site detected, how little it transmitted, and the
// global mixture the coordinator assembled.
func Example_quickstart() {
	// Epsilon drives the Theorem-1 chunk size; FitEps is the calibrated
	// J_fit threshold (EXPERIMENTS.md).
	sys, err := cludistream.New(cludistream.Config{
		NumSites: 1,
		Dim:      2,
		K:        3,
		Epsilon:  0.05, // chunk size M = 2·2·ln(1/(δ(2−δ)))/ε ≈ 314
		FitEps:   0.8,
		Delta:    0.01,
		Seed:     42,
	})
	if err != nil {
		log.Fatal(err)
	}

	// A 2-d stream whose underlying mixture is redrawn with probability 0.5
	// every 1000 records.
	gen, err := stream.NewSynthetic(stream.SyntheticConfig{
		Dim: 2, K: 3, Pd: 0.5, RegimeLen: 1000, Seed: 7,
	})
	if err != nil {
		log.Fatal(err)
	}

	const updates = 20_000
	for i := 0; i < updates; i++ {
		if err := sys.Feed(0, gen.Next()); err != nil {
			log.Fatal(err)
		}
	}
	if err := sys.Drain(); err != nil {
		log.Fatal(err)
	}

	st := sys.Site(0)
	fmt.Printf("stream: %d records, %d true distribution regimes\n", updates, gen.Regimes())
	fmt.Printf("site: %d chunks of %d records; %d fit an existing model, %d EM re-clusterings\n",
		st.ChunksSeen(), sys.ChunkSize(), st.Stats().Fits, st.Stats().EMRuns)
	fmt.Printf("site model list: %d models; event table: %d closed spans\n",
		len(st.Models()), st.Events().Len())
	fmt.Printf("communication: %d messages, %d bytes (vs %d bytes of raw data)\n",
		sys.TotalMessages(), sys.TotalBytes(), updates*2*8)

	gm := sys.GlobalMixture()
	fmt.Printf("coordinator global mixture: %d merged components\n", gm.K())
	for j := 0; j < gm.K(); j++ {
		c := gm.Component(j)
		fmt.Printf("  component %d: weight %.3f, mean (%.2f, %.2f)\n",
			j, gm.Weight(j), c.Mean()[0], c.Mean()[1])
	}
	// Output:
	// stream: 20000 records, 9 true distribution regimes
	// site: 63 chunks of 314 records; 52 fit an existing model, 11 EM re-clusterings
	// site model list: 11 models; event table: 10 closed spans
	// communication: 11 messages, 2002 bytes (vs 320000 bytes of raw data)
	// coordinator global mixture: 19 merged components
	//   component 0: weight 0.026, mean (-9.39, 3.14)
	//   component 1: weight 0.083, mean (-9.35, -4.92)
	//   component 2: weight 0.000, mean (-8.50, -0.85)
	//   component 3: weight 0.032, mean (-7.29, 6.37)
	//   component 4: weight 0.053, mean (-7.17, -5.54)
	//   component 5: weight 0.073, mean (-5.29, 8.25)
	//   component 6: weight 0.040, mean (-4.25, 5.56)
	//   component 7: weight 0.080, mean (-2.13, 6.36)
	//   component 8: weight 0.128, mean (-0.26, 3.03)
	//   component 9: weight 0.043, mean (0.92, -5.31)
	//   component 10: weight 0.051, mean (3.42, 2.04)
	//   component 11: weight 0.056, mean (3.50, -2.32)
	//   component 12: weight 0.022, mean (3.78, -6.97)
	//   component 13: weight 0.067, mean (5.28, 7.00)
	//   component 14: weight 0.030, mean (6.10, -9.41)
	//   component 15: weight 0.031, mean (7.31, 0.07)
	//   component 16: weight 0.116, mean (8.63, -5.29)
	//   component 17: weight 0.034, mean (8.74, 6.06)
	//   component 18: weight 0.034, mean (9.66, 1.20)
}

// The paper's motivating telecom scenario: 20 remote sites each observe a
// heavy-tailed, regime-switching net-flow stream (the NFD-like workload),
// and the coordinator assembles a global traffic model while the links
// stay almost silent.
func Example_netflow() {
	const (
		sites          = 20
		updatesPerSite = 3_000
	)
	sys, err := cludistream.New(cludistream.Config{
		NumSites: sites,
		Dim:      stream.NFDDim,
		K:        5,
		Epsilon:  0.1, // M = 470 records for d=6
		FitEps:   1.2, // net-flow tails need a wider fit band (EXPERIMENTS.md)
		Delta:    0.01,
		CMax:     4,
		Seed:     1,
	})
	if err != nil {
		log.Fatal(err)
	}

	// Each site watches its own link: same traffic physics, different
	// regimes and hosts.
	gens := make([]*stream.NFD, sites)
	for i := range gens {
		gens[i], err = stream.NewNFD(stream.NFDConfig{Pd: 0.2, RegimeLen: 1000, Seed: int64(100 + i)})
		if err != nil {
			log.Fatal(err)
		}
	}

	for rec := 0; rec < updatesPerSite; rec++ {
		for i, g := range gens {
			if err := sys.Feed(i, g.Next()); err != nil {
				log.Fatal(err)
			}
		}
	}
	if err := sys.Drain(); err != nil {
		log.Fatal(err)
	}

	raw := sites * updatesPerSite * stream.NFDDim * 8
	fmt.Printf("netflow deployment: %d sites × %d flows\n", sites, updatesPerSite)
	fmt.Printf("raw data volume: %d bytes; transmitted: %d bytes (%.2f%%)\n",
		raw, sys.TotalBytes(), 100*float64(sys.TotalBytes())/float64(raw))

	// Per-second cost series — the Figure 2 observable.
	series := sys.CostSeries(1.0)
	fmt.Printf("cumulative bytes per simulated second: %v\n", series)

	coord := sys.Coordinator()
	fmt.Printf("coordinator holds %d site models (%d components) merged into %d groups\n",
		coord.NumModels(), coord.NumLeaves(), len(coord.Groups()))
	for _, g := range coord.Groups() {
		mu := g.Representative().Mean()
		fmt.Printf("  group %2d: weight %8.0f, %d member sites, mean dstPort %.3f, mean log-packets %.3f\n",
			g.ID(), g.Weight(), g.Size(), mu[3], mu[4])
	}
	// Output:
	// netflow deployment: 20 sites × 3000 flows
	// raw data volume: 2880000 bytes; transmitted: 37056 bytes (1.29%)
	// cumulative bytes per simulated second: [25476 31266 37056]
	// coordinator holds 32 site models (160 components) merged into 95 groups
	//   group  1: weight      470, 3 member sites, mean dstPort 0.000, mean log-packets 0.160
	//   group  2: weight       35, 1 member sites, mean dstPort 0.002, mean log-packets 0.167
	//   group  3: weight      670, 4 member sites, mean dstPort 0.050, mean log-packets 0.173
	//   group  4: weight      435, 5 member sites, mean dstPort 0.022, mean log-packets 0.180
	//   group  5: weight      763, 5 member sites, mean dstPort 0.012, mean log-packets 0.187
	//   group  6: weight        6, 1 member sites, mean dstPort 0.081, mean log-packets 0.183
	//   group  7: weight        7, 1 member sites, mean dstPort 0.058, mean log-packets 0.174
	//   group  8: weight      121, 1 member sites, mean dstPort 0.124, mean log-packets 0.198
	//   group  9: weight      266, 1 member sites, mean dstPort 0.124, mean log-packets 0.195
	//   group 10: weight      188, 2 member sites, mean dstPort 0.018, mean log-packets 0.190
	//   group 11: weight       82, 1 member sites, mean dstPort 0.028, mean log-packets 0.213
	//   group 12: weight       23, 1 member sites, mean dstPort 0.014, mean log-packets 0.146
	//   group 13: weight      167, 1 member sites, mean dstPort 0.000, mean log-packets 0.183
	//   group 14: weight      385, 5 member sites, mean dstPort 0.014, mean log-packets 0.177
	//   group 15: weight      243, 3 member sites, mean dstPort 0.053, mean log-packets 0.194
	//   group 16: weight        8, 1 member sites, mean dstPort 0.054, mean log-packets 0.218
	//   group 17: weight       21, 1 member sites, mean dstPort 0.044, mean log-packets 0.175
	//   group 18: weight      583, 3 member sites, mean dstPort 0.016, mean log-packets 0.154
	//   group 19: weight      331, 4 member sites, mean dstPort 0.017, mean log-packets 0.167
	//   group 20: weight        3, 1 member sites, mean dstPort 0.006, mean log-packets 0.145
	//   group 21: weight        8, 1 member sites, mean dstPort 0.002, mean log-packets 0.159
	//   group 22: weight      230, 1 member sites, mean dstPort 0.015, mean log-packets 0.128
	//   group 23: weight        4, 1 member sites, mean dstPort 0.016, mean log-packets 0.157
	//   group 24: weight      821, 5 member sites, mean dstPort 0.011, mean log-packets 0.150
	//   group 25: weight       61, 1 member sites, mean dstPort 0.003, mean log-packets 0.155
	//   group 26: weight      217, 2 member sites, mean dstPort 0.011, mean log-packets 0.154
	//   group 27: weight      346, 2 member sites, mean dstPort 0.000, mean log-packets 0.140
	//   group 28: weight      198, 2 member sites, mean dstPort 0.008, mean log-packets 0.140
	//   group 29: weight        7, 1 member sites, mean dstPort 0.004, mean log-packets 0.124
	//   group 30: weight      171, 1 member sites, mean dstPort 0.000, mean log-packets 0.077
	//   group 31: weight        4, 1 member sites, mean dstPort 0.045, mean log-packets 0.163
	//   group 32: weight      100, 1 member sites, mean dstPort 0.010, mean log-packets 0.082
	//   group 33: weight       72, 3 member sites, mean dstPort 0.010, mean log-packets 0.080
	//   group 34: weight      148, 1 member sites, mean dstPort 0.022, mean log-packets 0.082
	//   group 35: weight       30, 1 member sites, mean dstPort 0.007, mean log-packets 0.171
	//   group 36: weight        6, 1 member sites, mean dstPort 0.010, mean log-packets 0.180
	//   group 37: weight       42, 1 member sites, mean dstPort 0.009, mean log-packets 0.183
	//   group 38: weight        4, 1 member sites, mean dstPort 0.010, mean log-packets 0.140
	//   group 39: weight      254, 3 member sites, mean dstPort 0.015, mean log-packets 0.138
	//   group 40: weight        6, 1 member sites, mean dstPort 0.010, mean log-packets 0.131
	//   group 41: weight      304, 2 member sites, mean dstPort 0.013, mean log-packets 0.138
	//   group 42: weight      303, 1 member sites, mean dstPort 0.012, mean log-packets 0.171
	//   group 43: weight       20, 1 member sites, mean dstPort 0.014, mean log-packets 0.305
	//   group 44: weight        5, 1 member sites, mean dstPort 0.034, mean log-packets 0.185
	//   group 45: weight      569, 3 member sites, mean dstPort 0.012, mean log-packets 0.109
	//   group 46: weight       44, 1 member sites, mean dstPort 0.038, mean log-packets 0.136
	//   group 47: weight        4, 1 member sites, mean dstPort 0.007, mean log-packets 0.111
	//   group 48: weight      187, 2 member sites, mean dstPort 0.010, mean log-packets 0.105
	//   group 49: weight      242, 5 member sites, mean dstPort 0.052, mean log-packets 0.215
	//   group 50: weight      119, 2 member sites, mean dstPort 0.009, mean log-packets 0.166
	//   group 51: weight        4, 1 member sites, mean dstPort 0.038, mean log-packets 0.182
	//   group 52: weight      236, 2 member sites, mean dstPort 0.006, mean log-packets 0.177
	//   group 53: weight      363, 3 member sites, mean dstPort 0.099, mean log-packets 0.207
	//   group 54: weight       71, 1 member sites, mean dstPort 0.093, mean log-packets 0.246
	//   group 55: weight       82, 2 member sites, mean dstPort 0.046, mean log-packets 0.216
	//   group 56: weight       54, 1 member sites, mean dstPort 0.114, mean log-packets 0.217
	//   group 57: weight        4, 1 member sites, mean dstPort 0.012, mean log-packets 0.144
	//   group 58: weight       17, 1 member sites, mean dstPort 0.013, mean log-packets 0.157
	//   group 59: weight       96, 2 member sites, mean dstPort 0.006, mean log-packets 0.175
	//   group 60: weight      372, 2 member sites, mean dstPort 0.047, mean log-packets 0.191
	//   group 61: weight       92, 1 member sites, mean dstPort 0.051, mean log-packets 0.193
	//   group 62: weight       13, 1 member sites, mean dstPort 0.048, mean log-packets 0.189
	//   group 63: weight        2, 1 member sites, mean dstPort 0.068, mean log-packets 0.210
	//   group 64: weight      178, 1 member sites, mean dstPort 0.000, mean log-packets 0.110
	//   group 65: weight      572, 2 member sites, mean dstPort 0.011, mean log-packets 0.198
	//   group 66: weight       14, 1 member sites, mean dstPort 0.023, mean log-packets 0.198
	//   group 67: weight       95, 1 member sites, mean dstPort 0.013, mean log-packets 0.203
	//   group 68: weight        3, 1 member sites, mean dstPort 0.005, mean log-packets 0.313
	//   group 69: weight      195, 1 member sites, mean dstPort 0.000, mean log-packets 0.148
	//   group 70: weight       18, 1 member sites, mean dstPort 0.011, mean log-packets 0.157
	//   group 71: weight       16, 1 member sites, mean dstPort 0.077, mean log-packets 0.131
	//   group 72: weight       43, 1 member sites, mean dstPort 0.008, mean log-packets 0.162
	//   group 73: weight      157, 2 member sites, mean dstPort 0.008, mean log-packets 0.183
	//   group 74: weight      373, 2 member sites, mean dstPort 0.000, mean log-packets 0.140
	//   group 75: weight      342, 3 member sites, mean dstPort 0.020, mean log-packets 0.142
	//   group 76: weight       53, 2 member sites, mean dstPort 0.008, mean log-packets 0.143
	//   group 77: weight       44, 1 member sites, mean dstPort 0.009, mean log-packets 0.182
	//   group 78: weight      151, 2 member sites, mean dstPort 0.094, mean log-packets 0.200
	//   group 79: weight      173, 1 member sites, mean dstPort 0.000, mean log-packets 0.202
	//   group 80: weight      218, 3 member sites, mean dstPort 0.018, mean log-packets 0.224
	//   group 81: weight      205, 3 member sites, mean dstPort 0.103, mean log-packets 0.194
	//   group 82: weight      138, 1 member sites, mean dstPort 0.124, mean log-packets 0.170
	//   group 83: weight       80, 1 member sites, mean dstPort 0.110, mean log-packets 0.203
	//   group 84: weight      135, 1 member sites, mean dstPort 0.118, mean log-packets 0.180
	//   group 85: weight       40, 1 member sites, mean dstPort 0.007, mean log-packets 0.221
	//   group 86: weight      483, 2 member sites, mean dstPort 0.100, mean log-packets 0.183
	//   group 87: weight        7, 1 member sites, mean dstPort 0.015, mean log-packets 0.260
	//   group 88: weight      253, 1 member sites, mean dstPort 0.013, mean log-packets 0.217
	//   group 89: weight        8, 1 member sites, mean dstPort 0.008, mean log-packets 0.158
	//   group 90: weight      188, 1 member sites, mean dstPort 0.095, mean log-packets 0.202
	//   group 91: weight        6, 1 member sites, mean dstPort 0.107, mean log-packets 0.191
	//   group 92: weight       45, 1 member sites, mean dstPort 0.062, mean log-packets 0.183
	//   group 93: weight        9, 1 member sites, mean dstPort 0.110, mean log-packets 0.389
	//   group 94: weight        2, 1 member sites, mean dstPort 0.006, mean log-packets 0.127
	//   group 95: weight       89, 3 member sites, mean dstPort 0.020, mean log-packets 0.163
}

// sensorStream models one sensor: (temperature, humidity) readings around
// a cluster center with measurement noise and a 2% chance per reading of a
// corrupted outlier — the "noisy or incomplete records" of the paper's
// introduction.
type sensorStream struct {
	rng    *rand.Rand
	center linalg.Vector
}

func (s *sensorStream) next() linalg.Vector {
	if s.rng.Float64() < 0.02 {
		return linalg.Vector{s.rng.Float64() * 50, s.rng.Float64() * 100} // corrupted
	}
	return linalg.Vector{
		s.center[0] + s.rng.NormFloat64()*0.8,
		s.center[1] + s.rng.NormFloat64()*2.5,
	}
}

// Section 7's multi-layer extension: a sensor network of 9 leaf sensors
// under 3 aggregators under 1 root, where every interior node runs
// CluDistream over its children and uploads only when its merged model
// changes. One sensor drifts to a new regime mid-run, and the change
// propagates to the root.
func Example_sensornet() {
	// Three rooms, one aggregator each: Build hangs leaf i under aggregator
	// i % 3, so sensor i sits in room i % 3.
	topo, err := tree.Spec{Leaves: 9, AggLayers: 1, FanOut: 3, Link: tree.LinkSpec{Latency: 0.05}}.Build()
	if err != nil {
		log.Fatal(err)
	}
	dep, err := tree.NewDeployment(tree.Config{
		Topology: topo,
		Site: site.Config{
			Dim: 2, K: 2, Epsilon: 0.1, FitEps: 1.0, Delta: 0.01, ChunkSize: 250,
		},
		Coord: coordinator.Config{Dim: 2},
		Seed:  3,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("sensor network: %d leaf sensors under %d aggregators under 1 root\n",
		dep.NumSites(), dep.NumNodes()-1)

	// Each aggregator's sensors share a climate.
	sensors := make([]*sensorStream, dep.NumSites())
	for i := range sensors {
		room := i % 3
		sensors[i] = &sensorStream{
			rng:    rand.New(rand.NewSource(int64(50 + i))),
			center: linalg.Vector{18 + float64(room)*4, 40 + float64(room)*10},
		}
	}
	// run feeds every sensor n readings, then delivers what is in flight.
	run := func(n int) {
		for rec := 0; rec < n; rec++ {
			for i := range sensors {
				if err := dep.Feed(i, sensors[i].next()); err != nil {
					log.Fatal(err)
				}
			}
		}
		if err := dep.Drain(); err != nil {
			log.Fatal(err)
		}
	}

	run(1500)
	fmt.Printf("phase 1 (stable climates): root model K=%d, upload traffic %d bytes (%d into the root)\n",
		dep.RootMixture().K(), dep.TotalBytes(), dep.LayerBytes()[0])
	before, rootBefore := dep.TotalBytes(), dep.LayerBytes()[0]

	// Sensor 0's room heats up: a genuine distribution change.
	sensors[0].center = linalg.Vector{35, 20}
	run(1500)
	fmt.Printf("phase 2 (sensor 0 drifted): root model K=%d, +%d upload bytes (+%d into the root)\n",
		dep.RootMixture().K(), dep.TotalBytes()-before, dep.LayerBytes()[0]-rootBefore)

	// The leaf's event table records the change (Section 7: change
	// detection = fit-test failure).
	leaf := dep.LeafSite(0)
	fmt.Printf("sensor 0 event table: %d spans, detected changes at chunks %v\n",
		leaf.Events().Len(), leaf.Events().Changes())

	gm := dep.RootMixture()
	fmt.Println("root's merged climate model:")
	for j := 0; j < gm.K(); j++ {
		c := gm.Component(j)
		fmt.Printf("  %.0f%% of readings around %.1f°C / %.0f%% humidity\n",
			100*gm.Weight(j), c.Mean()[0], c.Mean()[1])
	}
	// Output:
	// sensor network: 9 leaf sensors under 3 aggregators under 1 root
	// phase 1 (stable climates): root model K=9, upload traffic 5244 bytes (3234 into the root)
	// phase 2 (sensor 0 drifted): root model K=10, +394 upload bytes (+260 into the root)
	// sensor 0 event table: 2 spans, detected changes at chunks [2]
	// root's merged climate model:
	//   0% of readings around 6.4°C / 67% humidity
	//   0% of readings around 7.0°C / 99% humidity
	//   25% of readings around 18.0°C / 40% humidity
	//   37% of readings around 21.9°C / 50% humidity
	//   31% of readings around 26.0°C / 60% humidity
	//   0% of readings around 26.3°C / 7% humidity
	//   2% of readings around 28.5°C / 47% humidity
	//   6% of readings around 34.9°C / 20% humidity
	//   0% of readings around 37.7°C / 16% humidity
	//   0% of readings around 39.3°C / 23% humidity
}

// Section 7's change detection and evolving analysis, the event-driven
// alternative to CluStream's pyramidal snapshots: a site watches a stream
// that cycles through market regimes, the event table answers arbitrary
// windows with the mixture that governed them, and a sliding-window
// deployment's deletions age old regimes out of the coordinator.
func Example_evolving() {
	// Three market regimes: calm, volatile, crash — each a 1-d mixture of
	// return behaviours.
	mk := func(mu, spread float64) *gaussian.Mixture {
		return gaussian.MustMixture(
			[]float64{0.7, 0.3},
			[]*gaussian.Component{
				gaussian.Spherical(linalg.Vector{mu}, spread),
				gaussian.Spherical(linalg.Vector{mu * 2}, spread*3),
			})
	}
	regimes := []*gaussian.Mixture{mk(0.5, 0.2), mk(-1, 1.5), mk(-8, 2)}
	const chunkSize = 250
	gen, err := stream.NewAlternating(regimes, 4*chunkSize, 11)
	if err != nil {
		log.Fatal(err)
	}

	st, err := site.New(site.Config{
		SiteID: 1, Dim: 1, K: 2, Epsilon: 0.1, FitEps: 1.0, Delta: 0.01,
		CMax: 4, Seed: 2, ChunkSize: chunkSize,
	})
	if err != nil {
		log.Fatal(err)
	}
	const updates = 24 * chunkSize // 6 regime phases
	for i := 0; i < updates; i++ {
		if _, err := st.Observe(gen.Next()); err != nil {
			log.Fatal(err)
		}
	}

	// Change detection: every event-table boundary is a detected
	// distribution change.
	fmt.Printf("processed %d records in %d chunks\n", updates, st.ChunksSeen())
	fmt.Printf("detected distribution changes at chunks %v\n", st.Events().Changes())
	fmt.Printf("model list: %d models (the multi-test strategy re-activates repeats)\n", len(st.Models()))

	// Evolving analysis: rebuild the model for arbitrary past windows.
	h := st.History()
	for _, w := range [][2]int{{1, 4}, {5, 8}, {9, 12}, {1, 24}} {
		m := h.Mixture(w[0], w[1])
		if m == nil {
			continue
		}
		probe := []linalg.Vector{{0.5}, {-1}, {-8}}
		fmt.Printf("window chunks %2d-%2d: %d components, p(calm)=%.3f p(volatile)=%.3f p(crash)=%.3f\n",
			w[0], w[1], m.K(), m.PDF(probe[0]), m.PDF(probe[1]), m.PDF(probe[2]))
	}

	// Sliding windows end-to-end: deletions age expired regimes out of the
	// coordinator (Section 7's negative-weight messages).
	sys, err := cludistream.New(cludistream.Config{
		NumSites: 1, Dim: 1, K: 2, Epsilon: 0.1, FitEps: 1.0, Delta: 0.01,
		Seed: 2, ChunkSize: chunkSize, SlidingHorizonChunks: 4,
	})
	if err != nil {
		log.Fatal(err)
	}
	rng := rand.New(rand.NewSource(99))
	for _, m := range regimes {
		for i := 0; i < 8*chunkSize; i++ {
			if err := sys.Feed(0, m.Sample(rng)); err != nil {
				log.Fatal(err)
			}
		}
	}
	if err := sys.Drain(); err != nil {
		log.Fatal(err)
	}
	gm := sys.GlobalMixture()
	fmt.Printf("\nsliding-window coordinator (horizon 4 chunks) after the crash regime:\n")
	fmt.Printf("  %d live groups; p(crash)=%.3f p(calm)=%.4f — old regimes aged out\n",
		len(sys.Coordinator().Groups()), gm.PDF(linalg.Vector{-8}), gm.PDF(linalg.Vector{0.5}))
	// Output:
	// processed 6000 records in 24 chunks
	// detected distribution changes at chunks [5 9 13]
	// model list: 3 models (the multi-test strategy re-activates repeats)
	// window chunks  1- 4: 2 components, p(calm)=0.734 p(volatile)=0.015 p(crash)=0.000
	// window chunks  5- 8: 2 components, p(calm)=0.154 p(volatile)=0.274 p(crash)=0.000
	// window chunks  9-12: 2 components, p(calm)=0.000 p(volatile)=0.000 p(crash)=0.189
	// window chunks  1-24: 6 components, p(calm)=0.199 p(volatile)=0.140 p(crash)=0.063
	//
	// sliding-window coordinator (horizon 4 chunks) after the crash regime:
	//   2 live groups; p(crash)=0.194 p(calm)=0.0000 — old regimes aged out
}
