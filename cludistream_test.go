package cludistream

import (
	"math"
	"math/rand"
	"testing"

	"cludistream/internal/gaussian"
	"cludistream/internal/linalg"
	"cludistream/internal/stream"
)

func smallConfig() Config {
	return Config{
		NumSites:  3,
		Dim:       1,
		K:         2,
		Epsilon:   0.5,
		Delta:     0.01,
		Seed:      1,
		ChunkSize: 200,
		Merge:     gaussian.MergeOptions{MomentOnly: true},
	}
}

func bimodal(mean float64) *gaussian.Mixture {
	return gaussian.MustMixture(
		[]float64{0.5, 0.5},
		[]*gaussian.Component{
			gaussian.Spherical(linalg.Vector{mean - 2}, 0.5),
			gaussian.Spherical(linalg.Vector{mean + 2}, 0.5),
		})
}

func TestSystemEndToEnd(t *testing.T) {
	sys, err := New(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	mix := bimodal(0)
	for i := 0; i < 200*3*3; i++ {
		if err := sys.Feed(i%3, mix.Sample(rng)); err != nil {
			t.Fatal(err)
		}
	}
	if err := sys.Drain(); err != nil {
		t.Fatal(err)
	}
	gm := sys.GlobalMixture()
	if gm == nil {
		t.Fatal("no global mixture")
	}
	// All sites saw the same regime: merged model should be compact and
	// explain the data.
	if gm.K() > 3 {
		t.Fatalf("global K = %d, want ≈2 after merging", gm.K())
	}
	probe := []linalg.Vector{{-2}, {2}}
	if ll := gm.AvgLogLikelihood(probe); ll < -4 {
		t.Fatalf("global LL = %v", ll)
	}
}

func TestSystemDefaults(t *testing.T) {
	sys, err := New(Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if sys.NumSites() != 20 {
		t.Fatalf("default sites = %d", sys.NumSites())
	}
	if sys.ChunkSize() != 1567 {
		t.Fatalf("default chunk size = %d, want 1567", sys.ChunkSize())
	}
}

func TestSystemCommunicationSilenceWhenStable(t *testing.T) {
	sys, _ := New(smallConfig())
	rng := rand.New(rand.NewSource(2))
	mix := bimodal(0)
	feed := func(n int) {
		for i := 0; i < n; i++ {
			if err := sys.Feed(i%3, mix.Sample(rng)); err != nil {
				t.Fatal(err)
			}
		}
	}
	feed(200 * 2 * 3)
	after := sys.TotalBytes()
	feed(200 * 8 * 3)
	if sys.TotalBytes() != after {
		t.Fatalf("stable stream kept transmitting: %d -> %d", after, sys.TotalBytes())
	}
	if sys.TotalMessages() != 3 {
		t.Fatalf("messages = %d, want 3 (one model per site)", sys.TotalMessages())
	}
}

func TestSystemRegimeChangeCosts(t *testing.T) {
	sys, _ := New(smallConfig())
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 200*2*3; i++ {
		_ = sys.Feed(i%3, bimodal(0).Sample(rng))
	}
	before := sys.TotalBytes()
	for i := 0; i < 200*2*3; i++ {
		_ = sys.Feed(i%3, bimodal(50).Sample(rng))
	}
	if sys.TotalBytes() <= before {
		t.Fatal("regime change transmitted nothing")
	}
	if err := sys.Drain(); err != nil {
		t.Fatal(err)
	}
	if sys.Coordinator().NumModels() != 6 { // 2 models × 3 sites
		t.Fatalf("coordinator models = %d, want 6", sys.Coordinator().NumModels())
	}
}

func TestSystemCostSeriesMonotone(t *testing.T) {
	sys, _ := New(smallConfig())
	g, _ := stream.NewSynthetic(stream.SyntheticConfig{Dim: 1, K: 2, Pd: 1, RegimeLen: 300, Seed: 4})
	if err := sys.FeedRoundRobin(stream.Take(g, 200*4*3)); err != nil {
		t.Fatal(err)
	}
	_ = sys.Drain()
	series := sys.CostSeries(0.5)
	if len(series) == 0 {
		t.Fatal("empty cost series")
	}
	for i := 1; i < len(series); i++ {
		if series[i] < series[i-1] {
			t.Fatalf("cost series not monotone at %d: %v", i, series[:i+1])
		}
	}
	if series[len(series)-1] != sys.TotalBytes() {
		t.Fatalf("series end %d != total %d", series[len(series)-1], sys.TotalBytes())
	}
}

func TestSystemVirtualClockAdvances(t *testing.T) {
	sys, _ := New(smallConfig())
	rng := rand.New(rand.NewSource(5))
	mix := bimodal(0)
	for i := 0; i < 1000; i++ {
		_ = sys.Feed(0, mix.Sample(rng))
	}
	// 1000 records at 1000/s = ~1 simulated second.
	if now := sys.Now(); math.Abs(now-0.999) > 0.01 {
		t.Fatalf("Now = %v, want ≈1", now)
	}
}

func TestSystemSlidingWindowDeletions(t *testing.T) {
	cfg := smallConfig()
	cfg.NumSites = 1
	cfg.SlidingHorizonChunks = 2
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(6))
	for i := 0; i < 200*6; i++ {
		if err := sys.Feed(0, bimodal(0).Sample(rng)); err != nil {
			t.Fatal(err)
		}
	}
	if err := sys.Drain(); err != nil {
		t.Fatal(err)
	}
	// 6 chunks seen, horizon 2 → 4 chunks expired; the model's coordinator
	// weight must be 2 chunks = 400 records.
	var total float64
	for _, g := range sys.Coordinator().Groups() {
		total += g.Weight()
	}
	if math.Abs(total-400) > 1e-6 {
		t.Fatalf("coordinator mass = %v, want 400 after expiry", total)
	}
}

func TestSystemFeedValidation(t *testing.T) {
	sys, _ := New(smallConfig())
	if err := sys.Feed(99, linalg.Vector{0}); err == nil {
		t.Fatal("bad site index accepted")
	}
	if err := sys.Feed(0, linalg.Vector{0, 1}); err == nil {
		t.Fatal("bad dimension accepted")
	}
	if _, err := New(Config{NumSites: -1}); err == nil {
		t.Fatal("negative NumSites accepted")
	}
}

func TestSystemIncompleteRecords(t *testing.T) {
	// A 2-d stream where 20% of attributes are missing (NaN): sites route
	// such chunks to missing-data EM and the pipeline stays healthy.
	cfg := smallConfig()
	cfg.NumSites = 1
	cfg.Dim = 2
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	gen, err := stream.NewSynthetic(stream.SyntheticConfig{
		Dim: 2, K: 2, Pd: 0, MissingFrac: 0.2, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200*2; i++ {
		if err := sys.Feed(0, gen.Next()); err != nil {
			t.Fatal(err)
		}
	}
	if err := sys.Drain(); err != nil {
		t.Fatal(err)
	}
	if sys.GlobalMixture() == nil {
		t.Fatal("no global model from incomplete stream")
	}
}

func TestSystemDeterministic(t *testing.T) {
	run := func() (int, float64) {
		sys, _ := New(smallConfig())
		g, _ := stream.NewSynthetic(stream.SyntheticConfig{Dim: 1, K: 2, Pd: 0.5, RegimeLen: 250, Seed: 7})
		if err := sys.FeedRoundRobin(stream.Take(g, 200*5*3)); err != nil {
			t.Fatal(err)
		}
		_ = sys.Drain()
		gm := sys.GlobalMixture()
		return sys.TotalBytes(), gm.AvgLogLikelihood([]linalg.Vector{{0}, {1}})
	}
	b1, ll1 := run()
	b2, ll2 := run()
	if b1 != b2 || ll1 != ll2 {
		t.Fatalf("non-deterministic: (%d,%v) vs (%d,%v)", b1, ll1, b2, ll2)
	}
}
