package site

import (
	"math"
	"testing"

	"cludistream/internal/chunk"
	"cludistream/internal/gaussian"
	"cludistream/internal/linalg"
	"cludistream/internal/stream"
)

// rescanOracleSeed is the warm-seed selection that re-scores every
// interval-decided probe exactly: the first probe initializes, later ones
// replace it on a strictly higher exact average, and the winner seeds only
// within the warm margin. It reads probes without changing them, and also
// returns the winner's exact margin.
func rescanOracleSeed(s *Site, probes []testedModel) (*gaussian.Mixture, float64) {
	best, bestAvg := -1, 0.0
	for i, tm := range probes {
		avg := tm.avg
		if !tm.exact {
			avg = tm.m.Mixture.AvgLogLikelihoodScratch(s.scan.Complete(), nil)
		}
		if best < 0 || avg > bestAvg {
			best, bestAvg = i, avg
		}
	}
	margin := math.Abs(bestAvg - probes[best].m.RefAvgLL)
	if margin > s.warmMargin {
		return nil, margin
	}
	return probes[best].m.Mixture, margin
}

// seedTally counts what the interval ranking saved and which ways it went.
type seedTally struct {
	rankings, seeded, cold, rescans, intervalProbes int
}

// checkSeedOnChunk probes chunk with every model Algorithm 1's multi-test
// would (the current one, then the archive newest first, up to CMax), as
// processChunk does, and requires refitSeed to pick the rescan oracle's
// seed from those probes: at the site's warm margin, and at margins around
// the winner's exact one, where the winner's interval straddles the margin
// or only just decides it.
func checkSeedOnChunk(t *testing.T, s *Site, data []linalg.Vector, tally *seedTally) {
	t.Helper()
	s.scan.Reset(data)
	s.tested = s.tested[:0]
	models := []*Model{s.current}
	for i := len(s.archive) - 1; i >= 0 && len(models) < s.cfg.CMax; i-- {
		models = append(models, s.archive[i])
	}
	for _, m := range models {
		probe, _, _ := s.fitScore(m)
		s.tested = append(s.tested, probe)
		if !probe.exact {
			tally.intervalProbes++
		}
	}
	probes := append([]testedModel(nil), s.tested...)
	_, exactMargin := rescanOracleSeed(s, probes)
	siteMargin := s.warmMargin
	defer func() { s.warmMargin = siteMargin }()
	for i, wm := range []float64{siteMargin, exactMargin, exactMargin * (1 - 1e-6), exactMargin * (1 + 1e-6), exactMargin - 0.5, exactMargin + 0.5} {
		s.warmMargin = wm
		s.tested = append(s.tested[:0], probes...)
		want, _ := rescanOracleSeed(s, probes)
		misses := s.stats.StatCacheMisses
		got := s.refitSeed()
		if got != want {
			t.Fatalf("chunk %d, warm margin %v (winner's exact margin %v): refitSeed chose %p, the rescan oracle %p (probes %+v)",
				s.chunkNum, wm, exactMargin, got, want, probes)
		}
		if i > 0 {
			continue
		}
		tally.rankings++
		tally.rescans += s.stats.StatCacheMisses - misses
		if got == nil {
			tally.cold++
		} else {
			tally.seeded++
		}
	}
}

// TestRefitSeedMatchesRescanOracle pins the interval ranking of warm seeds
// to the oracle that re-scores every probe: on seeded drifting site
// streams, at every chunk, the seed refitSeed picks from the multi-test's
// probes is the oracle's, and replaying each stream through the interval
// verdict and through the exact scan gives the same refit decisions. The
// ranking must skip rescans the oracle would run, and see both seeded and
// cold outcomes.
func TestRefitSeedMatchesRescanOracle(t *testing.T) {
	daemon := Config{SiteID: 1, Dim: 4, K: 5, Epsilon: 0.02, FitEps: 0.25, Delta: 0.01, CMax: 4, Seed: 3}
	m := chunk.Size(daemon.Dim, daemon.Epsilon, daemon.Delta)
	type tc struct {
		cfg    Config
		stream []linalg.Vector
		size   int
	}
	var cases []tc
	for seed := int64(21); seed <= 24; seed++ {
		g, err := stream.NewSynthetic(stream.SyntheticConfig{Dim: 4, K: 5, Pd: 0.5, RegimeLen: 2000, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, tc{daemon, stream.Take(g, 12*m), m})
	}
	for seed := int64(31); seed <= 34; seed++ {
		cases = append(cases, tc{prunedCfg(), prunedParityStream(seed, 24), 160})
	}
	var tally seedTally
	for _, c := range cases {
		s, err := New(c.cfg)
		if err != nil {
			t.Fatal(err)
		}
		for base := 0; base+c.size <= len(c.stream); base += c.size {
			data := c.stream[base : base+c.size]
			if s.current != nil {
				checkSeedOnChunk(t, s, data, &tally)
			}
			if _, err := s.ProcessChunk(data); err != nil {
				t.Fatal(err)
			}
		}
		checkParity(t, c.cfg, c.stream)
	}
	t.Logf("%+v", tally)
	if tally.rescans >= tally.intervalProbes {
		t.Errorf("%d rescans for %d interval probes: the ranking saved nothing", tally.rescans, tally.intervalProbes)
	}
	if tally.seeded == 0 || tally.cold == 0 {
		t.Errorf("outcomes never varied: %+v", tally)
	}
}

// TestRefitSeedTieKeepsFirstProbe: two archived models with the same
// mixture as the current one score identically, so the intervals cannot
// separate them; all three are re-scored and the first tested (the current
// model) wins the tie, as in the oracle.
func TestRefitSeedTieKeepsFirstProbe(t *testing.T) {
	cfg := prunedCfg()
	stream := prunedParityStream(5, 2)
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.ProcessChunk(stream[:160]); err != nil {
		t.Fatal(err)
	}
	cur := s.current
	for id := 90; id < 92; id++ {
		// A distinct mixture with the current one's exact parameters.
		twin, err := gaussian.NewNormalizedMixture(cur.Mixture.Weights(), comps(cur.Mixture))
		if err != nil {
			t.Fatal(err)
		}
		s.archive = append(s.archive, &Model{ID: id, Mixture: twin, RefAvgLL: cur.RefAvgLL})
	}
	var tally seedTally
	checkSeedOnChunk(t, s, stream[160:320], &tally)
	if tally.rescans != tally.intervalProbes || tally.intervalProbes != 3 {
		t.Fatalf("tie re-scored %d of %d interval probes, want all 3", tally.rescans, tally.intervalProbes)
	}
	if got := s.refitSeed(); got != cur.Mixture {
		t.Fatalf("tie went to %p, want the first probe's %p", got, cur.Mixture)
	}
}

func comps(m *gaussian.Mixture) []*gaussian.Component {
	out := make([]*gaussian.Component, m.K())
	for j := range out {
		out[j] = m.Component(j)
	}
	return out
}
