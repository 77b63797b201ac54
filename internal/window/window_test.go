package window

import (
	"math"
	"math/rand"
	"testing"

	"cludistream/internal/gaussian"
	"cludistream/internal/linalg"
	"cludistream/internal/site"
)

func newSite(t *testing.T) *site.Site {
	t.Helper()
	s, err := site.New(site.Config{
		SiteID: 1, Dim: 1, K: 2, Epsilon: 0.5, Delta: 0.01,
		CMax: 4, Seed: 1, ChunkSize: 200,
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func regime(mean float64) *gaussian.Mixture {
	return gaussian.MustMixture(
		[]float64{0.5, 0.5},
		[]*gaussian.Component{
			gaussian.Spherical(linalg.Vector{mean - 2}, 0.5),
			gaussian.Spherical(linalg.Vector{mean + 2}, 0.5),
		})
}

func feed(t *testing.T, s *site.Site, mix *gaussian.Mixture, n int, rng *rand.Rand) {
	t.Helper()
	for i := 0; i < n; i++ {
		if _, err := s.Observe(mix.Sample(rng)); err != nil {
			t.Fatal(err)
		}
	}
}

// TestTrackerValidation: horizon 0 is the landmark window, which has no
// tracker, so nothing deletes and the send rule never applies.
func TestTrackerValidation(t *testing.T) {
	if _, err := NewTracker(newSite(t), 0); err == nil {
		t.Fatal("horizon 0 accepted")
	}
}

// TestTrackerSendUpgradesDrainedModels pins the sliding-window send rule: a
// WeightUpdate becomes a NewModel carrying the site's synopsis exactly when
// the model's outstanding count (+Count per Send, −Count per Expire) is ≤ 0.
// Every chunk is the one regime, so model 1 governs all of them.
func TestTrackerSendUpgradesDrainedModels(t *testing.T) {
	s := newSite(t)
	tr, err := NewTracker(s, 1)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	for i, step := range []struct {
		chunks      int // chunks fed, then expired, before the update
		outstanding int
		upgrade     bool
	}{
		{1, 0, true},    // never sent: the coordinator does not hold it
		{0, 200, false}, // held
		{2, 0, true},    // 400 sent, 400 expired: drained exactly
		{2, -200, true}, // more expired than sent
		{0, 0, true},    // the last send only brought it back to 0
		{0, 200, false}, // held again
	} {
		feed(t, s, regime(0), step.chunks*200, rng)
		tr.Expire(1)
		if got := tr.outstanding[1]; got != step.outstanding {
			t.Fatalf("step %d: outstanding %d, want %d", i, got, step.outstanding)
		}
		u := tr.Send(site.Update{Kind: site.WeightUpdate, SiteID: 1, ModelID: 1, Count: 200})
		if upgraded := u.Kind == site.NewModel; upgraded != step.upgrade {
			t.Fatalf("step %d: upgraded = %v, want %v", i, upgraded, step.upgrade)
		}
		if step.upgrade && u.Mixture != s.Models()[0].Mixture {
			t.Fatalf("step %d: upgrade does not carry the site's synopsis", i)
		}
		if !step.upgrade && u.Mixture != nil {
			t.Fatalf("step %d: a held model's WeightUpdate grew a synopsis", i)
		}
	}
	// A NewModel is never rewritten, only counted.
	nm := site.Update{Kind: site.NewModel, SiteID: 1, ModelID: 1, Count: 200, Mixture: regime(0)}
	if got := tr.Send(nm); got.Kind != site.NewModel || got.Mixture != nm.Mixture || tr.outstanding[1] != 600 {
		t.Fatalf("NewModel rewritten (%v) or miscounted (%d)", got.Kind, tr.outstanding[1])
	}
}

func TestTrackerNoExpiryInsideHorizon(t *testing.T) {
	s := newSite(t)
	tr, _ := NewTracker(s, 5)
	rng := rand.New(rand.NewSource(1))
	feed(t, s, regime(0), 200*5, rng) // exactly 5 chunks
	if ds := tr.Expire(1); len(ds) != 0 {
		t.Fatalf("premature expiry: %v", ds)
	}
}

func TestTrackerExpiresOldChunks(t *testing.T) {
	s := newSite(t)
	tr, _ := NewTracker(s, 3)
	rng := rand.New(rand.NewSource(2))
	feed(t, s, regime(0), 200*7, rng) // 7 chunks, horizon 3 → expire 4
	ds := tr.Expire(1)
	var total int
	for _, d := range ds {
		if d.SiteID != 1 || d.ModelID != 1 {
			t.Fatalf("deletion = %+v", d)
		}
		total += d.Count
	}
	if total != 4*200 {
		t.Fatalf("expired %d records, want 800", total)
	}
	// Consecutive same-model deletions coalesce into one message.
	if len(ds) != 1 {
		t.Fatalf("deletions not coalesced: %v", ds)
	}
	if tr.expired != 4 {
		t.Fatalf("expired %d chunks, want 4", tr.expired)
	}
	// Second call: nothing new.
	if ds := tr.Expire(1); len(ds) != 0 {
		t.Fatalf("double expiry: %v", ds)
	}
}

func TestTrackerSpansModelBoundary(t *testing.T) {
	s := newSite(t)
	tr, _ := NewTracker(s, 2)
	rng := rand.New(rand.NewSource(3))
	feed(t, s, regime(0), 200*3, rng)  // model 1: chunks 1-3
	feed(t, s, regime(50), 200*3, rng) // model 2: chunks 4-6
	ds := tr.Expire(1)
	// Chunks 1-4 expired: 3 for model 1, 1 for model 2.
	if len(ds) != 2 {
		t.Fatalf("deletions = %v", ds)
	}
	if ds[0].ModelID != 1 || ds[0].Count != 600 {
		t.Fatalf("first deletion = %+v", ds[0])
	}
	if ds[1].ModelID != 2 || ds[1].Count != 200 {
		t.Fatalf("second deletion = %+v", ds[1])
	}
}

func TestMixtureLandmarkEqualsSiteLandmark(t *testing.T) {
	s := newSite(t)
	rng := rand.New(rand.NewSource(4))
	feed(t, s, regime(0), 200*4, rng)
	feed(t, s, regime(50), 200*2, rng)
	wm := s.History().Mixture(1, s.ChunksSeen())
	lm := s.History().Landmark()
	if wm.K() != lm.K() {
		t.Fatalf("K mismatch: %d vs %d", wm.K(), lm.K())
	}
	// Both weight models by records governed, so the weights must agree.
	for j := 0; j < wm.K(); j++ {
		if math.Abs(wm.Weight(j)-lm.Weight(j)) > 1e-9 {
			t.Fatalf("weights differ at %d: %v vs %v", j, wm.Weight(j), lm.Weight(j))
		}
	}
}

func TestMixtureSlidingWindowFollowsRecentRegime(t *testing.T) {
	s := newSite(t)
	rng := rand.New(rand.NewSource(5))
	feed(t, s, regime(0), 200*5, rng)
	feed(t, s, regime(50), 200*5, rng)
	// Window = last 3 chunks: only the new regime.
	recent := s.History().Mixture(s.ChunksSeen()-2, s.ChunksSeen())
	if recent == nil {
		t.Fatal("nil window mixture")
	}
	for j := 0; j < recent.K(); j++ {
		if mu := recent.Component(j).Mean()[0]; mu < 30 {
			t.Fatalf("old-regime component (μ=%v) in recent window", mu)
		}
	}
	// Full landmark window has both regimes.
	full := s.History().Mixture(1, s.ChunksSeen())
	var hasOld bool
	for j := 0; j < full.K(); j++ {
		if full.Component(j).Mean()[0] < 30 {
			hasOld = true
		}
	}
	if !hasOld {
		t.Fatal("landmark window lost the old regime")
	}
}

func TestMixtureEvolvingQueryMidStream(t *testing.T) {
	s := newSite(t)
	rng := rand.New(rand.NewSource(6))
	feed(t, s, regime(0), 200*3, rng)   // chunks 1-3
	feed(t, s, regime(50), 200*3, rng)  // chunks 4-6
	feed(t, s, regime(-50), 200*3, rng) // chunks 7-9
	mid := s.History().Mixture(4, 6)
	if mid == nil {
		t.Fatal("nil mid-stream mixture")
	}
	for j := 0; j < mid.K(); j++ {
		mu := mid.Component(j).Mean()[0]
		if mu < 30 {
			t.Fatalf("window [4,6] contains component at %v", mu)
		}
	}
}

func TestMixtureEdgeCases(t *testing.T) {
	s := newSite(t)
	if s.History().Mixture(1, 10) != nil {
		t.Fatal("empty site produced a mixture")
	}
	rng := rand.New(rand.NewSource(7))
	feed(t, s, regime(0), 200*2, rng)
	if s.History().Mixture(5, 3) != nil {
		t.Fatal("inverted range produced a mixture")
	}
	// Clamping: a huge range behaves like the landmark window.
	m := s.History().Mixture(-100, 1000)
	if m == nil || m.K() != 2 {
		t.Fatalf("clamped mixture = %v", m)
	}
}

func TestMixturePartialOverlapWeights(t *testing.T) {
	s := newSite(t)
	rng := rand.New(rand.NewSource(8))
	feed(t, s, regime(0), 200*4, rng)  // model 1: chunks 1-4
	feed(t, s, regime(50), 200*4, rng) // model 2: chunks 5-8
	// Window [4,5]: one chunk each → equal total weight per model.
	m := s.History().Mixture(4, 5)
	var w1, w2 float64
	for j := 0; j < m.K(); j++ {
		if m.Component(j).Mean()[0] < 30 {
			w1 += m.Weight(j)
		} else {
			w2 += m.Weight(j)
		}
	}
	if math.Abs(w1-w2) > 1e-9 {
		t.Fatalf("partial overlap weights: %v vs %v", w1, w2)
	}
}
