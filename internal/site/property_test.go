package site

import (
	"math/rand"
	"testing"
	"testing/quick"

	"cludistream/internal/gaussian"
	"cludistream/internal/linalg"
)

// TestInvariantsUnderRandomRegimeStreams drives a site with randomized
// regime-switching streams and asserts the structural invariants of
// Algorithm 1 that must hold regardless of what the data does:
//
//  1. accounting: Σ model counters == chunks seen × M;
//  2. coverage: closed event spans + the current model's open span
//     partition [1, chunksSeen] with no gaps or overlaps;
//  3. identity: model IDs are unique and the active model is in none of
//     the closed archive positions twice.
func TestInvariantsUnderRandomRegimeStreams(t *testing.T) {
	f := func(seed int64, switchPattern []bool) bool {
		rng := rand.New(rand.NewSource(seed))
		s, err := New(Config{
			SiteID: 1, Dim: 1, K: 2, Epsilon: 0.1, FitEps: 0.8, Delta: 0.01,
			CMax: 3, Seed: seed, ChunkSize: 150,
		})
		if err != nil {
			return false
		}
		// Random walk over 4 regimes driven by the quick-generated pattern.
		centers := []float64{-60, -20, 20, 60}
		cur := 0
		chunksToFeed := len(switchPattern)
		if chunksToFeed > 12 {
			chunksToFeed = 12
		}
		for c := 0; c < chunksToFeed; c++ {
			if switchPattern[c] {
				cur = (cur + 1 + rng.Intn(3)) % len(centers)
			}
			mix := gaussian.MustMixture([]float64{1},
				[]*gaussian.Component{gaussian.Spherical(linalg.Vector{centers[cur]}, 1)})
			for i := 0; i < 150; i++ {
				if _, err := s.Observe(mix.Sample(rng)); err != nil {
					return false
				}
			}
		}
		return checkSiteInvariants(t, s)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func checkSiteInvariants(t *testing.T, s *Site) bool {
	t.Helper()
	// 1. Counter accounting.
	var total int
	ids := map[int]bool{}
	for _, m := range s.Models() {
		total += m.Counter
		if ids[m.ID] {
			t.Logf("duplicate model id %d", m.ID)
			return false
		}
		ids[m.ID] = true
	}
	if want := s.ChunksSeen() * s.ChunkSize(); total != want {
		t.Logf("counter sum %d != chunks×M %d", total, want)
		return false
	}
	// 2. Event spans are increasing, non-overlapping and within range;
	// together with the open span they cover every chunk.
	covered := 0
	prevEnd := 0
	for i := 0; i < s.Events().Len(); i++ {
		e := s.Events().At(i)
		if e.StartChunk != prevEnd+1 {
			t.Logf("gap or overlap before span %v (prev end %d)", e, prevEnd)
			return false
		}
		if !ids[e.ModelID] {
			t.Logf("span %v references unknown model", e)
			return false
		}
		covered += e.EndChunk - e.StartChunk + 1
		prevEnd = e.EndChunk
	}
	if cur := s.Current(); cur != nil {
		covered += s.ChunksSeen() - prevEnd
	}
	if covered != s.ChunksSeen() {
		t.Logf("span coverage %d != %d chunks", covered, s.ChunksSeen())
		return false
	}
	// 3. Every model's mixture is well-formed.
	for _, m := range s.Models() {
		var wsum float64
		for j := 0; j < m.Mixture.K(); j++ {
			wsum += m.Mixture.Weight(j)
		}
		if wsum < 0.999 || wsum > 1.001 {
			t.Logf("model %d weights sum to %v", m.ID, wsum)
			return false
		}
	}
	return true
}

// TestLandmarkWeightsMatchCounters is the window-composition property: the
// landmark mixture's per-model mass must equal each model's share of the
// total counter mass.
func TestLandmarkWeightsMatchCounters(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	s, _ := New(Config{
		SiteID: 1, Dim: 1, K: 2, Epsilon: 0.1, FitEps: 0.8, Delta: 0.01,
		Seed: 1, ChunkSize: 150,
	})
	for _, mean := range []float64{0, 70, -70, 0} { // last reactivates model 1
		mix := gaussian.MustMixture([]float64{1},
			[]*gaussian.Component{gaussian.Spherical(linalg.Vector{mean}, 1)})
		for i := 0; i < 150*2; i++ {
			if _, err := s.Observe(mix.Sample(rng)); err != nil {
				t.Fatal(err)
			}
		}
	}
	lm := s.History().Landmark()
	var total float64
	for _, m := range s.Models() {
		total += float64(m.Counter)
	}
	// Sum landmark weights per model by matching component identity.
	for _, m := range s.Models() {
		var share float64
		for j := 0; j < lm.K(); j++ {
			for jj := 0; jj < m.Mixture.K(); jj++ {
				if lm.Component(j) == m.Mixture.Component(jj) {
					share += lm.Weight(j)
				}
			}
		}
		want := float64(m.Counter) / total
		if diff := share - want; diff > 1e-9 || diff < -1e-9 {
			t.Fatalf("model %d landmark share %v, want %v", m.ID, share, want)
		}
	}
}
