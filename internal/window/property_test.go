package window

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"cludistream/internal/gaussian"
	"cludistream/internal/site"
)

// TestQuickSlidingDeletionEqualsRecomputed is the Section 7 soundness
// property: maintaining a sliding window incrementally — crediting each
// chunk's records to its governing model and debiting the Tracker's
// negative-weight deletions as chunks expire — must leave exactly the
// per-model record counts that recomputing Mixture over the window's
// chunk range yields directly. Checked after every chunk of a random
// drift program, including the single-chunk-horizon edge.
func TestQuickSlidingDeletionEqualsRecomputed(t *testing.T) {
	const chunkSize = 100
	property := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s, err := site.New(site.Config{
			SiteID: 1, Dim: 1, K: 2, Epsilon: 0.5, Delta: 0.01,
			CMax: 8, Seed: seed, ChunkSize: chunkSize,
		})
		if err != nil {
			t.Log(err)
			return false
		}
		horizon := 1 + rng.Intn(4)
		tr, err := NewTracker(s, horizon)
		if err != nil {
			t.Log(err)
			return false
		}

		// Empty-window edge: nothing fed, nothing expires, no mixture.
		if ds := tr.Expire(1); len(ds) != 0 {
			t.Logf("seed %d: expiry before any chunk: %v", seed, ds)
			return false
		}
		if s.History().Mixture(1, horizon) != nil {
			t.Logf("seed %d: empty site produced a window mixture", seed)
			return false
		}

		means := []float64{0, 200, -200}
		net := map[int]int{} // modelID → records currently inside the window
		totalChunks := horizon + 1 + rng.Intn(5)
		for chunk := 0; chunk < totalChunks; chunk++ {
			mean := means[(chunk/2)%len(means)]
			feedChunk(t, s, mean, chunkSize, rng)

			newest := s.ChunksSeen()
			id, ok := s.History().ModelAt(newest)
			if !ok {
				t.Logf("seed %d: chunk %d has no governing model", seed, newest)
				return false
			}
			net[id] += chunkSize
			for _, d := range tr.Expire(1) {
				net[d.ModelID] -= d.Count
				if net[d.ModelID] == 0 {
					delete(net, d.ModelID)
				}
			}

			// The window must hold exactly min(newest, horizon) chunks.
			want := chunkSize * min(newest, horizon)
			got := 0
			for _, n := range net {
				got += n
			}
			if got != want {
				t.Logf("seed %d: chunk %d: window holds %d records, want %d", seed, newest, got, want)
				return false
			}

			direct := s.History().Mixture(newest-horizon+1, newest)
			if !sameMixtureAsNetCounts(t, s, net, direct) {
				t.Logf("seed %d: chunk %d: deletion-maintained window diverged from recomputed mixture", seed, newest)
				return false
			}
		}
		return true
	}
	n := 12
	if testing.Short() {
		n = 4
	}
	if err := quick.Check(property, &quick.Config{MaxCount: n}); err != nil {
		t.Fatal(err)
	}
}

func feedChunk(t *testing.T, s *site.Site, mean float64, n int, rng *rand.Rand) {
	t.Helper()
	feed(t, s, regime(mean), n, rng)
}

// sameMixtureAsNetCounts rebuilds the window mixture from the
// incrementally maintained per-model record counts and compares it to the
// directly recomputed one. Components are shared pointers between the site
// models and both mixtures, so matching by identity is exact; weights get
// a small tolerance because the two normalizations sum in different
// orders.
func sameMixtureAsNetCounts(t *testing.T, s *site.Site, net map[int]int, direct *gaussian.Mixture) bool {
	t.Helper()
	if direct == nil {
		return len(net) == 0
	}
	want := map[*gaussian.Component]float64{}
	var total float64
	for _, m := range s.Models() {
		n, ok := net[m.ID]
		if !ok {
			continue
		}
		for j := 0; j < m.Mixture.K(); j++ {
			want[m.Mixture.Component(j)] += m.Mixture.Weight(j) * float64(n)
			total += m.Mixture.Weight(j) * float64(n)
		}
	}
	if len(want) != direct.K() {
		t.Logf("component count: direct has %d, net counts give %d", direct.K(), len(want))
		return false
	}
	for j := 0; j < direct.K(); j++ {
		w, ok := want[direct.Component(j)]
		if !ok {
			t.Logf("direct component %d not present in net-count reconstruction", j)
			return false
		}
		if math.Abs(direct.Weight(j)-w/total) > 1e-9 {
			t.Logf("component %d weight %v, net counts give %v", j, direct.Weight(j), w/total)
			return false
		}
	}
	return true
}
