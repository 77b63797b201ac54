package window

import (
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"cludistream/internal/gaussian"
	"cludistream/internal/site"
)

// The live-site window queries as they were before site.History answered
// them, kept as the oracle History is pinned to bit for bit: oracleMixture,
// oracleGoverningModel and oracleChunksGoverned are the former
// window.Mixture, governingModel and chunksGoverned, oracleLandmark the
// former Site.LandmarkMixture, and oracleCoalesce the second pass of the
// former Tracker.Expire.

func oracleGoverningModel(s *site.Site, chunk int) (int, bool) {
	if id, ok := s.Events().ModelAt(chunk); ok {
		return id, true
	}
	if cur := s.Current(); cur != nil && chunk <= s.ChunksSeen() {
		return cur.ID, true
	}
	return 0, false
}

func oracleCoalesce(ds []Deletion) []Deletion {
	var out []Deletion
	for _, d := range ds {
		if n := len(out); n > 0 && out[n-1].SiteID == d.SiteID && out[n-1].ModelID == d.ModelID {
			out[n-1].Count += d.Count
			continue
		}
		out = append(out, d)
	}
	return out
}

func oracleMixture(s *site.Site, startChunk, endChunk int) *gaussian.Mixture {
	if startChunk < 1 {
		startChunk = 1
	}
	if endChunk > s.ChunksSeen() {
		endChunk = s.ChunksSeen()
	}
	if endChunk < startChunk {
		return nil
	}
	counts := map[int]int{}
	order := []int{}
	for _, e := range s.Events().Query(startChunk, endChunk) {
		lo, hi := max(e.StartChunk, startChunk), min(e.EndChunk, endChunk)
		if _, seen := counts[e.ModelID]; !seen {
			order = append(order, e.ModelID)
		}
		counts[e.ModelID] += hi - lo + 1
	}
	if cur := s.Current(); cur != nil {
		curStart := s.ChunksSeen() - oracleChunksGoverned(s) + 1
		lo, hi := max(curStart, startChunk), min(s.ChunksSeen(), endChunk)
		if hi >= lo {
			if _, seen := counts[cur.ID]; !seen {
				order = append(order, cur.ID)
			}
			counts[cur.ID] += hi - lo + 1
		}
	}
	byID := map[int]*site.Model{}
	for _, m := range s.Models() {
		byID[m.ID] = m
	}
	var comps []*gaussian.Component
	var weights []float64
	for _, id := range order {
		m := byID[id]
		if m == nil {
			continue
		}
		w := float64(counts[id] * s.ChunkSize())
		for j := 0; j < m.Mixture.K(); j++ {
			comps = append(comps, m.Mixture.Component(j))
			weights = append(weights, m.Mixture.Weight(j)*w)
		}
	}
	return oracleCompose(comps, weights)
}

// oracleChunksGoverned counts the chunks of the current model's open span:
// the site's total minus the last closed span's end.
func oracleChunksGoverned(s *site.Site) int {
	ev := s.Events()
	lastEnd := 0
	if n := ev.Len(); n > 0 {
		lastEnd = ev.At(n - 1).EndChunk
	}
	return s.ChunksSeen() - lastEnd
}

func oracleLandmark(s *site.Site) *gaussian.Mixture {
	var comps []*gaussian.Component
	var weights []float64
	for _, m := range s.Models() {
		for j := 0; j < m.Mixture.K(); j++ {
			comps = append(comps, m.Mixture.Component(j))
			weights = append(weights, m.Mixture.Weight(j)*float64(m.Counter))
		}
	}
	return oracleCompose(comps, weights)
}

func oracleCompose(comps []*gaussian.Component, weights []float64) *gaussian.Mixture {
	if len(comps) == 0 {
		return nil
	}
	mix, err := gaussian.NewMixture(weights, comps)
	if err != nil {
		return nil
	}
	return mix
}

// sameBits reports whether two mixtures hold the same components (by
// identity: both share the site models' components) with bit-identical
// weights, in the same order.
func sameBits(a, b *gaussian.Mixture) bool {
	if a == nil || b == nil {
		return a == b
	}
	if a.K() != b.K() {
		return false
	}
	for j := 0; j < a.K(); j++ {
		if a.Component(j) != b.Component(j) ||
			math.Float64bits(a.Weight(j)) != math.Float64bits(b.Weight(j)) {
			return false
		}
	}
	return true
}

// checkHistory pins every History query of s to the oracle: ModelAt at
// every chunk, Mixture over every window inside [−1, ChunksSeen+2] (so
// windows clip at both ends, and inverted ones are empty), and Landmark.
func checkHistory(t *testing.T, s *site.Site) {
	t.Helper()
	h := s.History()
	n := s.ChunksSeen()
	for chunk := 1; chunk <= n+1; chunk++ {
		id, ok := h.ModelAt(chunk)
		wantID, wantOK := oracleGoverningModel(s, chunk)
		if id != wantID || ok != wantOK {
			t.Fatalf("chunk %d of %d: ModelAt = %d,%v, oracle %d,%v", chunk, n, id, ok, wantID, wantOK)
		}
	}
	for start := -1; start <= n+2; start++ {
		for end := start - 1; end <= n+2; end++ {
			if !sameBits(h.Mixture(start, end), oracleMixture(s, start, end)) {
				t.Fatalf("%d chunks: Mixture(%d, %d) differs from the oracle", n, start, end)
			}
		}
	}
	if !sameBits(h.Landmark(), oracleLandmark(s)) {
		t.Fatalf("%d chunks: Landmark differs from the oracle", n)
	}
}

// TestHistoryMatchesOracle: on live sites whose regimes return (so the
// multi-test re-activates archived models and one model owns several
// spans), History answers every query exactly as the pre-History code did,
// checked after every chunk from the empty site on.
func TestHistoryMatchesOracle(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		s := newSite(t)
		rng := rand.New(rand.NewSource(seed))
		checkHistory(t, s)
		reactivated := false
		for _, mean := range []float64{0, 50, 0, -50, 50, 0, -50} {
			for c := 0; c < 1+rng.Intn(3); c++ {
				feed(t, s, regime(mean), 200, rng)
				checkHistory(t, s)
			}
		}
		for i := 0; i < s.Events().Len(); i++ {
			for j := 0; j < i; j++ {
				if s.Events().At(i).ModelID == s.Events().At(j).ModelID {
					reactivated = true
				}
			}
		}
		if !reactivated {
			t.Fatalf("seed %d: no model governs two spans; the test lost its re-activation case", seed)
		}
	}
}

// TestTrackerMatchesOracle: a sliding Tracker emits, after every chunk,
// exactly the deletions the pre-History loop over oracleGoverningModel
// emits and debits them from the same outstanding counts, over horizons
// 1–4 and a drift program with returning regimes.
func TestTrackerMatchesOracle(t *testing.T) {
	for horizon := 1; horizon <= 4; horizon++ {
		s := newSite(t)
		tr, err := NewTracker(s, horizon)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(int64(horizon)))
		expired := 0
		outstanding := map[int]int{}
		for _, mean := range []float64{0, 0, 50, 0, -50, -50, 50, 0, 0, 50} {
			feed(t, s, regime(mean), 200, rng)
			var want []Deletion
			for ; expired < s.ChunksSeen()-horizon; expired++ {
				if id, ok := oracleGoverningModel(s, expired+1); ok {
					want = append(want, Deletion{SiteID: 1, ModelID: id, Count: s.ChunkSize()})
				}
			}
			want = oracleCoalesce(want)
			for _, d := range want {
				outstanding[d.ModelID] -= d.Count
			}
			if got := tr.Expire(1); !reflect.DeepEqual(got, want) {
				t.Fatalf("horizon %d, chunk %d: Expire = %v, oracle %v", horizon, s.ChunksSeen(), got, want)
			}
			if !reflect.DeepEqual(tr.outstanding, outstanding) {
				t.Fatalf("horizon %d, chunk %d: outstanding %v, oracle %v", horizon, s.ChunksSeen(), tr.outstanding, outstanding)
			}
		}
	}
}

// TestExpireWithoutExpiryAllocatesNothing: a call that expires no chunk —
// every call between two chunk closes — builds no history and allocates 0
// times.
func TestExpireWithoutExpiryAllocatesNothing(t *testing.T) {
	s := newSite(t)
	tr, _ := NewTracker(s, 2)
	feed(t, s, regime(0), 200*3, rand.New(rand.NewSource(1)))
	if ds := tr.Expire(1); len(ds) != 1 {
		t.Fatalf("first call expired %v, want one deletion", ds)
	}
	if allocs := testing.AllocsPerRun(100, func() { tr.Expire(1) }); allocs != 0 {
		t.Fatalf("Expire with nothing to expire: %v allocs, want 0", allocs)
	}
}

// TestExpireCostFlatInRetiredModels: an expiring call reads the live
// site's Site.ModelAt and allocates only its result, the same at 10² as at
// 10⁴ retired models. (Reading a History copied the model list: 40 B per
// retired model a call, 400 KB at 10⁴.) A negative FitEps fails every
// J_fit test, so every chunk retires the model before it.
func TestExpireCostFlatInRetiredModels(t *testing.T) {
	s, err := site.New(site.Config{
		SiteID: 1, Dim: 1, K: 1, Epsilon: 0.5, FitEps: -1, Delta: 0.01, Seed: 1, ChunkSize: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	tr, _ := NewTracker(s, 1)
	rng := rand.New(rand.NewSource(1))
	// perCall re-expires the newest expired chunk 100 times and returns the
	// allocations and bytes of one call.
	perCall := func() (allocs, bytes float64) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
		const runs = 100
		last := tr.expired
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			tr.expired = last - 1
			if ds := tr.Expire(1); len(ds) != 1 {
				t.Fatalf("expired %v, want one deletion", ds)
			}
		}
		runtime.ReadMemStats(&after)
		return float64(after.Mallocs-before.Mallocs) / runs, float64(after.TotalAlloc-before.TotalAlloc) / runs
	}
	var allocs, bytes []float64
	for _, retired := range []int{100, 10_000} {
		for s.ChunksSeen() <= retired {
			feed(t, s, regime(float64(s.ChunksSeen()%7)*50), s.ChunkSize(), rng)
		}
		if got := len(s.Models()) - 1; got != retired {
			t.Fatalf("%d retired models, want %d", got, retired)
		}
		tr.Expire(1)
		a, b := perCall()
		allocs, bytes = append(allocs, a), append(bytes, b)
	}
	t.Logf("per expiring call: %v allocs, %v B at 10², %v allocs, %v B at 10⁴", allocs[0], bytes[0], allocs[1], bytes[1])
	if allocs[1] > allocs[0] || bytes[1] > bytes[0]+16 {
		t.Fatalf("an expiring call allocates %v times, %v B at 10⁴ retired models against %v, %v B at 10²", allocs[1], bytes[1], allocs[0], bytes[0])
	}
}
