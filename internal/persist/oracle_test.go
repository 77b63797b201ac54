package persist

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"cludistream/internal/events"
	"cludistream/internal/gaussian"
	"cludistream/internal/linalg"
	"cludistream/internal/site"
)

// The archive's queries as they were before SiteArchive held a
// site.History, kept as the oracle History is pinned to bit for bit:
// oracleModelAt, oracleWindowMixture and oracleLandmark are the former
// SiteArchive.ModelAt, WindowMixture and LandmarkMixture.

func oracleModelAt(a *SiteArchive, chunk int) (int, bool) {
	if chunk < 1 || chunk > a.ChunksSeen {
		return 0, false
	}
	for _, e := range a.Events.All() {
		if e.StartChunk <= chunk && chunk <= e.EndChunk {
			return e.ModelID, true
		}
	}
	if len(a.Models) == 0 {
		return 0, false
	}
	return a.Models[len(a.Models)-1].ID, true
}

func oracleWindowMixture(a *SiteArchive, start, end int) *gaussian.Mixture {
	if start < 1 {
		start = 1
	}
	if end > a.ChunksSeen {
		end = a.ChunksSeen
	}
	if end < start || len(a.Models) == 0 {
		return nil
	}
	counts := map[int]int{}
	var order []int
	add := func(id, n int) {
		if n <= 0 {
			return
		}
		if _, seen := counts[id]; !seen {
			order = append(order, id)
		}
		counts[id] += n
	}
	lastClosed := 0
	for _, e := range a.Events.All() {
		lo, hi := max(e.StartChunk, start), min(e.EndChunk, end)
		add(e.ModelID, hi-lo+1)
		if e.EndChunk > lastClosed {
			lastClosed = e.EndChunk
		}
	}
	cur := a.Models[len(a.Models)-1]
	lo, hi := max(lastClosed+1, start), min(a.ChunksSeen, end)
	add(cur.ID, hi-lo+1)

	byID := map[int]*site.Model{}
	for i := range a.Models {
		byID[a.Models[i].ID] = &a.Models[i]
	}
	var comps []*gaussian.Component
	var weights []float64
	for _, id := range order {
		m := byID[id]
		if m == nil {
			continue
		}
		w := float64(counts[id] * a.ChunkSize)
		for j := 0; j < m.Mixture.K(); j++ {
			comps = append(comps, m.Mixture.Component(j))
			weights = append(weights, m.Mixture.Weight(j)*w)
		}
	}
	return oracleCompose(comps, weights)
}

func oracleLandmark(a *SiteArchive) *gaussian.Mixture {
	var comps []*gaussian.Component
	var weights []float64
	for _, m := range a.Models {
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
// identity: both share the archive models' components) with
// bit-identical weights, in the same order.
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

// checkArchive pins a loaded archive's queries to the oracle and exercises
// them the way archq does: ModelAt over [0, ChunksSeen+1] (the first 2000
// chunks and the last two of a longer archive), windows that clip at
// either end or are empty, the landmark, and one Dim-wide record scored
// under the landmark. Any panic fails the caller.
func checkArchive(t *testing.T, a *SiteArchive) {
	t.Helper()
	n := a.ChunksSeen
	chunks := []int{n, n + 1}
	for c := 0; c <= min(n+1, 2000); c++ {
		chunks = append(chunks, c)
	}
	for _, c := range chunks {
		id, ok := a.ModelAt(c)
		wantID, wantOK := oracleModelAt(a, c)
		if id != wantID || ok != wantOK {
			t.Fatalf("chunk %d of %d: ModelAt = %d,%v, oracle %d,%v", c, n, id, ok, wantID, wantOK)
		}
	}
	for _, w := range [][2]int{{1, n}, {-5, n + 5}, {0, 1}, {n / 2, n + 3}, {n / 3, 2 * n / 3}, {n, n}, {n + 1, n + 9}, {-5, -1}, {3, 2}} {
		if !sameBits(a.Mixture(w[0], w[1]), oracleWindowMixture(a, w[0], w[1])) {
			t.Fatalf("%d chunks: Mixture(%d, %d) differs from the oracle", n, w[0], w[1])
		}
	}
	lm := a.Landmark()
	if !sameBits(lm, oracleLandmark(a)) {
		t.Fatalf("%d chunks: Landmark differs from the oracle", n)
	}
	if lm != nil {
		lm.LogPDF(linalg.NewVector(a.Dim))
	}
}

// TestArchiveHistoryMatchesOracle: on loaded archives — random valid ones
// whose models govern several spans each, and a live site's — every query
// answers exactly what the pre-History archive code answered.
func TestArchiveHistoryMatchesOracle(t *testing.T) {
	load := func(a *SiteArchive) *SiteArchive {
		var buf bytes.Buffer
		if err := Save(&buf, a); err != nil {
			t.Fatal(err)
		}
		got, err := Load(&buf)
		if err != nil {
			t.Fatal(err)
		}
		return got
	}
	checkArchive(t, load(FromSite(builtSite(t))))
	// Load accepts two models under one ID; the old code's map lookup took
	// the later one.
	dup := oneModel(2, 2, 8)
	dup.Models = append(dup.Models, oneModel(2, 2, 0).Models[0], site.Model{ID: 2, Counter: 5, Mixture: randomMixture(rand.New(rand.NewSource(1)), 2)})
	dup.Models[1].Mixture = randomMixture(rand.New(rand.NewSource(2)), 2)
	for _, e := range []events.Entry{span(1, 1, 2), span(2, 3, 4), span(1, 5, 6)} {
		if err := dup.Events.Append(e); err != nil {
			t.Fatal(err)
		}
	}
	checkArchive(t, load(dup))
	for seed := int64(0); seed < 200; seed++ {
		a := load(randomArchive(rand.New(rand.NewSource(seed))))
		checkArchive(t, a)
		for _, w := range [][2]int{{1, 3}, {2, 7}, {5, 40}} {
			if !sameBits(a.Mixture(w[0], w[1]), oracleWindowMixture(a, w[0], w[1])) {
				t.Fatalf("seed %d: Mixture(%d, %d) differs from the oracle", seed, w[0], w[1])
			}
		}
	}
}
