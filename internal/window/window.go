// Package window implements the windowing extensions of Section 7 on top
// of the remote site's model/event lists: landmark windows (native to
// CluDistream), sliding windows via negative-weight deletion messages, and
// evolving analysis over arbitrary chunk ranges.
package window

import (
	"fmt"

	"cludistream/internal/gaussian"
	"cludistream/internal/site"
)

// Deletion is the negative-weight message of Section 7: count records of
// the given model expired from the sliding window. The coordinator
// subtracts the weight and drops the model when it reaches zero.
type Deletion struct {
	SiteID  int
	ModelID int
	Count   int
}

// Tracker is a sliding-window sender's bookkeeping: it watches a site's
// chunk history, converts chunks that leave a window of horizonChunks
// chunks into Deletion messages, and applies the send rule for models the
// coordinator has drained (see Send).
type Tracker struct {
	s             *site.Site
	horizonChunks int
	expired       int // chunks already expired
	// outstanding mirrors, per model, the record count the coordinator
	// holds once every message counted here is applied: +Count per update
	// (Send), −Count per deletion (Expire). Links and outboxes are FIFO, so
	// the mirror matches the coordinator at the moment each message applies.
	outstanding map[int]int
}

// NewTracker wraps a site with a sliding-window horizon measured in chunks
// (the natural granularity: the paper notes the absolute error between a
// user window and a chunk-aligned one is at most M/2).
func NewTracker(s *site.Site, horizonChunks int) (*Tracker, error) {
	if horizonChunks < 1 {
		return nil, fmt.Errorf("window: horizon %d chunks", horizonChunks)
	}
	return &Tracker{s: s, horizonChunks: horizonChunks, outstanding: make(map[int]int)}, nil
}

// Send counts one site update the sender is about to ship and returns it,
// upgraded to a full NewModel synopsis when it is a WeightUpdate for a
// model whose count has drained to zero. Section 7's rule removed that
// model at the coordinator when its last records expired (the site
// re-activated it: horizon shorter than the regime cycle); the site cannot
// know, but the sender emitted the deletions and can. Without the upgrade
// the coordinator would reject the bare weight as referencing an unknown
// model and the records would be lost.
func (t *Tracker) Send(u site.Update) site.Update {
	if u.Kind == site.WeightUpdate && t.outstanding[u.ModelID] <= 0 {
		for _, m := range t.s.Models() {
			if m.ID == u.ModelID {
				u.Kind = site.NewModel
				u.Mixture = m.Mixture
				break
			}
		}
	}
	t.outstanding[u.ModelID] += u.Count
	return u
}

// Expire returns deletion messages for every chunk that has fallen out of
// the window since the last call, and counts them against their models.
// Call it after feeding records to the site and sending its updates.
func (t *Tracker) Expire(siteID int) []Deletion {
	var out []Deletion
	newest := t.s.ChunksSeen()
	for t.expired < newest-t.horizonChunks {
		chunk := t.expired + 1
		id, ok := governingModel(t.s, chunk)
		if ok {
			out = append(out, Deletion{SiteID: siteID, ModelID: id, Count: t.s.ChunkSize()})
		}
		t.expired++
	}
	out = coalesce(out)
	for _, d := range out {
		t.outstanding[d.ModelID] -= d.Count
	}
	return out
}

// ExpiredChunks returns how many chunks have been expired so far.
func (t *Tracker) ExpiredChunks() int { return t.expired }

// coalesce merges consecutive deletions for the same model.
func coalesce(ds []Deletion) []Deletion {
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

// governingModel resolves which model explained the given chunk: a closed
// event-list span, or the current model's open span.
func governingModel(s *site.Site, chunk int) (int, bool) {
	if id, ok := s.Events().ModelAt(chunk); ok {
		return id, true
	}
	if cur := s.Current(); cur != nil && chunk <= s.ChunksSeen() {
		return cur.ID, true
	}
	return 0, false
}

// Mixture composes the site's models into one mixture covering chunks
// [startChunk, endChunk], weighting each model by the number of window
// chunks it governed times the chunk size. This serves sliding windows
// (start = newest-H+1), landmark windows (start = 1) and evolving-analysis
// queries alike. Returns nil when the range covers no chunks.
func Mixture(s *site.Site, startChunk, endChunk int) *gaussian.Mixture {
	if startChunk < 1 {
		startChunk = 1
	}
	if endChunk > s.ChunksSeen() {
		endChunk = s.ChunksSeen()
	}
	if endChunk < startChunk {
		return nil
	}
	counts := map[int]int{} // modelID → chunks governed inside the window
	order := []int{}
	for _, e := range s.Events().Query(startChunk, endChunk) {
		lo, hi := maxInt(e.StartChunk, startChunk), minInt(e.EndChunk, endChunk)
		if _, seen := counts[e.ModelID]; !seen {
			order = append(order, e.ModelID)
		}
		counts[e.ModelID] += hi - lo + 1
	}
	if cur := s.Current(); cur != nil {
		curStart := s.ChunksSeen() - chunksGoverned(s, cur) + 1
		lo, hi := maxInt(curStart, startChunk), minInt(s.ChunksSeen(), endChunk)
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
	if len(comps) == 0 {
		return nil
	}
	mix, err := gaussian.NewMixture(weights, comps)
	if err != nil {
		return nil
	}
	return mix
}

// chunksGoverned counts the chunks of the current open span: the site's
// total minus everything in closed spans... except re-activated models also
// have closed spans, so derive from the event list instead: open span =
// total chunks − last closed end.
func chunksGoverned(s *site.Site, cur *site.Model) int {
	ev := s.Events()
	lastEnd := 0
	if n := ev.Len(); n > 0 {
		lastEnd = ev.At(n - 1).EndChunk
	}
	return s.ChunksSeen() - lastEnd
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
