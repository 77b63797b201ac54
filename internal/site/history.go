package site

import (
	"slices"

	"cludistream/internal/events"
	"cludistream/internal/gaussian"
)

// History is the record Section 7's change detection and evolving analysis
// are built on: a site's model list and its Section 5.1 event table. The
// live site hands one out (Site.History), the sliding-window tracker reads
// it, and persist archives one; each Section 7 query — which model
// governed a chunk, the mixture over a window of chunks, the landmark
// mixture — is answered here and nowhere else.
type History struct {
	// Models is the model list, oldest first. The last entry is the model
	// that was current: it owns the open span from the chunk after the
	// last closed event through ChunksSeen.
	Models []Model
	// Events holds the closed <model, start, end> spans in stream order.
	Events events.List
	// ChunksSeen is the number of completed chunks.
	ChunksSeen int
	// ChunkSize is M, the records in a chunk.
	ChunkSize int
}

// History returns the site's history as of its last completed chunk. It
// copies the model list and holds the event table's current length, so the
// value does not change as the site goes on.
func (s *Site) History() History {
	models := make([]Model, 0, len(s.archive)+1)
	for _, m := range s.archive {
		models = append(models, *m)
	}
	if s.current != nil {
		models = append(models, *s.current)
	}
	return History{Models: models, Events: *s.events, ChunksSeen: s.chunkNum, ChunkSize: s.m}
}

// ModelAt returns the ID of the model that governed the given chunk: the
// closed span holding it, else the last model's open span. It reports
// false for a chunk outside [1, ChunksSeen] or a history with no model.
func (h History) ModelAt(chunk int) (int, bool) {
	var last *Model
	if n := len(h.Models); n > 0 {
		last = &h.Models[n-1]
	}
	return modelAt(&h.Events, h.ChunksSeen, last, chunk)
}

// ModelAt is History().ModelAt(chunk) read off the live site, without
// copying the model list: the sliding-window tracker asks it once per
// expiring chunk.
func (s *Site) ModelAt(chunk int) (int, bool) {
	last := s.current
	if last == nil && len(s.archive) > 0 {
		last = s.archive[len(s.archive)-1]
	}
	return modelAt(s.events, s.chunkNum, last, chunk)
}

// modelAt answers ModelAt from an event table, the chunks seen and the last
// model of the list (nil when it is empty).
func modelAt(ev *events.List, chunksSeen int, last *Model, chunk int) (int, bool) {
	if chunk < 1 || chunk > chunksSeen || last == nil {
		return 0, false
	}
	if id, ok := ev.ModelAt(chunk); ok {
		return id, true
	}
	return last.ID, true
}

// Mixture composes the models that governed chunks [start, end] (clipped
// to [1, ChunksSeen]) into one mixture, each weighted by the chunks it
// governed inside the window times the chunk size, in order of first
// appearance. This serves sliding windows (start = newest−H+1), landmark
// windows (start = 1) and evolving-analysis queries alike. Nil when the
// window covers no chunk.
func (h History) Mixture(start, end int) *gaussian.Mixture {
	start, end = max(start, 1), min(end, h.ChunksSeen)
	if end < start || len(h.Models) == 0 {
		return nil
	}
	var ids, chunks []int // model IDs by first appearance, chunks governed in the window
	add := func(id, lo, hi int) {
		if n := min(hi, end) - max(lo, start) + 1; n > 0 {
			if i := slices.Index(ids, id); i >= 0 {
				chunks[i] += n
			} else {
				ids, chunks = append(ids, id), append(chunks, n)
			}
		}
	}
	for _, e := range h.Events.Query(start, end) {
		add(e.ModelID, e.StartChunk, e.EndChunk)
	}
	open := 1 // the first chunk of the last model's open span
	if n := h.Events.Len(); n > 0 {
		open = h.Events.At(n-1).EndChunk + 1
	}
	add(h.Models[len(h.Models)-1].ID, open, h.ChunksSeen)

	var ms []Model
	var ws []float64
	for i, id := range ids {
		for j := len(h.Models) - 1; j >= 0; j-- { // the last model with the ID
			if h.Models[j].ID == id {
				ms, ws = append(ms, h.Models[j]), append(ws, float64(chunks[i]*h.ChunkSize))
				break
			}
		}
	}
	return compose(ms, func(i int) float64 { return ws[i] })
}

// Landmark composes every model into one mixture over everything the site
// has seen (the landmark window), each weighted by its record counter. Nil
// before any model exists.
func (h History) Landmark() *gaussian.Mixture {
	return compose(h.Models, func(i int) float64 { return float64(h.Models[i].Counter) })
}

// compose flattens models into one mixture, component j of ms[i] weighted
// by its own weight times w(i). Nil when nothing is left or the weights do
// not form a mixture.
func compose(ms []Model, w func(i int) float64) *gaussian.Mixture {
	var comps []*gaussian.Component
	var weights []float64
	for i, m := range ms {
		for j := 0; j < m.Mixture.K(); j++ {
			comps = append(comps, m.Mixture.Component(j))
			weights = append(weights, m.Mixture.Weight(j)*w(i))
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
