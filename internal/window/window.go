// Package window implements Section 7's sliding windows: a sender's
// Tracker turns the chunks that leave a window into negative-weight
// Deletion messages. Landmark windows are native to CluDistream and need
// no tracker; the window mixtures themselves (sliding, landmark and
// evolving-analysis queries) are site.History's.
package window

import (
	"fmt"

	"cludistream/internal/linalg"
	"cludistream/internal/site"
	"cludistream/internal/transport"
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
// A call that expires no chunk allocates nothing, and one that does
// allocates only its result: it reads the live site's Site.ModelAt, so
// its cost does not grow with the number of retired models.
func (t *Tracker) Expire(siteID int) []Deletion {
	last := t.s.ChunksSeen() - t.horizonChunks
	var out []Deletion
	for m := t.s.ChunkSize(); t.expired < last; t.expired++ {
		id, ok := t.s.ModelAt(t.expired + 1)
		if !ok {
			continue
		}
		t.outstanding[id] -= m
		// Consecutive chunks of one model leave in one message.
		if n := len(out); n > 0 && out[n-1].ModelID == id {
			out[n-1].Count += m
		} else {
			out = append(out, Deletion{SiteID: siteID, ModelID: id, Count: m})
		}
	}
	return out
}

// Emit is a leaf's one step: it feeds record x to st and returns the
// messages the leaf owes upstream — every site update, sent through tr
// (see Send), then the deletions of the chunks that left the window (see
// Expire), carrying the site's last chunk trace. A nil tr is a landmark
// window: the updates alone.
func Emit(st *site.Site, tr *Tracker, x linalg.Vector) ([]transport.Message, error) {
	ups, err := st.Observe(x)
	if err != nil {
		return nil, err
	}
	var out []transport.Message
	for _, u := range ups {
		if tr != nil {
			u = tr.Send(u)
		}
		out = append(out, transport.FromSiteUpdate(u))
	}
	if tr == nil {
		return out, nil
	}
	trace, span := st.LastTrace()
	for _, d := range tr.Expire(st.ID()) {
		out = append(out, transport.Message{
			Kind:    transport.MsgDeletion,
			SiteID:  int32(d.SiteID),
			ModelID: int32(d.ModelID),
			Count:   int64(d.Count),
			TraceID: trace,
			SpanID:  span,
		})
	}
	return out, nil
}
