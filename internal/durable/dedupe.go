// Package durable makes the coordinator crash-survivable: a Store owns a
// checkpoint + write-ahead-log pair in a state directory, and recovery
// (Open) rebuilds the coordinator and its exactly-once dedupe table
// bit-identically — load the latest checkpoint, replay the WAL tail
// through the Receiver every live coordinator receives through, rotate to
// a fresh generation.
//
// The package also holds the receive step itself: the dedupe protocol
// (Dedupe) and the Receiver that chains WAL append, dedupe, epoch reset,
// apply and checkpoint. netio.Server, the cludistream facade, tree nodes
// and WAL replay all call it, so no copy can drift.
package durable

import (
	"sort"

	"cludistream/internal/persist"
)

// Watermark is one site's exactly-once high-water mark.
type Watermark struct {
	Epoch  uint32
	MaxSeq uint64
}

// Verdict is Dedupe.Admit's decision for one message.
type Verdict int

const (
	// AdmitFresh: apply the message.
	AdmitFresh Verdict = iota
	// AdmitNewEpoch: the site returned with a higher epoch — reset its
	// coordinator state first, then apply.
	AdmitNewEpoch
	// DropStale: late frame from a dead incarnation; ack, never apply.
	DropStale
	// DropDuplicate: (epoch, seq) at or below the watermark; ack, never
	// re-apply.
	DropDuplicate
)

// Dropped reports whether the message must not be (re-)applied.
func (v Verdict) Dropped() bool { return v == DropStale || v == DropDuplicate }

// String is the verdict's note on a trace's "dedupe" span.
func (v Verdict) String() string {
	switch v {
	case DropDuplicate:
		return "dup"
	case DropStale:
		return "stale"
	case AdmitNewEpoch:
		return "new-epoch"
	default:
		return "admit"
	}
}

// Dedupe is the per-site (epoch, seq) watermark table that makes
// at-least-once delivery exactly-once in effect. Not safe for concurrent
// use; callers admit under the same lock that guards the coordinator.
type Dedupe struct {
	seen map[int32]*Watermark
	// Broken disables the sequence-number half of the protocol so
	// duplicates are re-applied — a deliberately injected bug the
	// deterministic simulation tests use to prove their invariant suite
	// has teeth. Never set in production paths.
	Broken bool
}

// NewDedupe returns an empty table.
func NewDedupe() *Dedupe { return &Dedupe{seen: make(map[int32]*Watermark)} }

// DedupeFromEntries rebuilds a table from checkpointed entries.
func DedupeFromEntries(entries []persist.DedupeEntry) *Dedupe {
	d := NewDedupe()
	for _, e := range entries {
		d.seen[e.SiteID] = &Watermark{Epoch: e.Epoch, MaxSeq: e.MaxSeq}
	}
	return d
}

// Admit runs the dedupe protocol for one message and advances the
// watermark when the message is admitted. Seq is at least 1, as
// transport.Decode guarantees of every data frame.
func (d *Dedupe) Admit(siteID int32, epoch uint32, seq uint64) Verdict {
	w := d.seen[siteID]
	if w == nil {
		w = &Watermark{}
		d.seen[siteID] = w
	}
	verdict := AdmitFresh
	switch {
	case epoch < w.Epoch:
		return DropStale
	case epoch > w.Epoch:
		if w.Epoch != 0 {
			verdict = AdmitNewEpoch
		}
		w.Epoch, w.MaxSeq = epoch, 0
	}
	if seq <= w.MaxSeq && !d.Broken {
		return DropDuplicate
	}
	if seq > w.MaxSeq {
		w.MaxSeq = seq
	}
	return verdict
}

// Watermark returns the high-water mark for one site (zero value when the
// site has never been applied) — what the restart handshake advertises.
func (d *Dedupe) Watermark(siteID int32) Watermark {
	if w := d.seen[siteID]; w != nil {
		return *w
	}
	return Watermark{}
}

// Entries exports the table sorted by SiteID, the checkpoint form.
func (d *Dedupe) Entries() []persist.DedupeEntry {
	out := make([]persist.DedupeEntry, 0, len(d.seen))
	for id, w := range d.seen {
		out = append(out, persist.DedupeEntry{SiteID: id, Epoch: w.Epoch, MaxSeq: w.MaxSeq})
	}
	sort.Slice(out, func(a, b int) bool { return out[a].SiteID < out[b].SiteID })
	return out
}

// Len returns the number of tracked sites.
func (d *Dedupe) Len() int { return len(d.seen) }
