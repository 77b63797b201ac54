package telemetry

import (
	"sync"
	"time"
)

// Event is one structured journal entry: a runtime decision the paper
// reasons about (a chunk passing or failing the J_fit test, an archived
// model re-activating at some depth, an EM run converging, a coordinator
// split, a transport reconnect). The fixed fields cover every producer in
// the codebase without a per-event allocation map:
//
//	Kind  — the decision, e.g. "chunk-fit", "chunk-refit", "warm-refit",
//	        "split", "net-reconnect", "net-reconnect-storm"
//	Site  — originating site id (0 when not site-scoped)
//	Model — model/group id involved (0 when none)
//	Value — the decision's scalar: J_fit margin, final avg log-likelihood
//	N     — the decision's count: archive-hit depth, EM iterations, the
//	        failures a reconnect ended
//	Note  — short free-form qualifier ("warm", "fallback-cold", a peer's
//	        address)
type Event struct {
	Seq    uint64  `json:"seq"`
	UnixNs int64   `json:"unix_ns"`
	Kind   string  `json:"kind"`
	Site   int     `json:"site,omitempty"`
	Model  int     `json:"model,omitempty"`
	Value  float64 `json:"value,omitempty"`
	N      int     `json:"n,omitempty"`
	Note   string  `json:"note,omitempty"`
}

// Journal is a bounded ring buffer of Events. Recording is O(1) and never
// grows the buffer: once capacity is reached the oldest event is evicted
// (and counted), so a long-running daemon exposes the recent decision
// history at a fixed memory cost. All methods are nil-receiver safe.
type Journal struct {
	mu      sync.Mutex
	buf     []Event // ring storage, len == cap once full
	cap     int
	start   int    // index of the oldest retained event
	n       int    // retained events
	nextSeq uint64 // seq assigned to the next event (1-based)
	dropped uint64
}

// NewJournal returns a journal retaining at most capacity events
// (minimum 1).
func NewJournal(capacity int) *Journal {
	if capacity < 1 {
		capacity = 1
	}
	return &Journal{cap: capacity}
}

// Record appends one event, stamping Seq and UnixNs.
func (j *Journal) Record(e Event) {
	if j == nil {
		return
	}
	e.UnixNs = time.Now().UnixNano()
	j.mu.Lock()
	j.nextSeq++
	e.Seq = j.nextSeq
	if j.n < j.cap {
		j.buf = append(j.buf, e)
		j.n++
	} else {
		j.buf[j.start] = e
		j.start = (j.start + 1) % j.cap
		j.dropped++
	}
	j.mu.Unlock()
}

// Since returns up to limit retained events with Seq > after, oldest
// first. limit <= 0 means no limit. Nil journals return nil.
func (j *Journal) Since(after uint64, limit int) []Event {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	out := make([]Event, 0, j.n)
	for i := 0; i < j.n; i++ {
		e := j.buf[(j.start+i)%len(j.buf)]
		if e.Seq > after {
			out = append(out, e)
		}
	}
	if limit > 0 && len(out) > limit {
		out = out[len(out)-limit:]
	}
	return out
}

// Tail returns the newest n retained events, oldest first — the journal
// slice a failure artifact embeds so a violation carries the decision
// history that led to it. n <= 0 returns every retained event.
func (j *Journal) Tail(n int) []Event { return j.Since(0, n) }

// Len returns the number of retained events.
func (j *Journal) Len() int {
	if j == nil {
		return 0
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.n
}

// LastSeq returns the sequence number of the newest event (0 when empty).
func (j *Journal) LastSeq() uint64 {
	if j == nil {
		return 0
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.nextSeq
}

// Info summarizes the journal for snapshots.
func (j *Journal) Info() JournalInfo {
	if j == nil {
		return JournalInfo{}
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return JournalInfo{Len: j.n, LastSeq: j.nextSeq, Dropped: j.dropped}
}
