package durable

import (
	"cludistream/internal/coordinator"
	"cludistream/internal/telemetry"
	"cludistream/internal/transport"
)

// Receiver is the coordinator's one receive step: WAL append → dedupe
// verdict → epoch reset → apply → checkpoint. netio.Server, the cludistream
// facade, every internal node of a tree.Deployment and Open's WAL replay
// all run it, so a replayed byte stream lands on the state the live path
// built. It never logs: each caller reads the Result and keeps its own
// error policy and telemetry names. Not safe for concurrent use; callers
// receive under the lock that guards Coord.
type Receiver struct {
	Coord  *coordinator.Coordinator
	Dedupe *Dedupe
	// Store, when non-nil, makes the receive durable: the payload is
	// WAL-logged before anything else runs, and checkpoints rotate when one
	// is due.
	Store *Store
	// Tracer, when non-nil, records the "wal-append" and "dedupe" spans of
	// traced messages.
	Tracer *telemetry.Tracer
	// OnApply, when non-nil, observes every message handed to the
	// coordinator, with the verdict that admitted it, after its apply
	// returned — errored or not. Stale and duplicate messages never reach
	// it.
	OnApply func(transport.Message, Verdict)

	stats ReceiveStats
}

// ReceiveStats is the Receiver's delivery accounting.
type ReceiveStats struct {
	// Applied counts messages handed to the coordinator, ApplyErrors the
	// ones it rejected.
	Applied     int
	ApplyErrors int
	// Duplicates / DuplicateBytes count stale and duplicate messages
	// dropped without applying.
	Duplicates     int
	DuplicateBytes int
	// SiteResets counts epoch bumps that discarded a dead incarnation.
	SiteResets int
}

// Result reports what one Receive did.
type Result struct {
	// AppendErr is the WAL's refusal: nothing else ran, the watermark and
	// the coordinator are untouched, so the sender's retry of the same
	// (epoch, seq) is admitted. Verdict is meaningless when it is set.
	AppendErr error
	Verdict   Verdict
	// ApplyErr is the coordinator's rejection of an admitted message.
	ApplyErr error
	// CheckpointErr is a failed rotation; the previous generation stays
	// armed, so replay just gets longer.
	CheckpointErr error
}

// Err returns the first error of the receive, in pipeline order.
func (r Result) Err() error {
	switch {
	case r.AppendErr != nil:
		return r.AppendErr
	case r.ApplyErr != nil:
		return r.ApplyErr
	}
	return r.CheckpointErr
}

// Receive runs one decoded message, whose wire bytes are payload, through
// the receive step.
func (r *Receiver) Receive(payload []byte, msg transport.Message) Result {
	if r.Store != nil {
		span := r.Tracer.Begin(msg.TraceID, msg.SpanID, "wal-append", int(msg.SiteID), int(msg.ModelID))
		err := r.Store.Append(payload)
		span.End(len(payload), "")
		if err != nil {
			return Result{AppendErr: err}
		}
	}
	res := Result{Verdict: r.Dedupe.Admit(msg.SiteID, msg.Epoch, msg.Seq)}
	if r.Tracer != nil && msg.TraceID != 0 {
		now := r.Tracer.Now()
		r.Tracer.Record(msg.TraceID, msg.SpanID, "dedupe",
			int(msg.SiteID), int(msg.ModelID), now, now, 0, res.Verdict.String())
	}
	if res.Verdict.Dropped() {
		r.stats.Duplicates++
		r.stats.DuplicateBytes += len(payload)
		return res
	}
	if res.Verdict == AdmitNewEpoch {
		r.Coord.ResetSite(int(msg.SiteID))
		r.stats.SiteResets++
	}
	r.stats.Applied++
	if msg.Kind == transport.MsgDeletion {
		// Deletions carry no site.Update, so the trace context rides in
		// side-band; HandleUpdate reads it off the update itself.
		r.Coord.SetTraceContext(msg.TraceID, msg.SpanID)
		res.ApplyErr = r.Coord.HandleDeletion(int(msg.SiteID), int(msg.ModelID), int(msg.Count))
	} else {
		res.ApplyErr = r.Coord.HandleUpdate(msg.ToSiteUpdate())
	}
	if res.ApplyErr != nil {
		r.stats.ApplyErrors++
	}
	if r.OnApply != nil {
		r.OnApply(msg, res.Verdict)
	}
	if r.Store != nil && r.Store.NeedCheckpoint() {
		res.CheckpointErr = r.Store.Checkpoint(r.Coord, r.Dedupe)
	}
	return res
}

// Stats returns the delivery counters.
func (r *Receiver) Stats() ReceiveStats { return r.stats }
