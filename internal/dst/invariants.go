package dst

import (
	"fmt"
	"math"

	"cludistream/internal/coordinator"
	"cludistream/internal/gaussian"
	"cludistream/internal/linalg"
	"cludistream/internal/query"
	"cludistream/internal/telemetry"
	"cludistream/internal/transport"
	"cludistream/internal/tree"
)

// hop identifies one directed edge of the deployment by its receiving
// internal node and the wire sender id the receiver sees (a leaf SiteID or
// an aggregator's pseudo-site id).
type hop struct {
	node  int
	child int32
}

// shadowMark mirrors a receiver's per-sender exactly-once watermark.
type shadowMark struct {
	epoch  uint32
	maxSeq uint64
}

// hopTally is the receiver-side ledger for one (hop, epoch): what the
// node actually applied, priced at exact wire sizes, split by kind.
type hopTally struct {
	msgs, bytes                         int
	newModels, weightUpdates, deletions int
}

// liveModel is one registered model the checker believes a node holds:
// its running record counter and the component count its mixture
// contributes to the node's leaf table.
type liveModel struct {
	counter int
	comps   int
}

// checker is the invariant suite. It observes every message applied at
// every internal node through the deployment's OnApply hook and keeps, per
// hop, an independent exactly-once shadow — its own dedupe watermarks and
// the live models and counters the applied stream implies — and a
// receiver-side ledger it compares against the sender-side entitlement.
// The emission reference, a coordinator fed every leaf send directly (no
// network), anchors the final schedule-independence check. The first
// violation is retained; later checks are skipped so the artifact pins the
// earliest deterministic failure point.
type checker struct {
	sc  Scenario
	dep *tree.Deployment
	reg *telemetry.Registry
	// tracer backs the trace-conservation invariant (DST always enables
	// tracing before building the checker).
	tracer *telemetry.Tracer

	ref     *coordinator.Coordinator
	marks   map[hop]*shadowMark
	applied map[hop]map[uint32]*hopTally
	models  map[hop]map[int32]*liveModel
	// nmodels and leaves are each node's expected model count and
	// leaf-table size (the sum over live models of their component counts),
	// maintained incrementally.
	nmodels, leaves []int
	// live is each site's live incarnation epoch (1-based), advanced on
	// every crash. Theorem-2/3 checks compare delivered counts against the
	// live site's decision counters, so they only run on updates from the
	// live epoch — in-flight messages from a dead incarnation may still
	// legitimately arrive right after a crash.
	live []uint32

	// Query-tier state (snapshot-consistency invariant): the real RCU
	// publisher driven on the virtual clock, a scratch for read-op parity
	// checks, the pinned snapshots re-verified after every root apply, and
	// a buffer for their current values.
	pub      *query.Publisher
	qscratch *query.Scratch
	held     []heldSnap
	qvals    []float64

	// updates counts applied messages at every node; traced counts those
	// from leaves, the only senders that carry trace context.
	updates, traced int
	violation       *Violation

	// Wire sizes of a leaf's v2 traced encodings, fixed by K and Dim.
	newModelWire int
	smallWire    int
}

// newChecker builds the suite; the runner assigns dep and pub before
// feeding.
func newChecker(sc Scenario, reg *telemetry.Registry) (*checker, error) {
	c := &checker{
		sc:       sc,
		reg:      reg,
		tracer:   reg.Tracer(),
		marks:    make(map[hop]*shadowMark),
		applied:  make(map[hop]map[uint32]*hopTally),
		models:   make(map[hop]map[int32]*liveModel),
		nmodels:  make([]int, sc.Topology.NumNodes()),
		leaves:   make([]int, sc.Topology.NumNodes()),
		live:     make([]uint32, len(sc.Sites)),
		qscratch: query.NewScratch(),
		// v2 framing: header (17) + marker/epoch/seq (13) + the 16-byte
		// trace suffix every leaf message carries; a NewModel adds K, d and
		// K·(1 + d + packed(d)) float64s.
		smallWire: 17 + 13 + transport.TraceSuffixSize,
	}
	c.newModelWire = c.smallWire + 8 + sc.K*8*(1+sc.Dim+linalg.PackedLen(sc.Dim))
	for i := range c.live {
		c.live[i] = 1
	}
	var err error
	c.ref, err = coordinator.New(coordinator.Config{Dim: sc.Dim, Merge: mergeOpts()})
	return c, err
}

// fail records the first violation, pinned to the current update count
// and virtual clock.
func (c *checker) fail(invariant, detail string) {
	if c.violation != nil {
		return
	}
	c.violation = &Violation{
		Invariant: invariant,
		Detail:    detail,
		Update:    c.updates,
		SimTime:   c.dep.Now(),
	}
}

// onEmit feeds the emission reference every message a leaf sends.
func (c *checker) onEmit(msg transport.Message) {
	var err error
	if msg.Kind == transport.MsgDeletion {
		err = c.ref.HandleDeletion(int(msg.SiteID), int(msg.ModelID), int(msg.Count))
	} else {
		err = c.ref.HandleUpdate(msg.ToSiteUpdate())
	}
	if err != nil {
		c.fail("delivery", fmt.Sprintf("emission reference rejected site %d's own message: %v", msg.SiteID, err))
	}
}

// crashLeaf is called by the runner just before leaf i's incarnation is
// killed: the reference forgets it, as the leaf's parent will on the
// restarted incarnation's first message, and the live epoch advances.
func (c *checker) crashLeaf(i int) {
	c.ref.ResetSite(i + 1)
	c.live[i]++
}

// onApply is the per-update invariant suite, invoked by the deployment at
// whichever internal node just applied a delivered message.
func (c *checker) onApply(node int, msg transport.Message) {
	if c.violation != nil {
		return
	}
	c.updates++
	h := hop{node: node, child: msg.SiteID}
	leaf := int(msg.SiteID) <= len(c.sc.Sites)
	if leaf {
		c.traced++
	}

	// Invariant: exactly-once through this hop. The shadow replays the
	// dedupe protocol from scratch; any applied message it would have
	// dropped is a duplicate or stale-epoch leak at this specific edge.
	if msg.Seq == 0 {
		c.fail("exactly-once", fmt.Sprintf("node %d applied an unversioned (v1) message from sender %d", node, msg.SiteID))
		return
	}
	w := c.marks[h]
	if w == nil {
		w = &shadowMark{}
		c.marks[h] = w
	}
	switch {
	case msg.Epoch < w.epoch:
		c.fail("exactly-once", fmt.Sprintf("node %d applied a stale-epoch message from sender %d: epoch %d < watermark epoch %d", node, msg.SiteID, msg.Epoch, w.epoch))
		return
	case msg.Epoch > w.epoch:
		if w.epoch != 0 {
			// The node reset this sender: its dead incarnation's models left
			// the leaf table.
			for _, lm := range c.models[h] {
				c.leaves[node] -= lm.comps
			}
			c.nmodels[node] -= len(c.models[h])
			c.models[h] = nil
		}
		w.epoch, w.maxSeq = msg.Epoch, 0
	}
	if msg.Seq <= w.maxSeq {
		c.fail("exactly-once", fmt.Sprintf("node %d: sender %d epoch %d applied seq %d twice (watermark %d): duplicate delivery was not deduped", node, msg.SiteID, msg.Epoch, msg.Seq, w.maxSeq))
		return
	}
	w.maxSeq = msg.Seq

	// Receiver-side ledger for the Theorem-3 communication bound: what a
	// node applies from a sender can never exceed what the sender's edge
	// handed to transport in that epoch, priced at exact wire sizes.
	byEpoch := c.applied[h]
	if byEpoch == nil {
		byEpoch = make(map[uint32]*hopTally)
		c.applied[h] = byEpoch
	}
	t := byEpoch[msg.Epoch]
	if t == nil {
		t = &hopTally{}
		byEpoch[msg.Epoch] = t
	}
	t.msgs++
	t.bytes += msg.WireSize()
	switch msg.Kind {
	case transport.MsgNewModel:
		t.newModels++
	case transport.MsgWeightUpdate:
		t.weightUpdates++
	case transport.MsgDeletion:
		t.deletions++
	}
	sent := c.dep.SentTally(node, int(msg.SiteID), msg.Epoch)
	if t.msgs > sent.Msgs || t.bytes > sent.Bytes {
		c.fail("comm-bound", fmt.Sprintf("node %d applied %d msgs / %d bytes from sender %d in epoch %d, but the sender only emitted %d msgs / %d bytes",
			node, t.msgs, t.bytes, msg.SiteID, msg.Epoch, sent.Msgs, sent.Bytes))
		return
	}

	// Track the sender's live models: the node's exactly-once shadow, which
	// also prices its memory (checkNode).
	mods := c.models[h]
	if mods == nil {
		mods = make(map[int32]*liveModel)
		c.models[h] = mods
	}
	switch msg.Kind {
	case transport.MsgNewModel:
		if mods[msg.ModelID] != nil {
			c.fail("exactly-once", fmt.Sprintf("node %d: sender %d re-registered model %d", node, msg.SiteID, msg.ModelID))
			return
		}
		mods[msg.ModelID] = &liveModel{counter: int(msg.Count), comps: msg.Mixture.K()}
		c.leaves[node] += msg.Mixture.K()
		c.nmodels[node]++
	case transport.MsgWeightUpdate:
		lm := mods[msg.ModelID]
		if lm == nil {
			c.fail("exactly-once", fmt.Sprintf("node %d: sender %d weight update for unregistered model %d", node, msg.SiteID, msg.ModelID))
			return
		}
		lm.counter += int(msg.Count)
	case transport.MsgDeletion:
		lm := mods[msg.ModelID]
		if lm == nil {
			c.fail("exactly-once", fmt.Sprintf("node %d: sender %d deletion for unregistered model %d", node, msg.SiteID, msg.ModelID))
			return
		}
		lm.counter -= int(msg.Count)
		if lm.counter <= 0 {
			c.leaves[node] -= lm.comps
			c.nmodels[node]--
			delete(mods, msg.ModelID)
		}
	}

	// Invariant: the upload-on-change protocol keeps each aggregator child
	// down to at most one live pseudo-model at its parent — the deletion
	// always lands before the replacement on the FIFO edge.
	if !leaf && len(mods) > 1 {
		c.fail("upload-protocol", fmt.Sprintf("node %d holds %d live pseudo-models for aggregator child %d, want at most 1", node, len(mods), msg.SiteID))
		return
	}

	c.checkNode(node)
	if leaf {
		c.checkTrace(msg)
		c.checkSite(int(msg.SiteID)-1, false)
	}
	if node == 0 {
		// The ledgers are cumulative, so checking them where the query tier
		// runs — every root apply, and so every apply of a star — leaves no
		// drift unseen for long.
		c.checkConservation()
		c.checkQueryTier()
	}
}

// checkNode holds node n to what its applied message stream implies.
// Exactly-once application: the coordinator registers exactly the live
// models and counters of the stream, so an apply that slips past OnApply
// (a replay or recovery path gone wrong) shows up as a mismatch. The
// per-layer Theorem-3 memory bound: it tracks exactly the live components
// — no leak across deletions, resets or recoveries — and its bytes stay
// within the 2·leaves·per envelope (leaf table plus at most one group per
// leaf), independent of how many records the subtree has absorbed.
func (c *checker) checkNode(n int) {
	if c.violation != nil {
		return
	}
	co := c.dep.NodeCoordinator(n)
	got := co.ModelWeights()
	if len(got) != c.nmodels[n] {
		c.fail("exactly-once", fmt.Sprintf("node %d registers %d models, but the applied stream leaves %d", n, len(got), c.nmodels[n]))
		return
	}
	for _, mw := range got {
		lm := c.models[hop{node: n, child: int32(mw.SiteID)}][int32(mw.ModelID)]
		if lm == nil {
			c.fail("exactly-once", fmt.Sprintf("node %d registers sender %d's model %d, which the applied stream does not leave live", n, mw.SiteID, mw.ModelID))
			return
		}
		if lm.counter != mw.Counter {
			c.fail("exactly-once", fmt.Sprintf("node %d: sender %d's model %d has counter %d, but the applied stream says %d", n, mw.SiteID, mw.ModelID, mw.Counter, lm.counter))
			return
		}
	}
	want := c.leaves[n]
	if got := co.NumLeaves(); got != want {
		c.fail("memory-bound", fmt.Sprintf("node %d tracks %d leaf components, but the applied stream registers %d", n, got, want))
		return
	}
	d := c.sc.Dim
	per := 8 * (1 + d + d*(d+1)/2)
	if limit := 2 * want * per; co.MemoryBytes() > limit {
		c.fail("memory-bound", fmt.Sprintf("node %d coordinator holds %d bytes > per-layer bound %d (%d live components)", n, co.MemoryBytes(), limit, want))
	}
}

// checkTrace is the per-update half of the trace-conservation invariant:
// a message applied from a leaf must carry trace context, its trace must
// still be live, the span chain must be contiguous (exactly one root
// "chunk" span; every other parent resolves within the trace), and an
// "apply" span must exist by the time OnApply fires.
func (c *checker) checkTrace(msg transport.Message) {
	if c.violation != nil {
		return
	}
	if msg.TraceID == 0 {
		c.fail("trace-conservation", fmt.Sprintf("site %d applied a message with no trace context while tracing is enabled", msg.SiteID))
		return
	}
	tr, ok := c.tracer.TraceByID(msg.TraceID)
	if !ok {
		c.fail("trace-conservation", fmt.Sprintf("site %d: applied message's trace %d is missing from the active table", msg.SiteID, msg.TraceID))
		return
	}
	ids := make(map[uint64]bool, len(tr.Spans))
	for _, sp := range tr.Spans {
		ids[sp.ID] = true
	}
	roots, applies := 0, 0
	for _, sp := range tr.Spans {
		switch {
		case sp.Parent == 0:
			roots++
			if sp.Name != "chunk" {
				c.fail("trace-conservation", fmt.Sprintf("trace %d: root span is %q, want \"chunk\"", tr.ID, sp.Name))
				return
			}
		case !ids[sp.Parent]:
			c.fail("trace-conservation", fmt.Sprintf("trace %d: span %q (id %d) has parent %d outside the trace — broken causal chain", tr.ID, sp.Name, sp.ID, sp.Parent))
			return
		}
		if sp.Name == "apply" {
			applies++
		}
	}
	if roots != 1 {
		c.fail("trace-conservation", fmt.Sprintf("trace %d: %d root spans, want exactly 1", tr.ID, roots))
		return
	}
	if applies == 0 {
		c.fail("trace-conservation", fmt.Sprintf("trace %d: message applied but no apply span was recorded", tr.ID))
	}
}

// checkSite verifies site i's paper structures across its uplink: the
// event list (Algorithm 1's ⟨model ID, start, end⟩ table), Theorem-2
// fit-test soundness, the Theorem-3 communication and memory bounds, and
// the site's own decision-counter conservation. final additionally
// requires the delivered counts to have caught up exactly (everything
// emitted in the current epoch applied once).
func (c *checker) checkSite(i int, final bool) {
	if c.violation != nil {
		return
	}
	siteID := i + 1
	st := c.dep.LeafSite(i)
	stats := st.Stats()

	// Conservation: every processed chunk took exactly one of the three
	// Algorithm-1 exits.
	if stats.Chunks != stats.Fits+stats.Refits+stats.Reactivated {
		c.fail("conservation", fmt.Sprintf("site %d: %d chunks != %d fits + %d refits + %d reactivated", siteID, stats.Chunks, stats.Fits, stats.Refits, stats.Reactivated))
		return
	}

	// Invariant: event-list consistency. Closed spans are contiguous from
	// chunk 1, non-overlapping, and every chunk up to ChunksSeen is
	// governed — by a closed span or by the open span of the current model.
	prevEnd := 0
	models := make(map[int]bool)
	for _, m := range st.Models() {
		models[m.ID] = true
	}
	for _, e := range st.Events().All() {
		if e.StartChunk != prevEnd+1 {
			c.fail("event-list", fmt.Sprintf("site %d: span %v does not start at chunk %d: gap or overlap", siteID, e, prevEnd+1))
			return
		}
		if e.EndChunk < e.StartChunk {
			c.fail("event-list", fmt.Sprintf("site %d: inverted span %v", siteID, e))
			return
		}
		if !models[e.ModelID] {
			c.fail("event-list", fmt.Sprintf("site %d: span %v references a model missing from the model list", siteID, e))
			return
		}
		prevEnd = e.EndChunk
	}
	if prevEnd > st.ChunksSeen() {
		c.fail("event-list", fmt.Sprintf("site %d: closed spans cover %d chunks but only %d chunks were seen", siteID, prevEnd, st.ChunksSeen()))
		return
	}
	if st.ChunksSeen() > 0 && st.Current() == nil {
		c.fail("event-list", fmt.Sprintf("site %d: %d chunks seen but no current model governs chunks %d..%d", siteID, st.ChunksSeen(), prevEnd+1, st.ChunksSeen()))
		return
	}

	// Invariant: Theorem-2 fit-test soundness. A chunk that fits transmits
	// nothing (landmark mode), so the parent can never apply more NewModel
	// messages than the site ran refits, nor more weight updates than
	// reactivations (plus fits, in sliding mode where fitting chunks emit
	// weight updates by design). Delivered counts describe whichever epoch
	// the parent last applied; they are only comparable to the live site's
	// counters once that is the live incarnation's epoch.
	h := hop{node: c.sc.Topology.Leaves[i].Parent, child: int32(siteID)}
	if w := c.marks[h]; w == nil || w.epoch != c.live[i] {
		if final {
			c.fail("delivery", fmt.Sprintf("site %d: live incarnation (epoch %d) never reached its parent after drain", siteID, c.live[i]))
		}
		return
	}
	pc := c.applied[h][c.live[i]]
	if c.sc.Sliding > 0 {
		// Sliding mode: every chunk carries exactly one update (fits emit
		// weight updates by design, and a weight update whose model the
		// parent deleted is upgraded to a NewModel synopsis), so the sound
		// bound is on the total.
		sent := stats.Refits + stats.Reactivated + stats.Fits
		if got := pc.newModels + pc.weightUpdates; got > sent {
			c.fail("fit-soundness", fmt.Sprintf("site %d: %d updates applied but only %d chunks warranted one", siteID, got, sent))
			return
		}
		if final {
			if got := pc.newModels + pc.weightUpdates; got != sent {
				c.fail("fit-soundness", fmt.Sprintf("site %d after drain: %d updates applied != %d chunks processed — an update was lost or double-applied", siteID, got, sent))
				return
			}
		}
	} else {
		// Landmark mode never expires a model, so a landmark site has
		// nothing to delete.
		if pc.deletions > 0 {
			c.fail("fit-soundness", fmt.Sprintf("site %d emitted %d deletions in landmark mode", siteID, pc.deletions))
			return
		}
		if pc.newModels > stats.Refits {
			c.fail("fit-soundness", fmt.Sprintf("site %d: %d NewModel messages applied but only %d refits ran — a fitting chunk transmitted a model", siteID, pc.newModels, stats.Refits))
			return
		}
		if pc.weightUpdates > stats.Reactivated {
			c.fail("fit-soundness", fmt.Sprintf("site %d: %d weight updates applied but only %d chunks reactivated a model", siteID, pc.weightUpdates, stats.Reactivated))
			return
		}
		if final {
			if pc.newModels != stats.Refits {
				c.fail("fit-soundness", fmt.Sprintf("site %d after drain: %d NewModel messages applied != %d refits — an update was lost or double-applied", siteID, pc.newModels, stats.Refits))
				return
			}
			if pc.weightUpdates != stats.Reactivated {
				c.fail("fit-soundness", fmt.Sprintf("site %d after drain: %d weight updates applied != %d reactivations", siteID, pc.weightUpdates, stats.Reactivated))
				return
			}
		}
	}

	// Invariant: Theorem-3 communication-cost bound. Applied traffic from
	// the current incarnation is bounded by its transmitting decisions
	// priced at the exact wire sizes.
	if bound := pc.newModels*c.newModelWire + (pc.weightUpdates+pc.deletions)*c.smallWire; pc.bytes > bound {
		c.fail("comm-bound", fmt.Sprintf("site %d: %d bytes applied > %d-byte bound (%d new models, %d weight updates, %d deletions)", siteID, pc.bytes, bound, pc.newModels, pc.weightUpdates, pc.deletions))
		return
	}

	// Invariant: Theorem-3 memory bound — B·K·(d²+d+1) floats for the
	// model list plus M·d for the chunk buffer.
	d := c.sc.Dim
	if limit := 8 * len(st.Models()) * c.sc.K * (d*d + d + 1); st.ModelListBytes() > limit {
		c.fail("memory-bound", fmt.Sprintf("site %d: model list %d bytes > Theorem-3 bound %d", siteID, st.ModelListBytes(), limit))
		return
	}
	if st.BufferBytes() != 8*c.sc.ChunkSize*d {
		c.fail("memory-bound", fmt.Sprintf("site %d: buffer %d bytes != 8·M·d = %d", siteID, st.BufferBytes(), 8*c.sc.ChunkSize*d))
	}
}

// checkConservation verifies the delivery-layer conservation laws: every
// sent byte is either goodput or dropped, retransmissions never exceed
// total traffic, and the telemetry counters agree with the simulator's
// own accounting.
func (c *checker) checkConservation() {
	if c.violation != nil {
		return
	}
	d := c.dep.DeliveryStats()
	total := c.dep.TotalBytes()
	if total != d.GoodputBytes+d.DroppedBytes {
		c.fail("conservation", fmt.Sprintf("bytes sent %d != goodput %d + dropped %d", total, d.GoodputBytes, d.DroppedBytes))
		return
	}
	if d.RetransmitBytes > total {
		c.fail("conservation", fmt.Sprintf("retransmit bytes %d > total bytes %d", d.RetransmitBytes, total))
		return
	}
	for name, want := range map[string]int{
		"sim.bytes_sent":       total,
		"sim.goodput_bytes":    d.GoodputBytes,
		"sim.retransmit_bytes": d.RetransmitBytes,
		"sim.dropped_bytes":    d.DroppedBytes,
		"sim.dup_delivered":    d.DupDelivered,
		"net.retries":          d.Retries,
		"coord.dedupe_dropped": d.Duplicates,
		"coord.epoch_resets":   d.SiteResets,
	} {
		if got := c.reg.Counter(name).Value(); got != int64(want) {
			c.fail("conservation", fmt.Sprintf("telemetry counter %s = %d disagrees with simulator accounting %d", name, got, want))
			return
		}
	}

	// Trace-conservation, aggregate half: the cumulative span counts must
	// reconcile with the delivery-layer accounting of traced messages, the
	// ones leaves send. Every transmission on a leaf uplink records exactly
	// one wire-send span; every payload delivered there records exactly one
	// dedupe span (admitted → applied, dropped → duplicate); and every live
	// apply records exactly one apply span. WAL replay after a recovery
	// re-applies messages through the same handlers without OnApply, so
	// apply spans may only exceed the applied count when the run actually
	// recovered a node.
	var wire, dups int
	for _, es := range c.dep.EdgeStatsAll() {
		if es.From <= len(c.sc.Sites) {
			wire += es.Msgs
			dups += es.Duplicates
		}
	}
	if got := c.tracer.SpanCount("wire-send"); got != int64(wire) {
		c.fail("trace-conservation", fmt.Sprintf("%d wire-send spans recorded but the leaf uplinks transmitted %d messages", got, wire))
		return
	}
	if got := c.tracer.SpanCount("dedupe"); got != int64(c.traced+dups) {
		c.fail("trace-conservation", fmt.Sprintf("%d dedupe spans != %d applied + %d dedupe-dropped leaf deliveries", got, c.traced, dups))
		return
	}
	applySpans := c.tracer.SpanCount("apply")
	if applySpans < int64(c.traced) {
		c.fail("trace-conservation", fmt.Sprintf("%d apply spans < %d applied leaf updates", applySpans, c.traced))
		return
	}
	if c.dep.Recovery().Restarts == 0 && applySpans != int64(c.traced) {
		c.fail("trace-conservation", fmt.Sprintf("%d apply spans != %d applied leaf updates with no recovery to explain the surplus", applySpans, c.traced))
	}
}

// finalChecks runs after Drain on a violation-free run: nothing pending,
// per-edge byte conservation, the current-epoch entitlement applied
// exactly (at-least-once transport + dedupe = exactly-once per hop), every
// site caught up, every node's memory exact, the ledgers balanced, and the
// root equal to the emission reference regardless of the delivery
// schedule.
func (c *checker) finalChecks() {
	if c.violation != nil {
		return
	}
	if p := c.dep.Pending(); p != 0 {
		c.fail("delivery", fmt.Sprintf("%d payloads still pending in edge outboxes after drain", p))
		return
	}
	for _, es := range c.dep.EdgeStatsAll() {
		if es.WireBytes != es.GoodputBytes+es.DroppedBytes {
			c.fail("conservation", fmt.Sprintf("edge %d->%d: wire %d != goodput %d + dropped %d", es.From, es.To, es.WireBytes, es.GoodputBytes, es.DroppedBytes))
			return
		}
		t := c.applied[hop{node: es.To, child: int32(es.From)}][es.Epoch]
		if t == nil {
			t = &hopTally{}
		}
		if t.msgs != es.SentMsgs || t.bytes != es.SentBytes {
			c.fail("delivery", fmt.Sprintf("edge %d->%d epoch %d: applied %d msgs / %d bytes != sent %d msgs / %d bytes after drain",
				es.From, es.To, es.Epoch, t.msgs, t.bytes, es.SentMsgs, es.SentBytes))
			return
		}
	}
	for i := range c.sc.Sites {
		c.checkSite(i, true)
	}
	for n := range c.leaves {
		c.checkNode(n)
	}
	c.checkConservation()
	// Snapshots pinned mid-run must still serve their publish-time state
	// after the drain's final merges and compactions.
	c.recheckHeldSnapshots()
	if c.violation != nil {
		return
	}
	root := c.dep.NodeCoordinator(0)
	if len(c.sc.Topology.Aggs) == 0 {
		// Without aggregators the root applies exactly what the sites
		// emitted, so it must equal the reference bit for bit.
		if fp, want := Fingerprint(root.GlobalMixture()), Fingerprint(c.ref.GlobalMixture()); fp != want {
			c.fail("schedule-independence", fmt.Sprintf("final global mixture fingerprint %016x != emission reference %016x", fp, want))
			return
		}
		if diff := weightsDiff(root.ModelWeights(), c.ref.ModelWeights()); diff != "" {
			c.fail("schedule-independence", "final model weights diverged from the emission reference: "+diff)
		}
		return
	}
	if math.Round(root.TotalWeight()) != math.Round(c.ref.TotalWeight()) {
		c.fail("schedule-independence", fmt.Sprintf("root record mass %v != emission reference %v", root.TotalWeight(), c.ref.TotalWeight()))
		return
	}
	if _, diff := mixturesDiff(root.GlobalMixture(), c.ref.GlobalMixture()); diff != "" {
		c.fail("schedule-independence", "root mixture diverged from the emission reference: "+diff)
	}
}

// weightsDiff compares two sorted ModelWeight tables, returning "" when
// identical and a one-line description of the first difference otherwise.
func weightsDiff(got, want []coordinator.ModelWeight) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d models registered, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Sprintf("model %d/%d: got site %d model %d counter %d, want site %d model %d counter %d",
				i, len(got), got[i].SiteID, got[i].ModelID, got[i].Counter, want[i].SiteID, want[i].ModelID, want[i].Counter)
		}
	}
	return ""
}

// gateBand bounds how far, in units of the coordinator's MergeGate,
// a regrouped component may lie from its counterpart in the other mixture.
const gateBand = 2

// mixturesDiff compares the root's global mixture rm against the emission
// reference's fm, returning "" when equivalent, and how many components of
// either mixture were left unpaired. Components are paired one to one, in
// canonical order, with a component of the other mixture that agrees in
// weight, mean and covariance (momentsClose); two identical mixtures pair
// positionally, component by component.
//
// Components left unpaired pass only as a regrouping at the merge gate. An
// aggregator groups its subtree before the root sees it, and the
// coordinator's greedy grouping depends on arrival order, so a component
// whose distance to a group lies near the MergeGate can join it in one
// coordinator and stand apart, or join another group, in the other. Such a
// regrouping is local and moves no mass: every unpaired component must lie
// within gateBand·MergeGate (CrossMahalanobisSq) of an unpaired
// component of the other mixture, and the unpaired components of each
// mixture must fold to the same moment-preserving merge.
func mixturesDiff(rm, fm *gaussian.Mixture) (unpaired int, diff string) {
	if (rm == nil) != (fm == nil) {
		return 0, fmt.Sprintf("root mixture nil=%v, reference nil=%v", rm == nil, fm == nil)
	}
	if rm == nil {
		return 0, ""
	}
	mixes, rest := [2]*gaussian.Mixture{rm, fm}, [2][]int{}
	paired := make([]bool, fm.K())
	for i := 0; i < rm.K(); i++ {
		j := 0
		for j < fm.K() && (paired[j] || !momentsClose(rm.Weight(i), rm.Component(i), fm.Weight(j), fm.Component(j))) {
			j++
		}
		if j == fm.K() {
			rest[0] = append(rest[0], i)
		} else {
			paired[j] = true
		}
	}
	for j, p := range paired {
		if !p {
			rest[1] = append(rest[1], j)
		}
	}
	unpaired = len(rest[0]) + len(rest[1])
	limit := gateBand * coordinator.MergeGate(rm.Dim())
	var w [2]float64
	var merged [2]*gaussian.Component
	for s, mix := range mixes {
		for _, i := range rest[s] {
			c, other := mix.Component(i), mixes[1-s]
			nearest := math.Inf(1)
			for _, j := range rest[1-s] {
				nearest = math.Min(nearest, gaussian.CrossMahalanobisSq(c, other.Component(j)))
			}
			if nearest > limit {
				return unpaired, fmt.Sprintf("%s component %v (weight %v) regrouped with no counterpart within %v (nearest %v)",
					[2]string{"root", "reference"}[s], c, mix.Weight(i), limit, nearest)
			}
			if merged[s] == nil {
				w[s], merged[s] = mix.Weight(i), c
				continue
			}
			mw, mean, cov := gaussian.MomentMerge(w[s], merged[s], mix.Weight(i), c)
			w[s], merged[s] = mw, gaussian.MustComponent(mean, cov)
		}
	}
	if merged[0] != nil && !momentsClose(w[0], merged[0], w[1], merged[1]) {
		return unpaired, fmt.Sprintf("regrouped components merge to %v·%v (root) vs %v·%v (reference)", w[0], merged[0], w[1], merged[1])
	}
	return unpaired, ""
}

// momentsClose reports whether two weighted components agree in weight,
// mean and covariance to floating-point scale: moment-preserving merges are
// associative only in exact arithmetic, so bit-equality is not expected.
func momentsClose(wa float64, a *gaussian.Component, wb float64, b *gaussian.Component) bool {
	x := append(append([]float64{wa}, a.Mean()...), a.Cov().Packed()...)
	y := append(append([]float64{wb}, b.Mean()...), b.Cov().Packed()...)
	for i := range x {
		if math.Abs(x[i]-y[i]) > 1e-6*(1+math.Max(math.Abs(x[i]), math.Abs(y[i]))) {
			return false
		}
	}
	return true
}
