package dst

import (
	"fmt"
	"math"

	"cludistream/internal/coordinator"
	"cludistream/internal/gaussian"
	"cludistream/internal/transport"
	"cludistream/internal/tree"
)

// hop identifies one directed edge of the tree by its receiving internal
// node and the wire sender id the receiver sees (a leaf SiteID or an
// aggregator's pseudo-site id).
type hop struct {
	node  int
	child int32
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

// treeChecker is the per-layer invariant suite for tree deployments. It
// observes every message applied at every internal node through the
// deployment's OnApply hook and maintains, per hop, an independent
// exactly-once shadow (dedupe watermarks) plus a receiver-side ledger it
// compares against the sender-side entitlement — the Theorem-3 per-layer
// communication bound at exact wire sizes. Per node it derives the exact
// set of live models the coordinator should be tracking, which prices the
// per-layer memory bound. The flat reference coordinator is fed every
// leaf emission directly (zero network) and anchors the final
// tree-vs-flat equivalence check.
type treeChecker struct {
	sc  TreeScenario
	dep *tree.Deployment
	ref *coordinator.Coordinator

	marks   map[hop]*shadowMark
	applied map[hop]map[uint32]*hopTally
	models  map[hop]map[int32]*liveModel
	// leaves is each node's expected leaf-table size: the sum over live
	// models of their component counts, maintained incrementally.
	leaves []int

	updates   int
	violation *Violation
}

func newTreeChecker(sc TreeScenario, ref *coordinator.Coordinator) *treeChecker {
	return &treeChecker{
		sc:      sc,
		ref:     ref,
		marks:   make(map[hop]*shadowMark),
		applied: make(map[hop]map[uint32]*hopTally),
		models:  make(map[hop]map[int32]*liveModel),
		leaves:  make([]int, sc.Topology.NumNodes()),
	}
}

func (c *treeChecker) fail(invariant, detail string) {
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

// onApply is the per-update suite, invoked by the deployment at whichever
// internal node just applied a delivered message.
func (c *treeChecker) onApply(node int, msg transport.Message) {
	if c.violation != nil {
		return
	}
	c.updates++
	h := hop{node: node, child: msg.SiteID}

	// Invariant: exactly-once through this hop. The shadow replays the
	// dedupe protocol from scratch; any applied message it would have
	// dropped is a duplicate or stale-epoch leak at this specific edge.
	if msg.Seq == 0 {
		c.fail("exactly-once", fmt.Sprintf("node %d applied an unversioned (v1) message from child %d", node, msg.SiteID))
		return
	}
	w := c.marks[h]
	if w == nil {
		w = &shadowMark{}
		c.marks[h] = w
	}
	switch {
	case msg.Epoch < w.epoch:
		c.fail("exactly-once", fmt.Sprintf("node %d applied a stale-epoch message from child %d: epoch %d < watermark epoch %d", node, msg.SiteID, msg.Epoch, w.epoch))
		return
	case msg.Epoch > w.epoch:
		if w.epoch != 0 {
			// The node reset this child: its dead incarnation's models left
			// the leaf table.
			for _, lm := range c.models[h] {
				c.leaves[node] -= lm.comps
			}
			c.models[h] = nil
		}
		w.epoch, w.maxSeq = msg.Epoch, 0
	}
	if msg.Seq <= w.maxSeq {
		c.fail("exactly-once", fmt.Sprintf("node %d child %d epoch %d applied seq %d twice (watermark %d): duplicate delivery was not deduped", node, msg.SiteID, msg.Epoch, msg.Seq, w.maxSeq))
		return
	}
	w.maxSeq = msg.Seq

	// Receiver-side ledger for the Theorem-3 communication bound: what a
	// node applies from a child can never exceed what the child's edge
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
		c.fail("comm-bound", fmt.Sprintf("node %d applied %d msgs / %d bytes from child %d in epoch %d, but the sender only emitted %d msgs / %d bytes",
			node, t.msgs, t.bytes, msg.SiteID, msg.Epoch, sent.Msgs, sent.Bytes))
		return
	}

	// Track the child's live models to price the node's memory.
	mods := c.models[h]
	if mods == nil {
		mods = make(map[int32]*liveModel)
		c.models[h] = mods
	}
	switch msg.Kind {
	case transport.MsgNewModel:
		if mods[msg.ModelID] != nil {
			c.fail("exactly-once", fmt.Sprintf("node %d: child %d re-registered model %d", node, msg.SiteID, msg.ModelID))
			return
		}
		mods[msg.ModelID] = &liveModel{counter: int(msg.Count), comps: msg.Mixture.K()}
		c.leaves[node] += msg.Mixture.K()
	case transport.MsgWeightUpdate:
		lm := mods[msg.ModelID]
		if lm == nil {
			c.fail("exactly-once", fmt.Sprintf("node %d: child %d weight update for unregistered model %d", node, msg.SiteID, msg.ModelID))
			return
		}
		lm.counter += int(msg.Count)
	case transport.MsgDeletion:
		lm := mods[msg.ModelID]
		if lm == nil {
			c.fail("exactly-once", fmt.Sprintf("node %d: child %d deletion for unregistered model %d", node, msg.SiteID, msg.ModelID))
			return
		}
		lm.counter -= int(msg.Count)
		if lm.counter <= 0 {
			c.leaves[node] -= lm.comps
			delete(mods, msg.ModelID)
		}
	}

	// Invariant: the upload-on-change protocol keeps each aggregator child
	// down to at most one live pseudo-model at its parent — the deletion
	// always lands before the replacement on the FIFO edge.
	if int(msg.SiteID) > c.sc.NumSites() && len(mods) > 1 {
		c.fail("upload-protocol", fmt.Sprintf("node %d holds %d live pseudo-models for aggregator child %d, want at most 1", node, len(mods), msg.SiteID))
		return
	}

	c.checkNodeMemory(node)
	if int(msg.SiteID) <= c.sc.NumSites() {
		c.checkLeafHop(h, false)
	}
}

// checkNodeMemory is the per-layer Theorem-3 memory bound: the node's
// coordinator must track exactly the live components the checker derived
// from the applied message stream — no leak across deletions, resets or
// recoveries — and its bytes stay within the 2·leaves·per envelope
// (leaf table plus at most one group per leaf), independent of how many
// records the subtree has absorbed.
func (c *treeChecker) checkNodeMemory(node int) {
	if c.violation != nil {
		return
	}
	co := c.dep.NodeCoordinator(node)
	want := c.leaves[node]
	if got := co.NumLeaves(); got != want {
		c.fail("memory-bound", fmt.Sprintf("node %d tracks %d leaf components, but the applied stream registers %d", node, got, want))
		return
	}
	d := c.sc.Dim
	per := 8 * (1 + d + d*(d+1)/2)
	if limit := 2 * want * per; co.MemoryBytes() > limit {
		c.fail("memory-bound", fmt.Sprintf("node %d coordinator holds %d bytes > per-layer bound %d (%d live components)", node, co.MemoryBytes(), limit, want))
	}
}

// checkLeafHop verifies Theorem-2 fit-test soundness across a leaf's
// uplink: the parent can never apply more NewModel messages than the site
// ran refits, more weight updates than reactivations, or any deletion at
// all (tree mode is landmark). final demands exact catch-up.
func (c *treeChecker) checkLeafHop(h hop, final bool) {
	if c.violation != nil {
		return
	}
	st := c.dep.LeafSite(int(h.child) - 1)
	stats := st.Stats()
	if stats.Chunks != stats.Fits+stats.Refits+stats.Reactivated {
		c.fail("conservation", fmt.Sprintf("site %d: %d chunks != %d fits + %d refits + %d reactivated", h.child, stats.Chunks, stats.Fits, stats.Refits, stats.Reactivated))
		return
	}
	// Leaves never crash in tree mode, so their edges live in epoch 1.
	t := c.applied[h][1]
	if t == nil {
		t = &hopTally{}
	}
	if t.deletions > 0 {
		c.fail("fit-soundness", fmt.Sprintf("site %d emitted %d deletions in landmark mode", h.child, t.deletions))
		return
	}
	if t.newModels > stats.Refits {
		c.fail("fit-soundness", fmt.Sprintf("site %d: %d NewModel messages applied but only %d refits ran — a fitting chunk transmitted a model", h.child, t.newModels, stats.Refits))
		return
	}
	if t.weightUpdates > stats.Reactivated {
		c.fail("fit-soundness", fmt.Sprintf("site %d: %d weight updates applied but only %d chunks reactivated a model", h.child, t.weightUpdates, stats.Reactivated))
		return
	}
	if final {
		if t.newModels != stats.Refits {
			c.fail("fit-soundness", fmt.Sprintf("site %d after drain: %d NewModel messages applied != %d refits — an update was lost or double-applied", h.child, t.newModels, stats.Refits))
			return
		}
		if t.weightUpdates != stats.Reactivated {
			c.fail("fit-soundness", fmt.Sprintf("site %d after drain: %d weight updates applied != %d reactivations", h.child, t.weightUpdates, stats.Reactivated))
		}
	}
}

// finalChecks runs after Drain on a violation-free run: nothing pending,
// per-edge byte conservation, the current-epoch entitlement applied
// exactly (at-least-once transport + dedupe = exactly-once per hop), every
// leaf hop caught up, every layer's memory exact, and the root equivalent
// to the flat deployment of the same sites.
func (c *treeChecker) finalChecks() {
	if c.violation != nil {
		return
	}
	if p := c.dep.Pending(); p != 0 {
		c.fail("delivery", fmt.Sprintf("%d payloads still pending in couriers after drain", p))
		return
	}
	for _, es := range c.dep.EdgeStatsAll() {
		if es.WireBytes != es.GoodputBytes+es.DroppedBytes {
			c.fail("conservation", fmt.Sprintf("edge %d->%d: wire %d != goodput %d + dropped %d", es.From, es.To, es.WireBytes, es.GoodputBytes, es.DroppedBytes))
			return
		}
		h := hop{node: es.To, child: int32(es.From)}
		t := c.applied[h][es.Epoch]
		if t == nil {
			t = &hopTally{}
		}
		if t.msgs != es.SentMsgs || t.bytes != es.SentBytes {
			c.fail("delivery", fmt.Sprintf("edge %d->%d epoch %d: applied %d msgs / %d bytes != sent %d msgs / %d bytes after drain",
				es.From, es.To, es.Epoch, t.msgs, t.bytes, es.SentMsgs, es.SentBytes))
			return
		}
	}
	for i := 0; i < c.sc.NumSites(); i++ {
		c.checkLeafHop(hop{node: c.sc.Topology.Leaves[i].Parent, child: int32(i + 1)}, true)
		if c.violation != nil {
			return
		}
	}
	for n := 0; n < c.sc.Topology.NumNodes(); n++ {
		c.checkNodeMemory(n)
		if c.violation != nil {
			return
		}
	}
	root := c.dep.NodeCoordinator(0)
	if math.Round(root.TotalWeight()) != math.Round(c.ref.TotalWeight()) {
		c.fail("schedule-independence", fmt.Sprintf("root record mass %v != flat reference %v", root.TotalWeight(), c.ref.TotalWeight()))
		return
	}
	if diff := mixturesDiff(root.GlobalMixture(), c.ref.GlobalMixture()); diff != "" {
		c.fail("schedule-independence", "root mixture diverged from the flat deployment: "+diff)
	}
}

// gateBand bounds how far, in units of the coordinator's MaxMergeDistance,
// a regrouped component may lie from its counterpart in the other mixture.
const gateBand = 2

// mixturesDiff compares the tree root's global mixture rm against the flat
// reference's fm, returning "" when equivalent. Components are paired one
// to one, in canonical order, with a component of the other mixture that
// agrees in weight, mean and covariance (momentsClose); two identical
// mixtures pair positionally, component by component.
//
// Components left unpaired pass only as a regrouping at the merge gate. An
// aggregator groups its subtree before the root sees it, and the
// coordinator's greedy grouping depends on arrival order, so a component
// whose distance to a group lies near MaxMergeDistance can join it in one
// coordinator and stand apart, or join another group, in the other. Such a
// regrouping is local and moves no mass: every unpaired component must lie
// within gateBand·MaxMergeDistance (CrossMahalanobisSq) of an unpaired
// component of the other mixture, and the unpaired components of each
// mixture must fold to the same moment-preserving merge.
func mixturesDiff(rm, fm *gaussian.Mixture) string {
	if (rm == nil) != (fm == nil) {
		return fmt.Sprintf("root mixture nil=%v, reference nil=%v", rm == nil, fm == nil)
	}
	if rm == nil {
		return ""
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
	// Both coordinators run on the default gate, 4·d.
	limit := gateBand * 4 * float64(rm.Dim())
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
				return fmt.Sprintf("%s component %v (weight %v) regrouped with no counterpart within %v (nearest %v)",
					[2]string{"root", "flat"}[s], c, mix.Weight(i), limit, nearest)
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
		return fmt.Sprintf("regrouped components merge to %v·%v (root) vs %v·%v (flat)", w[0], merged[0], w[1], merged[1])
	}
	return ""
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
