// Package coordinator implements CluDistream's coordinator-site processing
// (Section 5.2 of the paper). The coordinator receives model updates from r
// remote sites and maintains a two-level tree of Gaussian mixture models:
// per-site components (leaves) grouped under merged father nodes. Placement
// uses the transmit-free M_merge criterion (Eq. 5); merged fathers are
// fitted by minimizing the L1 accuracy-loss with downhill simplex; and on
// every update Algorithm 2 re-checks affected components with the
// M_split / M_remerge pair (Eq. 6), splitting drifted components from their
// fathers and re-merging them into the nearest sibling mixture.
package coordinator

import (
	"fmt"
	"math"
	"sort"

	"cludistream/internal/gaussian"
	"cludistream/internal/kdtree"
	"cludistream/internal/site"
	"cludistream/internal/telemetry"
)

// Config parameterizes a Coordinator.
type Config struct {
	// Dim is the data dimensionality.
	Dim int
	// Merge tunes the pairwise merge fitting (simplex budget, samples,
	// MomentOnly ablation).
	Merge gaussian.MergeOptions
	// Telemetry, when non-nil, receives merge/split/re-merge counters and
	// journal events alongside the Stats the experiments already read.
	// Observational only — the tree it describes is bit-identical with or
	// without it.
	Telemetry *telemetry.Registry
}

// MergeGate is the largest CrossMahalanobisSq (the reciprocal of M_merge)
// at which a new d-dimensional component still joins an existing group; a
// component farther than this from every group seeds a new group. It is
// 4·d: means within ~√2 pooled standard deviations merge.
func MergeGate(d int) float64 { return 4 * float64(d) }

func (c Config) withDefaults() Config {
	if c.Merge.Seed == 0 {
		c.Merge.Seed = 1
	}
	return c
}

// indexMinGroups is the group count above which placement queries the k-d
// index over representative means instead of scanning every group (the
// paper's future-work "index structure to accelerate merge and split").
// The index pre-selects the indexCandidates nearest-mean groups and the
// exact M_merge criterion is evaluated on those, so placement only differs
// from the exhaustive scan when the best group is not among the nearest
// means — rare, and bounded by the same MergeGate.
const indexMinGroups = 32

// indexCandidates is how many nearest-mean groups the index hands to the
// exact criterion.
const indexCandidates = 8

// Stats counts coordinator work for the experiments.
type Stats struct {
	UpdatesHandled int
	NewModels      int
	WeightUpdates  int
	Deletions      int
	Splits         int
	Remerges       int
	GroupsCreated  int
	GroupsRemoved  int
	SiteResets     int
	// The sweep's dirty-vs-clean scheduling counts live in telemetry only
	// (coord.remerge_dirty_groups / coord.remerge_clean_groups): they
	// describe how work was scheduled, not what state was reached, and a
	// recovered coordinator legitimately re-schedules more than the
	// original did while reaching the identical tree.
}

// coordTele holds the coordinator's telemetry instruments, resolved once
// at construction; all pointers nil (no-op) when no registry is set.
type coordTele struct {
	reg           *telemetry.Registry
	tracer        *telemetry.Tracer // causal traces; nil unless enabled
	updates       *telemetry.Counter
	newModels     *telemetry.Counter
	weightUpdates *telemetry.Counter
	deletions     *telemetry.Counter
	splits        *telemetry.Counter
	remerges      *telemetry.Counter
	groupsCreated *telemetry.Counter
	groupsRemoved *telemetry.Counter
	siteResets    *telemetry.Counter
	remergeDirty  *telemetry.Counter
	remergeClean  *telemetry.Counter
	// How the merges were scheduled, not what they produced: like the
	// remerge sweep's dirty/clean counts these are telemetry only, because a
	// recovered coordinator starts with a cold memo and reaches the same tree.
	mergeFits   *telemetry.Counter
	memoHits    *telemetry.Counter
	memoEntries *telemetry.Gauge
	groups      *telemetry.Gauge
	leaves      *telemetry.Gauge
	mixtureVer  *telemetry.Gauge
}

// setSizes publishes the current group/leaf population after a handled
// message (nil-safe; no-op without a registry).
func (t coordTele) setSizes(groups, leaves int) {
	t.groups.Set(float64(groups))
	t.leaves.Set(float64(leaves))
}

func newCoordTele(reg *telemetry.Registry) coordTele {
	if reg == nil {
		return coordTele{}
	}
	return coordTele{
		reg:           reg,
		tracer:        reg.Tracer(),
		updates:       reg.Counter("coord.updates_handled"),
		newModels:     reg.Counter("coord.new_models"),
		weightUpdates: reg.Counter("coord.weight_updates"),
		deletions:     reg.Counter("coord.deletions"),
		splits:        reg.Counter("coord.splits"),
		remerges:      reg.Counter("coord.remerges"),
		groupsCreated: reg.Counter("coord.groups_created"),
		groupsRemoved: reg.Counter("coord.groups_removed"),
		siteResets:    reg.Counter("coord.site_resets"),
		remergeDirty:  reg.Counter("coord.remerge_dirty_groups"),
		remergeClean:  reg.Counter("coord.remerge_clean_groups"),
		mergeFits:     reg.Counter("coord.merge_fits"),
		memoHits:      reg.Counter("coord.merge_memo_hits"),
		memoEntries:   reg.Gauge("coord.merge_memo_entries"),
		groups:        reg.Gauge("coord.groups"),
		leaves:        reg.Gauge("coord.leaves"),
		mixtureVer:    reg.Gauge("coord.mixture_version"),
	}
}

// siteModel tracks one registered remote-site model and its record counter.
type siteModel struct {
	siteID  int
	modelID int
	mix     *gaussian.Mixture
	counter int
}

// Coordinator is the central site.
type Coordinator struct {
	cfg    Config
	groups []*Group // insertion order; compacted in place
	byID   map[int]*Group
	nextID int
	// index holds representative means for accelerated placement, consulted
	// once there are indexMin (= indexMinGroups) groups; the placement
	// parity tests lower indexMin, or raise it to force exhaustive scans.
	index    *kdtree.Tree
	indexMin int

	models map[int]map[int]*siteModel // siteID → modelID → model
	// location maps each leaf to the id of the group holding it.
	location map[MemberKey]int

	// dirty holds ids of groups whose membership or representative changed
	// since their last stability sweep. sweepAll makes every sweep visit
	// every group instead: the oracle of the dirty-tracking parity tests.
	dirty    map[int]struct{}
	sweepAll bool
	// sweepGen numbers stability sweeps; member.checked carries the last
	// sweep that evaluated the member.
	sweepGen uint64
	// hasEmpty records that some group may have been emptied, so compact's
	// O(groups) scan runs only when it can find something to drop.
	hasEmpty bool
	// workScratch/keysScratch are sweep workspaces, reused across updates.
	workScratch []int
	keysScratch []MemberKey

	// merge is memoMerge, the remembered pair merge every representative is
	// folded with; memoCur/memoOld are its two generations of at most
	// memoLimit (= memoGeneration) entries. The parity tests swap merge for
	// the unremembered gaussian.FitMerge and shrink memoLimit.
	merge            pairMerge
	memoLimit        int
	memoCur, memoOld map[mergeKey]mergeVal

	// Trace context of the message being handled (zeros when untraced):
	// installed from the update itself or via SetTraceContext, cleared by
	// finishApply. mixtureVer numbers successfully applied mutations of
	// the global mixture — the "global visibility" marker of the freshness
	// SLO (apply→global-mixture-version lag).
	curTrace   uint64
	curParent  uint64
	mixtureVer uint64

	stats Stats
	tele  coordTele
}

// New constructs a Coordinator for streams of the given dimensionality.
func New(cfg Config) (*Coordinator, error) {
	if cfg.Dim < 1 {
		return nil, fmt.Errorf("coordinator: Dim = %d", cfg.Dim)
	}
	cfg = cfg.withDefaults()
	c := &Coordinator{
		cfg:      cfg,
		byID:     make(map[int]*Group),
		nextID:   1,
		index:    kdtree.New(cfg.Dim),
		indexMin: indexMinGroups,
		models:   make(map[int]map[int]*siteModel),
		location: make(map[MemberKey]int),
		dirty:    make(map[int]struct{}),
		tele:     newCoordTele(cfg.Telemetry),

		memoLimit: memoGeneration,
		memoCur:   make(map[mergeKey]mergeVal, memoGeneration),
	}
	c.merge = c.memoMerge
	return c, nil
}

// SetTraceContext installs the causal trace context of the next handled
// message. Callers that route messages without a site.Update in hand
// (deletions, the delivery layers) set it immediately before the Handle*
// call; HandleUpdate reads the context off the update itself. The context
// is cleared when the handle finishes. The coordinator is driven
// single-threaded by its delivery layer (the facade's simulator loop or
// the netio server's apply lock), so a plain field is safe.
func (c *Coordinator) SetTraceContext(traceID, parentSpan uint64) {
	c.curTrace, c.curParent = traceID, parentSpan
}

// beginApply opens the "apply" span for the message being handled and
// re-parents deeper spans (the remerge sweep) under it.
func (c *Coordinator) beginApply(siteID, modelID int) telemetry.SpanRef {
	span := c.tele.tracer.Begin(c.curTrace, c.curParent, "apply", siteID, modelID)
	if _, sid := span.Context(); sid != 0 {
		c.curParent = sid
	}
	return span
}

// finishApply closes an apply span and clears the trace context. On
// success the global mixture version advances and — when the message was
// traced — the trace is marked globally visible, feeding the
// decision→apply and apply→visible freshness histograms.
func (c *Coordinator) finishApply(span telemetry.SpanRef, err error) {
	trace := c.curTrace
	c.curTrace, c.curParent = 0, 0
	if err != nil {
		span.End(0, "error")
		return
	}
	c.mixtureVer++
	c.tele.mixtureVer.Set(float64(c.mixtureVer))
	span.End(int(c.mixtureVer), "")
	if tr := c.tele.tracer; tr != nil && trace != 0 {
		tr.CompleteVisible(trace, span.Start(), tr.Now())
	}
}

// HandleUpdate applies one site update (Algorithm 2's trigger: "if remote
// site r_i updated").
func (c *Coordinator) HandleUpdate(u site.Update) error {
	if u.TraceID != 0 {
		c.curTrace, c.curParent = u.TraceID, u.SpanID
	}
	span := c.beginApply(u.SiteID, u.ModelID)
	c.stats.UpdatesHandled++
	c.tele.updates.Inc()
	defer c.tele.setSizes(len(c.groups), len(c.location))
	var err error
	switch u.Kind {
	case site.NewModel:
		err = c.handleNewModel(u)
	case site.WeightUpdate:
		err = c.handleWeightUpdate(u)
	default:
		err = fmt.Errorf("coordinator: unknown update kind %v", u.Kind)
		c.finishApply(span, err)
		return err
	}
	c.finishApply(span, err)
	return err
}

func (c *Coordinator) handleNewModel(u site.Update) error {
	if u.Mixture == nil {
		return fmt.Errorf("coordinator: NewModel update from site %d without mixture", u.SiteID)
	}
	if u.Mixture.Dim() != c.cfg.Dim {
		return fmt.Errorf("coordinator: site %d model dim %d, want %d", u.SiteID, u.Mixture.Dim(), c.cfg.Dim)
	}
	byModel := c.models[u.SiteID]
	if byModel == nil {
		byModel = make(map[int]*siteModel)
		c.models[u.SiteID] = byModel
	}
	if _, dup := byModel[u.ModelID]; dup {
		return fmt.Errorf("coordinator: duplicate model %d from site %d", u.ModelID, u.SiteID)
	}
	sm := &siteModel{siteID: u.SiteID, modelID: u.ModelID, mix: u.Mixture, counter: u.Count}
	byModel[u.ModelID] = sm
	c.stats.NewModels++
	c.tele.newModels.Inc()
	c.tele.reg.Record(telemetry.Event{
		Kind: "new-model", Site: u.SiteID, Model: u.ModelID, N: u.Count,
	})

	for j := 0; j < sm.mix.K(); j++ {
		key := MemberKey{SiteID: u.SiteID, ModelID: u.ModelID, Comp: j}
		m := &member{
			key:    key,
			comp:   sm.mix.Component(j),
			weight: sm.mix.Weight(j) * float64(sm.counter),
		}
		c.place(m)
	}
	c.stabilize()
	return nil
}

func (c *Coordinator) handleWeightUpdate(u site.Update) error {
	sm := c.lookup(u.SiteID, u.ModelID)
	if sm == nil {
		return fmt.Errorf("coordinator: weight update for unknown model %d of site %d", u.ModelID, u.SiteID)
	}
	c.stats.WeightUpdates++
	c.tele.weightUpdates.Inc()
	return c.shiftWeight(sm, u.Count)
}

// HandleDeletion applies a negative-weight message (Section 7, sliding
// windows): count records of the given site model expired from the window.
// When the model's counter reaches zero its components leave the tree.
func (c *Coordinator) HandleDeletion(siteID, modelID, count int) error {
	span := c.beginApply(siteID, modelID)
	sm := c.lookup(siteID, modelID)
	if sm == nil {
		err := fmt.Errorf("coordinator: deletion for unknown model %d of site %d", modelID, siteID)
		c.finishApply(span, err)
		return err
	}
	c.stats.Deletions++
	c.tele.deletions.Inc()
	defer c.tele.setSizes(len(c.groups), len(c.location))
	err := c.shiftWeight(sm, -count)
	c.finishApply(span, err)
	return err
}

// ResetSite discards every model registered by the given site, removing
// its leaves from the tree. The fault-tolerant delivery layer calls it
// when a site returns with a higher epoch: state from the dead
// incarnation must not double-count records the restarted site will
// re-report. Unknown sites are a no-op.
func (c *Coordinator) ResetSite(siteID int) {
	byModel := c.models[siteID]
	if byModel == nil {
		return
	}
	for _, sm := range byModel {
		for j := 0; j < sm.mix.K(); j++ {
			c.removeLeaf(MemberKey{SiteID: sm.siteID, ModelID: sm.modelID, Comp: j})
		}
	}
	delete(c.models, siteID)
	c.stabilize()
	c.stats.SiteResets++
	c.tele.siteResets.Inc()
	c.tele.reg.Record(telemetry.Event{Kind: "site-reset", Site: siteID})
}

// shiftWeight adjusts a model's counter and propagates the new absolute
// weights to the model's leaves, then runs the Algorithm-2 check.
func (c *Coordinator) shiftWeight(sm *siteModel, delta int) error {
	sm.counter += delta
	if sm.counter <= 0 {
		// "The model is deleted from the model list if its weight becomes
		// non-positive."
		for j := 0; j < sm.mix.K(); j++ {
			key := MemberKey{SiteID: sm.siteID, ModelID: sm.modelID, Comp: j}
			c.removeLeaf(key)
		}
		delete(c.models[sm.siteID], sm.modelID)
		// The departures changed representatives of the surviving groups;
		// re-check them.
		c.stabilize()
		return nil
	}
	for j := 0; j < sm.mix.K(); j++ {
		key := MemberKey{SiteID: sm.siteID, ModelID: sm.modelID, Comp: j}
		g := c.groupOf(key)
		if g == nil {
			continue
		}
		i := g.find(key)
		m := g.members[i]
		newW := sm.mix.Weight(j) * float64(sm.counter)
		g.weight += newW - m.weight
		m.weight = newW
	}
	// Weights changed every father containing a leaf of this model;
	// refresh their representatives and re-check stability.
	c.refreshModelGroups(sm)
	c.stabilize()
	return nil
}

// refreshModelGroups recomputes representatives of all groups touching sm.
func (c *Coordinator) refreshModelGroups(sm *siteModel) {
	seen := map[int]bool{}
	for j := 0; j < sm.mix.K(); j++ {
		key := MemberKey{SiteID: sm.siteID, ModelID: sm.modelID, Comp: j}
		if g := c.groupOf(key); g != nil && !seen[g.id] {
			seen[g.id] = true
			c.refreshGroup(g)
		}
	}
	c.compact()
}

// place inserts a leaf into the group with the largest M_merge against the
// group representative, or seeds a new group when every group is farther
// than MergeGate. From indexMinGroups groups on, the k-d index
// pre-selects the nearest-mean candidates and the exact criterion is
// evaluated on those only.
func (c *Coordinator) place(m *member) {
	var best *Group
	bestDist := math.Inf(1)
	for _, g := range c.candidates(m) {
		if g == nil || g.rep == nil {
			continue
		}
		d := gaussian.CrossMahalanobisSq(m.comp, g.rep)
		if d < bestDist {
			best, bestDist = g, d
		}
	}
	if best == nil || bestDist > MergeGate(c.cfg.Dim) {
		g := &Group{id: c.nextID}
		c.nextID++
		c.stats.GroupsCreated++
		c.tele.groupsCreated.Inc()
		g.insert(m)
		c.refreshGroup(g)
		m.mremergeAtJoin = math.Inf(1) // own group: perfectly stable
		c.groups = append(c.groups, g)
		c.byID[g.id] = g
		c.location[m.key] = g.id
		return
	}
	m.mremergeAtJoin = 1 / bestDist
	best.insert(m)
	c.refreshGroup(best)
	c.location[m.key] = best.id
	c.stats.Remerges++
	c.tele.remerges.Inc()
}

// candidates returns the groups to evaluate for placement: all of them
// below the index threshold, otherwise the nearest-mean short list.
func (c *Coordinator) candidates(m *member) []*Group {
	if len(c.groups) < c.indexMin {
		return c.groups
	}
	nbs := c.index.NearestK(m.comp.Mean(), indexCandidates)
	out := make([]*Group, 0, len(nbs))
	for _, nb := range nbs {
		out = append(out, c.byID[nb.ID])
	}
	return out
}

// refreshGroup recomputes a group's representative and keeps the index in
// sync with the new mean. Every membership or weight mutation funnels
// through here, so it is also the single point where groups are marked
// dirty for the incremental stability sweep.
func (c *Coordinator) refreshGroup(g *Group) {
	g.recomputeRep(c.merge)
	c.dirty[g.id] = struct{}{}
	if g.Size() == 0 {
		c.hasEmpty = true
	}
	if g.rep == nil {
		c.index.Remove(g.id)
		return
	}
	c.index.Insert(g.id, g.rep.Mean())
}

// stabilize is Algorithm 2's stability pass, run after every update: sweep
// every dirty group, in ascending id order, re-checking its members'
// M_split/M_remerge stability and re-merging the ones that drifted. Clean
// groups are skipped: a member's split criterion depends only on its own
// component, its frozen M_remerge reference and the group representative,
// none of which can change without the group being marked dirty, so a
// clean group had every member verified stable against a representative
// that has not changed since, and checking it again cannot do anything.
// The worklist is fixed at sweep start; groups dirtied during the sweep —
// by splits landing elsewhere, or by this sweep's own mutations — are
// deferred to the next update's sweep, which keeps each sweep bounded and
// makes the dirty sweep provably equivalent to sweeping every group
// (sweepAll, the test oracle).
func (c *Coordinator) stabilize() {
	span := c.tele.tracer.Begin(c.curTrace, c.curParent, "remerge", 0, 0)
	c.sweepGen++
	work := c.workScratch[:0]
	if c.sweepAll {
		for _, g := range c.groups {
			work = append(work, g.id)
		}
	} else {
		for id := range c.dirty {
			work = append(work, id)
		}
	}
	sort.Ints(work)
	for id := range c.dirty {
		delete(c.dirty, id)
	}
	total := len(c.groups)
	swept := 0
	for _, id := range work {
		g := c.byID[id]
		if g == nil {
			continue // compacted away before its turn
		}
		swept++
		c.checkGroup(g)
	}
	c.workScratch = work[:0]
	c.tele.remergeDirty.Add(int64(swept))
	c.tele.remergeClean.Add(int64(total - swept))
	c.compact()
	span.End(swept, "")
}

// checkGroup re-evaluates one group's members against its representative,
// splitting and re-placing any that drifted (Algorithm 2's body). Members
// already evaluated by this sweep — they split out of an earlier group and
// landed here — are skipped and the group stays dirty, so the next sweep
// finishes the job; this caps every sweep at one check per member.
func (c *Coordinator) checkGroup(g *Group) {
	keys := c.keysScratch[:0]
	for _, m := range g.members {
		keys = append(keys, m.key)
	}
	c.keysScratch = keys[:0]
	skipped := false
	for _, key := range keys {
		if g.Size() <= 1 {
			break
		}
		i := g.find(key)
		if i < 0 {
			continue
		}
		m := g.members[i]
		if m.checked == c.sweepGen {
			skipped = true
			continue
		}
		m.checked = c.sweepGen
		msplit := gaussian.MSplitComp(m.comp, g.rep)
		if msplit <= 1/m.mremergeAtJoin {
			continue // stable
		}
		c.stats.Splits++
		c.tele.splits.Inc()
		c.tele.reg.Record(telemetry.Event{
			Kind: "split", Site: key.SiteID, Model: key.ModelID, Value: msplit, N: key.Comp,
		})
		g.remove(i)
		c.refreshGroup(g)
		delete(c.location, key)
		c.place(m)
	}
	if skipped {
		c.dirty[g.id] = struct{}{}
	}
}

// removeLeaf deletes a leaf from its group entirely.
func (c *Coordinator) removeLeaf(key MemberKey) {
	g := c.groupOf(key)
	if g == nil {
		return
	}
	if i := g.find(key); i >= 0 {
		g.remove(i)
		c.refreshGroup(g)
	}
	delete(c.location, key)
	c.compact()
}

// compact drops empty groups. The scan is skipped entirely unless some
// group was actually emptied since the last compaction (refreshGroup
// tracks that), which turns the historical O(groups)-per-update cost into
// a no-op on the common path — removals are the only way to empty a group,
// so skipping the scan when none happened is identical by construction.
func (c *Coordinator) compact() {
	if !c.hasEmpty {
		return
	}
	c.hasEmpty = false
	out := c.groups[:0]
	for _, g := range c.groups {
		if g.Size() > 0 {
			out = append(out, g)
			continue
		}
		c.stats.GroupsRemoved++
		c.tele.groupsRemoved.Inc()
		delete(c.byID, g.id)
		delete(c.dirty, g.id)
		c.index.Remove(g.id)
	}
	c.groups = out
}

func (c *Coordinator) lookup(siteID, modelID int) *siteModel {
	if byModel := c.models[siteID]; byModel != nil {
		return byModel[modelID]
	}
	return nil
}

func (c *Coordinator) groupOf(key MemberKey) *Group {
	id, ok := c.location[key]
	if !ok {
		return nil
	}
	return c.byID[id]
}

// Groups returns the current father nodes, ordered by id.
func (c *Coordinator) Groups() []*Group {
	out := append([]*Group(nil), c.groups...)
	sort.Slice(out, func(a, b int) bool { return out[a].id < out[b].id })
	return out
}

// GlobalMixture returns the coordinator's answer to a mining request: the
// mixture of group representatives weighted by group mass. Returns nil
// before any model has arrived.
//
// The components are ordered canonically — by mean, then covariance, then
// weight — not by group ID. Group IDs depend on the coordinator's
// history (splits, site resets), while the canonical order depends only
// on the tree's final content; since mixture normalization sums the
// weights in slice order, canonical ordering is what makes two
// coordinators that converged to the same groups return bit-identical
// mixtures (the recovery guarantee the chaos and simulation tests pin).
// Means lead the sort because they are the stable coordinate: group
// weights drift with every update, and an order keyed on them would make
// successive snapshots of an unchanged clustering positionally different
// (which the hierarchy layer's change detection would mistake for churn).
func (c *Coordinator) GlobalMixture() *gaussian.Mixture {
	type entry struct {
		weight float64
		comp   *gaussian.Component
	}
	var entries []entry
	for _, g := range c.Groups() {
		if g.rep == nil || g.weight <= 0 {
			continue
		}
		entries = append(entries, entry{g.weight, g.rep})
	}
	if len(entries) == 0 {
		return nil
	}
	sort.Slice(entries, func(a, b int) bool {
		ea, eb := entries[a], entries[b]
		ma, mb := ea.comp.Mean(), eb.comp.Mean()
		for i := range ma {
			if ma[i] != mb[i] {
				return ma[i] < mb[i]
			}
		}
		ca, cb := ea.comp.Cov(), eb.comp.Cov()
		for i := 0; i < ca.Order(); i++ {
			for j := 0; j <= i; j++ {
				if ca.At(i, j) != cb.At(i, j) {
					return ca.At(i, j) < cb.At(i, j)
				}
			}
		}
		return ea.weight < eb.weight
	})
	comps := make([]*gaussian.Component, len(entries))
	weights := make([]float64, len(entries))
	for i, e := range entries {
		comps[i] = e.comp
		weights[i] = e.weight
	}
	mix, err := gaussian.NewMixture(weights, comps)
	if err != nil {
		return nil
	}
	return mix
}

// FlatMixture returns the naive union of all leaf components (the "combine
// all Gaussian models from each site directly" strategy the paper rejects
// as non-scalable). Kept as the merge ablation baseline.
func (c *Coordinator) FlatMixture() *gaussian.Mixture {
	var comps []*gaussian.Component
	var weights []float64
	for _, g := range c.Groups() {
		for _, m := range g.members {
			if m.weight <= 0 {
				continue
			}
			comps = append(comps, m.comp)
			weights = append(weights, m.weight)
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

// NumLeaves returns the number of leaf components in the tree.
func (c *Coordinator) NumLeaves() int { return len(c.location) }

// NumModels returns the number of registered site models.
func (c *Coordinator) NumModels() int {
	var n int
	for _, byModel := range c.models {
		n += len(byModel)
	}
	return n
}

// ModelWeight is one registered site model and its record counter — the
// observable the exactly-once invariant compares against a reference
// replay: a double-applied weight update shows up here immediately.
type ModelWeight struct {
	SiteID  int
	ModelID int
	Counter int
}

// ModelWeights returns every registered site model with its counter,
// sorted by (site, model) so the result is deterministic regardless of
// map iteration order.
func (c *Coordinator) ModelWeights() []ModelWeight {
	out := make([]ModelWeight, 0, c.NumModels())
	for _, byModel := range c.models {
		for _, sm := range byModel {
			out = append(out, ModelWeight{SiteID: sm.siteID, ModelID: sm.modelID, Counter: sm.counter})
		}
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].SiteID != out[b].SiteID {
			return out[a].SiteID < out[b].SiteID
		}
		return out[a].ModelID < out[b].ModelID
	})
	return out
}

// MixtureVersion returns the number of successfully applied mutations of
// the global mixture (updates and deletions) — the version the freshness
// SLO's apply→visible lag is measured against.
func (c *Coordinator) MixtureVersion() uint64 { return c.mixtureVer }

// TotalWeight returns the total record mass across all groups — the
// absolute weight behind GlobalMixture's normalized weights. The query
// tier's shard-reduce layer uses it to mass-weight shard snapshots.
func (c *Coordinator) TotalWeight() float64 {
	var total float64
	for _, g := range c.groups {
		if g.weight > 0 {
			total += g.weight
		}
	}
	return total
}

// Dim returns the record dimensionality every model must have.
func (c *Coordinator) Dim() int { return c.cfg.Dim }

// Stats returns a copy of the work counters.
func (c *Coordinator) Stats() Stats { return c.stats }

// MemoryBytes estimates coordinator memory: every leaf plus every group
// representative at (1 + d + d(d+1)/2) floats each.
func (c *Coordinator) MemoryBytes() int {
	d := c.cfg.Dim
	per := 8 * (1 + d + d*(d+1)/2)
	return (c.NumLeaves() + len(c.groups)) * per
}
