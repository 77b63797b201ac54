package tree

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"

	"cludistream/internal/coordinator"
	"cludistream/internal/durable"
	"cludistream/internal/gaussian"
	"cludistream/internal/hier"
	"cludistream/internal/linalg"
	"cludistream/internal/netsim"
	"cludistream/internal/persist"
	"cludistream/internal/site"
	"cludistream/internal/telemetry"
	"cludistream/internal/transport"
)

// ErrRecoveryMismatch reports that a recovered aggregator's state is not
// bit-identical to its pre-crash state (surfaced by Config.SelfCheck).
var ErrRecoveryMismatch = errors.New("tree: recovered node state differs from pre-crash state")

// CrashSpec schedules one interior-node crash: at Start the node's durable
// store is cut off mid-write, its uplink retransmission queue dies with the
// process, and arrivals are lost until End, when the node recovers from
// checkpoint + WAL and rejoins its parent under a bumped epoch.
type CrashSpec struct {
	Node  int     `json:"node"` // internal node index (0 = root)
	Start float64 `json:"start"`
	End   float64 `json:"end"`
}

// Config parameterizes a Deployment.
type Config struct {
	Topology Topology
	// Site is the per-leaf template; SiteID and Seed are assigned per leaf
	// (SiteID 1..NumSites, Seed derived from Config.Seed).
	Site site.Config
	// Coord is the per-internal-node coordinator template.
	Coord coordinator.Config
	// Seed drives leaf seeds and all per-edge fault randomness.
	Seed int64
	// ArrivalRate is records/second per site on the virtual clock
	// (default 1000).
	ArrivalRate float64

	// WeightTol/MeanTol tune each aggregator's upload-on-change detection
	// (zero = the aggd defaults 0.05/0.25); ExactSync forces bit-level
	// change detection, which DST uses so every hop replicates faithfully.
	WeightTol, MeanTol float64
	ExactSync          bool

	// DropProb/DupProb inject iid loss and duplicate delivery on every
	// edge; NodeOutages adds partition windows during which nothing
	// reaches the given internal node (state intact — distinct from
	// Crashes, which lose in-memory state and recover from disk).
	DropProb, DupProb float64
	NodeOutages       map[int][]netsim.Outage
	// RetryBackoff/RetryMaxBackoff shape courier retransmission (defaults
	// 0.05/2.0 simulated seconds).
	RetryBackoff, RetryMaxBackoff float64

	// Crashes schedules interior-node crash/recovery through the durable
	// path; StateDir must be set when Crashes is non-empty. Only crashing
	// nodes pay for a durable store.
	Crashes         []CrashSpec
	StateDir        string
	CheckpointEvery int
	Fsync           persist.FsyncMode
	// SelfCheck byte-compares pre-crash vs recovered state on every
	// recovery (requires Fsync always, the default).
	SelfCheck bool

	Telemetry *telemetry.Registry
	// OnApply observes every message applied at an internal node, after
	// the dedupe verdict admitted it — the DST per-layer invariant hook.
	OnApply func(node int, msg transport.Message)
	// OnEmit observes every update a leaf site emits, before transport —
	// DST tees these into a flat reference coordinator.
	OnEmit func(leafID int, u site.Update)
}

// edge is one directed uplink: child (a leaf or an aggregator) → internal
// node, carrying versioned frames through an exactly-once courier.
type edge struct {
	fromID int // wire SiteID of the sender
	toNode int
	link   *netsim.Link
	cour   *netsim.Courier
	epoch  uint32
	seq    uint64
	// sent is the per-epoch sender-side entitlement at exact wire sizes:
	// what the receiver applies can never exceed it, and must equal the
	// current epoch's tally once the deployment drains.
	sent map[uint32]*SendTally
}

// SendTally is one epoch's sender-side message/byte entitlement.
type SendTally struct {
	Msgs  int
	Bytes int
}

func (e *edge) tally() *SendTally {
	t := e.sent[e.epoch]
	if t == nil {
		t = &SendTally{}
		e.sent[e.epoch] = t
	}
	return t
}

type node struct {
	idx      int
	pseudoID int // sender id at its parent (0 for the root)
	depth    int
	// recv is the node's receive step; its Store is nil unless this node
	// has scheduled crashes.
	recv     durable.Receiver
	stateDir string
	mirror   *hier.UploadMirror // nil for the root
	up       *edge              // nil for the root
	crashed  bool
	preCrash []byte // SelfCheck state snapshot taken at crash time
}

type leafNode struct {
	st  *site.Site
	up  *edge
	fed int
}

// RecoveryStats aggregates crash/recovery accounting across all nodes.
type RecoveryStats struct {
	Restarts        int
	RecordsReplayed int
	TornBytes       int
}

// Deployment is a live tree on the virtual clock.
type Deployment struct {
	cfg    Config
	sim    *netsim.Simulator
	nodes  []*node
	leaves []*leafNode
	order  []*node // internal nodes, deepest first (final-sync order)

	recov       RecoveryStats
	deliveryErr error
}

// NewDeployment validates the configuration and builds the tree: leaves
// are real site processors, internal nodes are real coordinators with
// upload mirrors, edges are faulty netsim links behind couriers.
func NewDeployment(cfg Config) (*Deployment, error) {
	if err := cfg.Topology.Validate(); err != nil {
		return nil, err
	}
	if cfg.ArrivalRate <= 0 {
		cfg.ArrivalRate = 1000
	}
	if cfg.RetryBackoff <= 0 {
		cfg.RetryBackoff = 0.05
	}
	if cfg.RetryMaxBackoff <= 0 {
		cfg.RetryMaxBackoff = 2.0
	}
	if cfg.Fsync == "" {
		cfg.Fsync = persist.FsyncAlways
	}
	if cfg.SelfCheck && cfg.Fsync != persist.FsyncAlways {
		return nil, fmt.Errorf("tree: SelfCheck requires Fsync %q, got %q", persist.FsyncAlways, cfg.Fsync)
	}
	crashing := map[int][]netsim.Outage{}
	for i, c := range cfg.Crashes {
		if c.Node < 0 || c.Node >= cfg.Topology.NumNodes() {
			return nil, fmt.Errorf("tree: crash %d targets node %d of %d", i, c.Node, cfg.Topology.NumNodes())
		}
		if !(c.End > c.Start) || c.Start < 0 {
			return nil, fmt.Errorf("tree: crash %d window [%v, %v)", i, c.Start, c.End)
		}
		crashing[c.Node] = append(crashing[c.Node], netsim.Outage{Start: c.Start, End: c.End})
	}
	if len(crashing) > 0 && cfg.StateDir == "" {
		return nil, fmt.Errorf("tree: Crashes need a StateDir for the durable stores")
	}

	d := &Deployment{cfg: cfg, sim: netsim.NewSimulator()}
	topo := &cfg.Topology

	// Internal nodes. A node's arrivals are lost during its partition and
	// crash windows; only crash-scheduled nodes open a durable store.
	for n := 0; n < topo.NumNodes(); n++ {
		nd := &node{
			idx:      n,
			depth:    topo.NodeDepth(n),
			pseudoID: pseudoSiteID(topo, n),
		}
		if _, willCrash := crashing[n]; willCrash {
			nd.stateDir = filepath.Join(cfg.StateDir, fmt.Sprintf("node%d", n))
			store, rec, err := durable.Open(nd.stateDir, cfg.Coord, d.storeOptions())
			if err != nil {
				return nil, err
			}
			nd.recv = durable.Receiver{Coord: rec.Coord, Dedupe: rec.Dedupe, Store: store}
		} else {
			coord, err := coordinator.New(cfg.Coord)
			if err != nil {
				return nil, err
			}
			nd.recv = durable.Receiver{Coord: coord, Dedupe: durable.NewDedupe()}
		}
		if cfg.OnApply != nil {
			nd.recv.OnApply = func(msg transport.Message, _ durable.Verdict) { cfg.OnApply(n, msg) }
		}
		if n > 0 {
			nd.mirror = &hier.UploadMirror{
				NodeID:    nd.pseudoID,
				WeightTol: cfg.WeightTol,
				MeanTol:   cfg.MeanTol,
				Exact:     cfg.ExactSync,
			}
			if nd.mirror.WeightTol == 0 {
				nd.mirror.WeightTol = 0.05
			}
			if nd.mirror.MeanTol == 0 {
				nd.mirror.MeanTol = 0.25
			}
		}
		d.nodes = append(d.nodes, nd)
	}

	// Receiver-side fault windows: partitions plus crash windows.
	outages := func(n int) []netsim.Outage {
		return append(append([]netsim.Outage(nil), cfg.NodeOutages[n]...), crashing[n]...)
	}

	// Aggregator uplinks.
	edgeOrdinal := 0
	for n := 1; n < topo.NumNodes(); n++ {
		spec := topo.Aggs[n-1]
		e, err := d.newEdge(d.nodes[n].pseudoID, spec.Parent, spec.Link, outages(spec.Parent), edgeOrdinal)
		if err != nil {
			return nil, err
		}
		d.nodes[n].up = e
		edgeOrdinal++
	}
	// Leaves and their uplinks.
	for i, spec := range topo.Leaves {
		sc := cfg.Site
		sc.SiteID = i + 1
		sc.Seed = cfg.Seed + int64(i+1)*7919
		st, err := site.New(sc)
		if err != nil {
			return nil, err
		}
		e, err := d.newEdge(sc.SiteID, spec.Parent, spec.Link, outages(spec.Parent), edgeOrdinal)
		if err != nil {
			return nil, err
		}
		d.leaves = append(d.leaves, &leafNode{st: st, up: e})
		edgeOrdinal++
	}

	// Deepest-first node order for final sync rounds.
	d.order = append([]*node(nil), d.nodes...)
	for i := 1; i < len(d.order); i++ {
		for j := i; j > 0 && d.order[j].depth > d.order[j-1].depth; j-- {
			d.order[j], d.order[j-1] = d.order[j-1], d.order[j]
		}
	}

	// Crash/recovery schedule.
	for _, c := range cfg.Crashes {
		nd := d.nodes[c.Node]
		d.sim.ScheduleAt(c.Start, func() { d.crashNode(nd) })
		d.sim.ScheduleAt(c.End, func() { d.recoverNode(nd) })
	}
	return d, nil
}

// pseudoSiteID returns the wire id internal node n presents to its parent:
// leaf sites own 1..NumSites, aggregators follow.
func pseudoSiteID(topo *Topology, n int) int {
	if n == 0 {
		return 0
	}
	return topo.NumSites() + n
}

func (d *Deployment) storeOptions() durable.Options {
	return durable.Options{
		CheckpointEvery: d.cfg.CheckpointEvery,
		Fsync:           d.cfg.Fsync,
		Telemetry:       d.cfg.Telemetry,
		Logf:            func(string, ...any) {},
	}
}

func (d *Deployment) newEdge(fromID, toNode int, spec LinkSpec, outages []netsim.Outage, ordinal int) (*edge, error) {
	e := &edge{fromID: fromID, toNode: toNode, epoch: 1, sent: map[uint32]*SendTally{}}
	var plan *netsim.FaultPlan
	if d.cfg.DropProb > 0 || d.cfg.DupProb > 0 || len(outages) > 0 {
		plan = &netsim.FaultPlan{
			DropProb: d.cfg.DropProb,
			DupProb:  d.cfg.DupProb,
			Outages:  outages,
		}
		if plan.DropProb > 0 || plan.DupProb > 0 {
			plan.Rand = rand.New(rand.NewSource(d.cfg.Seed*31 + int64(ordinal)*1000003 + 7))
		}
	}
	link, err := d.sim.NewFaultyLink(spec.Latency, spec.Bandwidth, plan, func(payload []byte) {
		d.deliver(e, payload)
	})
	if err != nil {
		return nil, err
	}
	link.SetTelemetry(d.cfg.Telemetry)
	cour, err := d.sim.NewCourier(link, d.cfg.RetryBackoff, d.cfg.RetryMaxBackoff,
		rand.New(rand.NewSource(d.cfg.Seed*17+int64(ordinal)*999983+3)))
	if err != nil {
		return nil, err
	}
	cour.SetTelemetry(d.cfg.Telemetry)
	e.link, e.cour = link, cour
	return e, nil
}

// send stamps the next (epoch, seq) on msg, charges the sender-side
// entitlement, and hands the frame to the edge's courier.
func (d *Deployment) send(e *edge, msg transport.Message) {
	e.seq++
	msg.Seq = e.seq
	msg.Epoch = e.epoch
	msg.SiteID = int32(e.fromID)
	payload := transport.Encode(msg)
	t := e.tally()
	t.Msgs++
	t.Bytes += len(payload)
	e.cour.Send(payload)
}

// deliver is every edge's receive path: the receive step (WAL append on
// crashing nodes, dedupe, epoch reset, apply, observe, checkpoint), then
// upload-on-change toward the parent. OnApply observes a message even when
// its apply was rejected — a rejected duplicate is exactly what the DST
// shadow dedupe wants to pin, matching the facade's OnApply semantics.
func (d *Deployment) deliver(e *edge, payload []byte) {
	if d.deliveryErr != nil {
		return
	}
	n := d.nodes[e.toNode]
	if n.crashed {
		// A duplicate delivery scheduled before the crash window can land
		// inside it: the process is down, the frame dies at the socket.
		return
	}
	msg, err := transport.Decode(payload)
	if err != nil {
		d.deliveryErr = fmt.Errorf("tree: node %d decode: %w", n.idx, err)
		return
	}
	res := n.recv.Receive(payload, msg)
	switch {
	case res.AppendErr != nil:
		d.deliveryErr = fmt.Errorf("tree: node %d WAL append: %w", n.idx, res.AppendErr)
	case res.ApplyErr != nil:
		d.deliveryErr = fmt.Errorf("tree: node %d apply: %w", n.idx, res.ApplyErr)
	case res.CheckpointErr != nil:
		d.deliveryErr = fmt.Errorf("tree: node %d checkpoint: %w", n.idx, res.CheckpointErr)
	case !res.Verdict.Dropped():
		d.syncUp(n)
	}
}

// syncUp runs the node's upload-on-change rule toward its parent.
func (d *Deployment) syncUp(n *node) {
	if n.up == nil || d.deliveryErr != nil {
		return
	}
	for _, msg := range n.mirror.Sync(n.recv.Coord.GlobalMixture(), n.recv.Coord.TotalWeight()) {
		d.send(n.up, msg)
	}
}

func (d *Deployment) crashNode(n *node) {
	if d.deliveryErr != nil || n.crashed {
		return
	}
	n.crashed = true
	if d.cfg.SelfCheck {
		want, err := encodeNodeState(n)
		if err != nil {
			d.deliveryErr = err
			return
		}
		n.preCrash = want
	}
	if err := n.recv.Store.Crash(); err != nil {
		d.deliveryErr = fmt.Errorf("tree: node %d crash: %w", n.idx, err)
		return
	}
	if n.up != nil {
		// The uplink retransmission queue lives in the dead process.
		n.up.cour.Crash()
	}
}

func (d *Deployment) recoverNode(n *node) {
	if d.deliveryErr != nil || !n.crashed {
		return
	}
	store, rec, err := durable.Open(n.stateDir, d.cfg.Coord, d.storeOptions())
	if err != nil {
		d.deliveryErr = fmt.Errorf("tree: node %d recover: %w", n.idx, err)
		return
	}
	n.recv.Store, n.recv.Coord, n.recv.Dedupe = store, rec.Coord, rec.Dedupe
	n.crashed = false
	d.recov.Restarts++
	d.recov.RecordsReplayed += rec.RecordsReplayed
	d.recov.TornBytes += rec.TornBytes
	if n.preCrash != nil {
		got, err := encodeNodeState(n)
		if err != nil {
			d.deliveryErr = err
			return
		}
		if !bytes.Equal(n.preCrash, got) {
			d.deliveryErr = fmt.Errorf("%w (node %d: pre-crash %d bytes, recovered %d bytes)",
				ErrRecoveryMismatch, n.idx, len(n.preCrash), len(got))
			return
		}
		n.preCrash = nil
	}
	if n.up != nil {
		// Rejoin the parent as a new incarnation: fresh sequence space,
		// no deletion owed for models the parent will discard on the
		// first new-epoch frame.
		n.up.epoch++
		n.up.seq = 0
		n.mirror.Reset()
		d.syncUp(n)
	}
}

func encodeNodeState(n *node) ([]byte, error) {
	var buf bytes.Buffer
	st := &persist.CoordinatorState{
		Applied: n.recv.Store.Applied(), Snapshot: n.recv.Coord.Snapshot(), Dedupe: n.recv.Dedupe.Entries(),
	}
	if err := persist.SaveCoordinatorState(&buf, st); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// Feed hands one record to leaf i, advancing the virtual clock by the
// leaf's arrival rate, and ships any resulting site updates on its uplink.
func (d *Deployment) Feed(i int, x linalg.Vector) error {
	if i < 0 || i >= len(d.leaves) {
		return fmt.Errorf("tree: leaf index %d of %d", i, len(d.leaves))
	}
	lf := d.leaves[i]
	t := float64(lf.fed) / d.cfg.ArrivalRate
	lf.fed++
	d.sim.RunUntil(t)
	ups, err := lf.st.Observe(x)
	if err != nil {
		return err
	}
	for _, u := range ups {
		if d.cfg.OnEmit != nil {
			d.cfg.OnEmit(i+1, u)
		}
		d.send(lf.up, transport.FromSiteUpdate(u))
	}
	return d.deliveryErr
}

// Drain runs the simulator dry and then forces exact final sync rounds,
// deepest layer first, until no node owes its parent an upload — the
// barrier after which every layer's state is final.
func (d *Deployment) Drain() error {
	maxRounds := d.cfg.Topology.Depth() + 3
	for round := 0; ; round++ {
		d.sim.Run()
		if d.deliveryErr != nil {
			return d.deliveryErr
		}
		sent := false
		for _, n := range d.order {
			if n.up == nil {
				continue
			}
			// Tolerance-suppressed drift must flush at the end of the
			// run, so the final barrier uses exact change detection.
			n.mirror.Exact = true
			before := n.up.seq
			d.syncUp(n)
			if n.up.seq != before {
				sent = true
			}
			n.mirror.Exact = d.cfg.ExactSync
		}
		if d.deliveryErr != nil {
			return d.deliveryErr
		}
		if !sent {
			return nil
		}
		if round > maxRounds {
			return fmt.Errorf("tree: drain did not converge after %d rounds", round)
		}
	}
}

// Close releases durable resources.
func (d *Deployment) Close() error {
	var first error
	for _, n := range d.nodes {
		if n.recv.Store != nil && !n.crashed {
			if err := n.recv.Store.Close(); err != nil && first == nil {
				first = err
			}
		}
	}
	return first
}

// InjectDedupeFault breaks every node's sequence-number dedupe — the
// deliberate bug DST uses to prove the per-hop exactly-once invariant has
// teeth. Never set in production paths.
func (d *Deployment) InjectDedupeFault() {
	for _, n := range d.nodes {
		n.recv.Dedupe.Broken = true
	}
}

// --- observability ---------------------------------------------------------

// NumSites returns the leaf count.
func (d *Deployment) NumSites() int { return len(d.leaves) }

// NumNodes returns the internal node count.
func (d *Deployment) NumNodes() int { return len(d.nodes) }

// Now returns the virtual-clock time.
func (d *Deployment) Now() float64 { return d.sim.Now() }

// LeafSite returns leaf i's site processor.
func (d *Deployment) LeafSite(i int) *site.Site { return d.leaves[i].st }

// NodeCoordinator returns internal node n's coordinator.
func (d *Deployment) NodeCoordinator(n int) *coordinator.Coordinator { return d.nodes[n].recv.Coord }

// NodePseudoID returns the wire id node n presents to its parent.
func (d *Deployment) NodePseudoID(n int) int { return d.nodes[n].pseudoID }

// RootMixture returns the root coordinator's merged model.
func (d *Deployment) RootMixture() *gaussian.Mixture { return d.nodes[0].recv.Coord.GlobalMixture() }

// Recovery returns crash/recovery accounting.
func (d *Deployment) Recovery() RecoveryStats { return d.recov }

// Pending sums undelivered courier queue depths across all edges.
func (d *Deployment) Pending() int {
	total := 0
	for _, e := range d.edges() {
		total += e.cour.Pending()
	}
	return total
}

func (d *Deployment) edges() []*edge {
	var out []*edge
	for _, n := range d.nodes {
		if n.up != nil {
			out = append(out, n.up)
		}
	}
	for _, lf := range d.leaves {
		out = append(out, lf.up)
	}
	return out
}

// SenderEpoch returns the current epoch of the edge child→node (child is
// the wire SiteID the receiver sees).
func (d *Deployment) SenderEpoch(toNode, childID int) uint32 {
	if e := d.findEdge(toNode, childID); e != nil {
		return e.epoch
	}
	return 0
}

// SentTally returns the sender-side entitlement of edge child→node for one
// epoch: how many messages and exact wire bytes were handed to transport.
func (d *Deployment) SentTally(toNode, childID int, epoch uint32) SendTally {
	if e := d.findEdge(toNode, childID); e != nil {
		if t := e.sent[epoch]; t != nil {
			return *t
		}
	}
	return SendTally{}
}

func (d *Deployment) findEdge(toNode, childID int) *edge {
	for _, e := range d.edges() {
		if e.toNode == toNode && e.fromID == childID {
			return e
		}
	}
	return nil
}

// EdgeStats is one edge's transport accounting.
type EdgeStats struct {
	From, To        int // wire sender id → internal node index
	Depth           int // receiver depth (0 = root): the layer this edge feeds
	Epoch           uint32
	SentMsgs        int // current-epoch entitlement
	SentBytes       int
	WireBytes       int // link-level total, including retransmissions
	GoodputBytes    int
	RetransmitBytes int
	DroppedBytes    int
	Pending         int
}

// EdgeStatsAll returns per-edge accounting (aggregator uplinks first, then
// leaf uplinks, both in topology order).
func (d *Deployment) EdgeStatsAll() []EdgeStats {
	var out []EdgeStats
	for _, e := range d.edges() {
		cur := e.sent[e.epoch]
		if cur == nil {
			cur = &SendTally{}
		}
		_, droppedBytes := e.link.Dropped()
		out = append(out, EdgeStats{
			From: e.fromID, To: e.toNode,
			Depth:     d.nodes[e.toNode].depth,
			Epoch:     e.epoch,
			SentMsgs:  cur.Msgs,
			SentBytes: cur.Bytes,
			WireBytes: e.link.BytesSent(), GoodputBytes: e.link.GoodputBytes(),
			RetransmitBytes: e.link.RetransmitBytes(), DroppedBytes: droppedBytes,
			Pending: e.cour.Pending(),
		})
	}
	return out
}

// LayerBytes sums wire bytes by the depth of the layer each edge feeds:
// index 0 is traffic into the root, index 1 into depth-1 aggregators, etc.
func (d *Deployment) LayerBytes() []int {
	out := make([]int, d.cfg.Topology.Depth())
	for _, e := range d.edges() {
		out[d.nodes[e.toNode].depth] += e.link.BytesSent()
	}
	return out
}

// TotalBytes sums wire bytes over every edge.
func (d *Deployment) TotalBytes() int {
	total := 0
	for _, e := range d.edges() {
		total += e.link.BytesSent()
	}
	return total
}
