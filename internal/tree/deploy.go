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
	"cludistream/internal/sender"
	"cludistream/internal/site"
	"cludistream/internal/telemetry"
	"cludistream/internal/transport"
	"cludistream/internal/window"
)

// ErrRecoveryMismatch reports that a recovered node's state is not
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
	// (leaf i gets SiteID i+1 and Seed Config.Seed + i·7919).
	Site site.Config
	// Coord is the per-internal-node coordinator template.
	Coord coordinator.Config
	// Seed drives the leaf seeds and the edges' backoff jitter.
	Seed int64
	// ArrivalRate is records/second per site on the virtual clock
	// (default 1000).
	ArrivalRate float64
	// SlidingHorizonChunks, when positive, ages every leaf's records out of
	// a sliding window of that many chunks: each leaf sends through a
	// window.Tracker and emits deletion messages (Section 7). Zero keeps the
	// landmark window.
	SlidingHorizonChunks int

	// ExactSync forces bit-level change detection on every aggregator's
	// upload mirror instead of the aggregator's tolerances (hier.NewUploadMirror);
	// DST uses it so every hop replicates faithfully.
	ExactSync bool

	// Fault, when non-nil, subjects every edge to the plan: its drops and
	// duplicates draw from the plan's one Rand, shared by all edges, and its
	// outages black out every receiver. NodeOutages adds receiver-down
	// windows on single internal nodes (state intact — distinct from
	// Crashes, which lose in-memory state and recover from disk). A
	// deployment with no Fault, no NodeOutages and no Crashes has perfect
	// links: every edge sends the legacy v1 encoding straight onto its
	// link, preserving the paper's byte-for-byte cost model. Anything else
	// runs the daemons' delivery protocol (internal/sender) on every edge:
	// each frame stamped with the edge's epoch and sequence number, and
	// retransmitted with the default backoff until the link delivers it.
	Fault       *netsim.FaultPlan
	NodeOutages map[int][]netsim.Outage

	// Crashes schedules interior-node crash/recovery through the durable
	// path. Only crashing nodes, and the root under DurableRoot, pay for a
	// durable store; StateDir must be set when any node does. Node n's
	// store lives in StateDir/node<n>.
	Crashes []CrashSpec
	// DurableRoot opens the root's durable store without a scheduled crash,
	// so RestartNode(0) can recover it. With no Crashes the root is the
	// only durable node and its store is StateDir itself.
	DurableRoot     bool
	StateDir        string
	CheckpointEvery int
	Fsync           persist.FsyncMode
	FsyncInterval   int
	// SelfCheck byte-compares pre-crash vs recovered state on every
	// recovery (requires Fsync always, the default).
	SelfCheck bool

	Telemetry *telemetry.Registry
	// OnApply observes every message applied at an internal node, after
	// the dedupe verdict admitted it — the DST per-hop invariant hook.
	OnApply func(node int, msg transport.Message)
	// OnEmit observes every message a leaf sends, deletions included,
	// before transport stamps it; msg.SiteID is the leaf's wire id. DST
	// tees these into a reference coordinator that sees no network.
	OnEmit func(msg transport.Message)
}

// edge is one directed uplink: child (a leaf or an aggregator) → internal
// node, carrying frames straight onto a perfect link or through the
// sender's delivery protocol, driven on the virtual clock. A simulated
// dial always succeeds at once, and the restart handshake is off: netsim
// loses frames but never an ack, so the watermark prune would have
// nothing to remove.
type edge struct {
	fromID int // wire SiteID of the sender
	toNode int
	sim    *netsim.Simulator
	link   *netsim.Link
	epoch  uint32
	// snd is the current incarnation's sender (nil on a perfect link).
	// The jitter source, the pending-retry-timer flag and the link
	// survive a crash; the sender does not.
	snd     *sender.Sender
	jitter  *rand.Rand
	reg     *telemetry.Registry
	tracer  *telemetry.Tracer // nil unless tracing
	waiting bool              // a retry timer is pending
	retries int               // failed transmissions of dead incarnations
	dups    int               // deliveries the receiver's dedupe dropped
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

// send charges the sender-side entitlement and hands msg, as wire sender
// fromID, to the edge: on a perfect link straight onto the wire in the v1
// encoding, otherwise to the sender, which stamps it with the edge's epoch
// and next sequence number. Trace context rides along, so every
// transmission records its wire-send span under the message's trace.
func (e *edge) send(msg transport.Message) {
	msg.SiteID = int32(e.fromID)
	if e.tracer != nil && msg.TraceID != 0 {
		// Enqueue is a point span: in the simulation the outbox hands the
		// payload to the link at the same virtual instant.
		now := e.tracer.Now()
		e.tracer.Record(msg.TraceID, msg.SpanID, "enqueue",
			int(msg.SiteID), int(msg.ModelID), now, now, msg.WireSize(), "")
	}
	t := e.tally()
	t.Msgs++
	if e.snd == nil {
		payload := transport.Encode(msg)
		t.Bytes += len(payload)
		e.link.TrySendTraced(payload, false, msg.TraceID, msg.SpanID)
		return
	}
	t.Bytes += e.snd.Enqueue(msg).WireSize()
	if !e.waiting {
		e.pump()
	}
}

// pump performs the sender's actions until its outbox drains or a frame
// the link refused arms a retry timer.
func (e *edge) pump() {
	for {
		now := e.sim.Now()
		switch act := e.snd.Next(now); act.Kind {
		case sender.Idle:
			return
		case sender.Wait:
			e.waiting = true
			e.sim.ScheduleAt(act.Until, func() {
				e.waiting = false
				e.pump()
			})
			return
		case sender.Dial:
			e.snd.OnConnected()
		case sender.Transmit:
			h := act.Entry
			if e.link.TrySendTraced(h.Frame(true), h.Attempts > 1, h.TraceID, h.SpanID) {
				e.snd.OnAck()
			} else {
				e.snd.OnError(now)
			}
		default:
			panic(fmt.Sprintf("tree: edge %d->%d: sender action %d without a simulated counterpart", e.fromID, e.toNode, act.Kind))
		}
	}
}

// restart models the sending process dying: its outbox — every message it
// would still have retried — dies with it, and its successor speaks under
// the next epoch with a fresh sequence space. Only fault-tolerant edges
// restart: any crash makes the whole deployment fault-tolerant.
func (e *edge) restart() {
	e.epoch++
	e.retries += e.snd.Stats().Retries
	e.snd = e.newSender()
}

func (e *edge) newSender() *sender.Sender {
	return sender.New(sender.Config{Epoch: e.epoch, Rand: e.jitter, Telemetry: e.reg})
}

type node struct {
	idx      int
	pseudoID int // sender id at its parent (0 for the root)
	depth    int
	// recv is the node's receive step; its Store is nil unless this node
	// is durable.
	recv     durable.Receiver
	stateDir string
	mirror   *hier.UploadMirror // nil for the root
	up       *edge              // nil for the root
	crashed  bool
	preCrash []byte // SelfCheck state snapshot taken at crash time
}

type leafNode struct {
	st  *site.Site
	cfg site.Config     // kept verbatim so a crash can rebuild the site
	win *window.Tracker // nil under a landmark window
	up  *edge
	fed int // records fed this incarnation (drives the virtual clock)
}

// RecoveryStats aggregates crash/recovery accounting across all nodes.
type RecoveryStats struct {
	Restarts        int
	RecordsReplayed int
	TornBytes       int
}

// DeliveryStats is the fault-tolerance accounting summed over every edge
// and internal node: goodput (payload bytes that reached a receiver,
// counted once), the retransmission overhead on top, losses, and the
// receivers' dedupe work. All zeros on perfect links.
type DeliveryStats struct {
	GoodputBytes    int
	RetransmitBytes int
	DroppedMessages int
	DroppedBytes    int
	DupDelivered    int // messages the fault plan delivered twice
	Retries         int
	Duplicates      int
	SiteResets      int
	Pending         int // payloads still queued in edge outboxes
}

// Deployment is a live tree on the virtual clock.
type Deployment struct {
	cfg    Config
	sim    *netsim.Simulator
	nodes  []*node
	leaves []*leafNode
	order  []*node // internal nodes, deepest first (final-sync order)
	// uplinks is every edge: aggregator uplinks first, then leaf uplinks,
	// both in topology order.
	uplinks []*edge

	// tracer is the registry's tracer when tracing is enabled (nil
	// otherwise), its clock bound to the simulator so every span timestamp
	// is virtual time.
	tracer     *telemetry.Tracer
	teleDedupe *telemetry.Counter
	teleResets *telemetry.Counter

	// dedupeBroken survives node recoveries; see InjectDedupeFault.
	dedupeBroken bool
	recov        RecoveryStats
	deliveryErr  error
}

// NewDeployment validates the configuration and builds the tree: leaves
// are real site processors, internal nodes are real coordinators with
// upload mirrors, edges are netsim links, each driven by a sender unless
// the deployment has perfect links.
func NewDeployment(cfg Config) (*Deployment, error) {
	if err := cfg.Topology.Validate(); err != nil {
		return nil, err
	}
	if cfg.ArrivalRate <= 0 {
		cfg.ArrivalRate = 1000
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
	if (len(crashing) > 0 || cfg.DurableRoot) && cfg.StateDir == "" {
		return nil, fmt.Errorf("tree: durable nodes need a StateDir")
	}

	d := &Deployment{cfg: cfg, sim: netsim.NewSimulator()}
	if reg := cfg.Telemetry; reg != nil {
		d.teleDedupe = reg.Counter("coord.dedupe_dropped")
		d.teleResets = reg.Counter("coord.epoch_resets")
		if tr := reg.Tracer(); tr != nil {
			tr.SetClock(d.sim.Now)
			d.tracer = tr
		}
	}
	topo := &cfg.Topology

	// Internal nodes. A node's arrivals are lost during its partition and
	// crash windows; only durable nodes open a store.
	for n := 0; n < topo.NumNodes(); n++ {
		nd := &node{idx: n, depth: topo.NodeDepth(n)}
		if _, willCrash := crashing[n]; willCrash || (n == 0 && cfg.DurableRoot) {
			nd.stateDir = filepath.Join(cfg.StateDir, fmt.Sprintf("node%d", n))
			if len(crashing) == 0 {
				nd.stateDir = cfg.StateDir // the only durable node
			}
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
		nd.recv.Tracer = d.tracer
		// A reset is counted before the observer runs, so the telemetry it
		// reads agrees with DeliveryStats.
		nd.recv.OnApply = func(msg transport.Message, v durable.Verdict) {
			if v == durable.AdmitNewEpoch {
				d.teleResets.Inc()
			}
			if cfg.OnApply != nil {
				cfg.OnApply(n, msg)
			}
		}
		if n > 0 {
			// Leaf sites own wire ids 1..NumSites; aggregators follow.
			nd.pseudoID = topo.NumSites() + n
			nd.mirror = hier.NewUploadMirror(nd.pseudoID)
			nd.mirror.Exact = cfg.ExactSync
		}
		d.nodes = append(d.nodes, nd)
	}

	// Receiver-side fault windows: partitions plus crash windows.
	perfect := cfg.Fault == nil && len(cfg.NodeOutages) == 0 && len(crashing) == 0
	outages := func(n int) []netsim.Outage {
		return append(append([]netsim.Outage(nil), cfg.NodeOutages[n]...), crashing[n]...)
	}

	// Aggregator uplinks.
	for n := 1; n < topo.NumNodes(); n++ {
		spec := topo.Aggs[n-1]
		e, err := d.newEdge(d.nodes[n].pseudoID, spec.Parent, spec.Link, perfect, outages(spec.Parent))
		if err != nil {
			return nil, err
		}
		d.nodes[n].up = e
	}
	// Leaves and their uplinks.
	for i, spec := range topo.Leaves {
		sc := cfg.Site
		sc.SiteID = i + 1
		sc.Seed = cfg.Seed + int64(i)*7919
		if cfg.SlidingHorizonChunks > 0 {
			// Sliding windows require the receiver's weights to track the
			// site counters, or deletions would underflow.
			sc.EmitFitWeightUpdates = true
		}
		lf := &leafNode{cfg: sc}
		if err := d.startLeaf(lf); err != nil {
			return nil, err
		}
		e, err := d.newEdge(sc.SiteID, spec.Parent, spec.Link, perfect, outages(spec.Parent))
		if err != nil {
			return nil, err
		}
		lf.up = e
		d.leaves = append(d.leaves, lf)
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

// startLeaf builds a fresh incarnation of the leaf's site, and its window
// tracker under a sliding window, from the leaf's configuration.
func (d *Deployment) startLeaf(lf *leafNode) error {
	st, err := site.New(lf.cfg)
	if err != nil {
		return err
	}
	lf.st, lf.win = st, nil
	if d.cfg.SlidingHorizonChunks > 0 {
		if lf.win, err = window.NewTracker(st, d.cfg.SlidingHorizonChunks); err != nil {
			return err
		}
	}
	return nil
}

func (d *Deployment) storeOptions() durable.Options {
	return durable.Options{
		CheckpointEvery: d.cfg.CheckpointEvery,
		Fsync:           d.cfg.Fsync,
		FsyncInterval:   d.cfg.FsyncInterval,
		Telemetry:       d.cfg.Telemetry,
	}
}

// newEdge builds the uplink from wire sender fromID to internal node
// toNode. Its backoff jitter is seeded from the sender id, so a leaf's
// retransmission schedule does not depend on the shape of the tree.
func (d *Deployment) newEdge(fromID, toNode int, spec LinkSpec, perfect bool, outages []netsim.Outage) (*edge, error) {
	e := &edge{fromID: fromID, toNode: toNode, sim: d.sim, epoch: 1, reg: d.cfg.Telemetry, tracer: d.tracer, sent: map[uint32]*SendTally{}}
	var plan *netsim.FaultPlan
	if d.cfg.Fault != nil || len(outages) > 0 {
		plan = &netsim.FaultPlan{}
		if d.cfg.Fault != nil {
			*plan = *d.cfg.Fault // shares the plan's Rand across edges
		}
		plan.Outages = append(append([]netsim.Outage(nil), plan.Outages...), outages...)
	}
	link, err := d.sim.NewFaultyLink(spec.Latency, spec.Bandwidth, plan, func(payload []byte) {
		d.deliver(e, payload)
	})
	if err != nil {
		return nil, err
	}
	link.SetTelemetry(d.cfg.Telemetry)
	e.link = link
	d.uplinks = append(d.uplinks, e)
	if perfect {
		return e, nil
	}
	e.jitter = rand.New(rand.NewSource(d.cfg.Seed + 104729*int64(fromID)))
	e.snd = e.newSender()
	return e, nil
}

// deliver is every edge's receive path: the receive step (WAL append on
// durable nodes, dedupe, epoch reset, apply, observe, checkpoint), then
// upload-on-change toward the parent. OnApply observes a message even when
// its apply was rejected — a rejected duplicate is exactly what the DST
// shadow dedupe wants to pin.
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
	if err := res.Err(); err != nil {
		d.deliveryErr = fmt.Errorf("tree: node %d receive: %w", n.idx, err)
		return
	}
	if res.Verdict.Dropped() {
		e.dups++
		d.teleDedupe.Inc()
		return
	}
	d.syncUp(n)
}

// syncUp runs the node's upload-on-change rule toward its parent and
// reports whether it sent anything.
func (d *Deployment) syncUp(n *node) bool {
	if n.up == nil || d.deliveryErr != nil {
		return false
	}
	msgs := n.mirror.Sync(n.recv.Coord.GlobalMixture(), n.recv.Coord.TotalWeight())
	for _, msg := range msgs {
		n.up.send(msg)
	}
	return len(msgs) > 0
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
		// The uplink outbox lives in the dead process; the recovered
		// incarnation rejoins the parent under the next epoch.
		n.up.restart()
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
	n.recv.Dedupe.Broken = d.dedupeBroken
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
		// Rejoin the parent as the new incarnation crashNode started: no
		// deletion owed for models the parent will discard on the first
		// new-epoch frame.
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

// RestartNode models internal node n's process dying and recovering from
// its durable store at once: the in-memory coordinator and dedupe table
// are dropped, the WAL is abandoned without flushing (records a sync
// policy weaker than "always" had not synced are lost, as a real crash
// would lose them), and the replacement is rebuilt from the latest
// checkpoint plus the surviving WAL tail. Queued retransmissions toward
// the node are unaffected; the recovered dedupe table drops what was
// already applied. With SelfCheck, a recovered state that differs from
// the persisted pre-crash state returns ErrRecoveryMismatch.
func (d *Deployment) RestartNode(n int) error {
	if n < 0 || n >= len(d.nodes) {
		return fmt.Errorf("tree: node index %d of %d", n, len(d.nodes))
	}
	nd := d.nodes[n]
	if nd.recv.Store == nil {
		return fmt.Errorf("tree: node %d has no durable store to recover from", n)
	}
	d.crashNode(nd)
	d.recoverNode(nd)
	return d.deliveryErr
}

// RestartNodeAt schedules RestartNode(n) at virtual time t; a failure
// surfaces from the next Feed or Drain.
func (d *Deployment) RestartNodeAt(n int, t float64) {
	d.sim.ScheduleAt(t, func() {
		if err := d.RestartNode(n); err != nil && d.deliveryErr == nil {
			d.deliveryErr = err
		}
	})
}

// CrashLeaf models leaf i's site process dying and restarting: its
// in-memory site state, window tracker and queued retransmissions are
// lost, and the replacement — same configuration and seed — comes back
// under a bumped epoch with a fresh sequence space and its clock at record
// zero, so the parent discards the dead incarnation's contribution when
// the restarted site replays its stream. Perfect links have no epochs to
// bump, so a crash needs fault-tolerant edges.
func (d *Deployment) CrashLeaf(i int) error {
	if i < 0 || i >= len(d.leaves) {
		return fmt.Errorf("tree: leaf index %d of %d", i, len(d.leaves))
	}
	lf := d.leaves[i]
	if lf.up.snd == nil {
		return fmt.Errorf("tree: crashing a leaf requires fault-tolerant links (Config.Fault)")
	}
	if err := d.startLeaf(lf); err != nil {
		return err
	}
	lf.up.restart()
	lf.fed = 0
	return nil
}

// Feed hands one record to leaf i, advancing the virtual clock by the
// leaf's arrival rate, and ships every message the leaf owes for it on its
// uplink (window.Emit), each shown to OnEmit first.
func (d *Deployment) Feed(i int, x linalg.Vector) error {
	if i < 0 || i >= len(d.leaves) {
		return fmt.Errorf("tree: leaf index %d of %d", i, len(d.leaves))
	}
	lf := d.leaves[i]
	t := float64(lf.fed) / d.cfg.ArrivalRate
	lf.fed++
	d.sim.RunUntil(t)
	msgs, err := window.Emit(lf.st, lf.win, x)
	if err != nil {
		return err
	}
	for _, msg := range msgs {
		if d.cfg.OnEmit != nil {
			d.cfg.OnEmit(msg)
		}
		lf.up.send(msg)
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
			if d.syncUp(n) {
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

// InjectDedupeFault breaks every node's sequence-number dedupe, across
// recoveries too — the deliberate bug DST uses to prove the exactly-once
// invariant has teeth. Never set in production paths.
func (d *Deployment) InjectDedupeFault() {
	d.dedupeBroken = true
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

// RootMixture returns the root coordinator's merged model.
func (d *Deployment) RootMixture() *gaussian.Mixture { return d.nodes[0].recv.Coord.GlobalMixture() }

// Recovery returns crash/recovery accounting.
func (d *Deployment) Recovery() RecoveryStats { return d.recov }

// DeliveryStats sums the fault-tolerance counters over every edge and
// internal node.
func (d *Deployment) DeliveryStats() DeliveryStats {
	var s DeliveryStats
	for _, e := range d.uplinks {
		s.GoodputBytes += e.link.GoodputBytes()
		s.RetransmitBytes += e.link.RetransmitBytes()
		m, b := e.link.Dropped()
		s.DroppedMessages += m
		s.DroppedBytes += b
		s.DupDelivered += e.link.DupDelivered()
		if e.snd != nil {
			st := e.snd.Stats()
			s.Retries += e.retries + st.Retries
			s.Pending += st.Queued
		}
	}
	for _, n := range d.nodes {
		st := n.recv.Stats()
		s.Duplicates += st.Duplicates
		s.SiteResets += st.SiteResets
	}
	return s
}

// Pending sums undelivered outbox depths across all edges.
func (d *Deployment) Pending() int { return d.DeliveryStats().Pending }

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
	for _, e := range d.uplinks {
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
	Msgs            int // link-level transmissions, retransmissions included
	Duplicates      int // deliveries the receiver's dedupe dropped
	GoodputBytes    int
	RetransmitBytes int
	DroppedBytes    int
}

// EdgeStatsAll returns per-edge accounting (aggregator uplinks first, then
// leaf uplinks, both in topology order).
func (d *Deployment) EdgeStatsAll() []EdgeStats {
	out := make([]EdgeStats, 0, len(d.uplinks))
	for _, e := range d.uplinks {
		cur := e.tally()
		_, droppedBytes := e.link.Dropped()
		out = append(out, EdgeStats{
			From: e.fromID, To: e.toNode,
			Depth:     d.nodes[e.toNode].depth,
			Epoch:     e.epoch,
			SentMsgs:  cur.Msgs,
			SentBytes: cur.Bytes,
			WireBytes: e.link.BytesSent(), GoodputBytes: e.link.GoodputBytes(),
			RetransmitBytes: e.link.RetransmitBytes(), DroppedBytes: droppedBytes,
			Msgs: e.link.Messages(), Duplicates: e.dups,
		})
	}
	return out
}

// LayerBytes sums wire bytes by the depth of the layer each edge feeds:
// index 0 is traffic into the root, index 1 into depth-1 aggregators, etc.
func (d *Deployment) LayerBytes() []int {
	out := make([]int, d.cfg.Topology.Depth())
	for _, e := range d.uplinks {
		out[d.nodes[e.toNode].depth] += e.link.BytesSent()
	}
	return out
}

// TotalBytes sums wire bytes over every edge.
func (d *Deployment) TotalBytes() int {
	total := 0
	for _, e := range d.uplinks {
		total += e.link.BytesSent()
	}
	return total
}

// TotalMessages counts transmissions over every edge, retransmissions
// included.
func (d *Deployment) TotalMessages() int {
	total := 0
	for _, e := range d.uplinks {
		total += e.link.Messages()
	}
	return total
}

// CostSeries returns the cumulative wire bytes over every edge, sampled
// every width simulated seconds — the paper's per-second cost collection.
func (d *Deployment) CostSeries(width float64) []int {
	until := d.sim.Now()
	if until <= 0 {
		until = width
	}
	var series [][]int
	for _, e := range d.uplinks {
		series = append(series, e.link.CostSeries(width, until))
	}
	return netsim.MergeCostSeries(series...)
}
