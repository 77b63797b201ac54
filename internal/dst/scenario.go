// Package dst is a FoundationDB-style deterministic simulation testing
// harness for the whole CluDistream deployment. A Scenario — a topology of
// sites behind zero or more aggregator layers, a drift program per site,
// chunk sizes, and a fault schedule of losses, duplicate deliveries, node
// outages (including root restarts), aggregator crashes and site
// crash/replays — is generated from a single seed, runs the real
// tree.Deployment (site → transport → netsim → durable receive step →
// coordinator at every internal node) under one virtual clock, and is
// checked against one invariant suite after every applied message at
// every node. The flat star of the base paper is the topology with no
// aggregators. Every run is a pure function of the scenario: replaying it
// reproduces the same decisions, the same deliveries, and the same
// violation (if any), bit for bit.
//
// The headline invariant follows Tran's exact distributed clustering
// result: the root's final model must be exactly the model of a reference
// coordinator fed every site's emissions with no network in between,
// regardless of the delivery schedule. The remaining invariants check the
// paper's own structures continuously as models evolve — exactly-once
// application at every hop, event-list consistency, Theorem-2 fit-test
// soundness, Theorem-3 communication and memory bounds, and telemetry and
// trace conservation laws.
package dst

import (
	"fmt"
	"math/rand"

	"cludistream/internal/netsim"
	"cludistream/internal/persist"
	"cludistream/internal/tree"
)

// Regime is one phase of a site's drift program: the stream parks on a
// well-separated bimodal distribution centred at Mean for Chunks chunks.
type Regime struct {
	Mean   float64 `json:"mean"`
	Chunks int     `json:"chunks"`
}

// Outage is a receiver-down window on one internal node: arrivals inside
// it are lost, the node's state stays intact, and the senders retransmit
// after it lifts. Restart, allowed only on the root (node 0), also kills
// the root's process and recovers it from checkpoint + WAL when the window
// ends, with a byte-level self-check that the recovered state matches the
// pre-crash state.
type Outage struct {
	Node    int     `json:"node"`
	Start   float64 `json:"start"`
	End     float64 `json:"end"`
	Restart bool    `json:"restart,omitempty"`
}

// SiteScript is one site's portion of a scenario: its record stream
// (derived from StreamSeed and the drift program) and its crash schedule.
type SiteScript struct {
	// StreamSeed drives this site's record sampling. It is stored
	// explicitly — not derived from the site's position — so a shrink that
	// removes sibling sites leaves this stream bit-identical.
	StreamSeed int64 `json:"stream_seed"`
	// Regimes is the drift program, in order.
	Regimes []Regime `json:"regimes"`
	// TailRecords is a partial chunk appended after the last regime so the
	// chunker's pending buffer is exercised (0 = none).
	TailRecords int `json:"tail_records,omitempty"`
	// CrashAfter, when positive, crashes the site after it has fed that
	// many records; the restarted incarnation replays the stream from the
	// beginning with a higher epoch (0 = never crashes).
	CrashAfter int `json:"crash_after,omitempty"`
}

// Scenario is a complete, self-describing simulation test case. Its JSON
// form is embedded in failure artifacts; a scenario alone (no seed
// re-derivation) reproduces a run exactly.
type Scenario struct {
	Seed      int64 `json:"seed"`
	Dim       int   `json:"dim"`
	K         int   `json:"k"`
	ChunkSize int   `json:"chunk_size"`
	// Topology places the sites, with every link's latency and bandwidth:
	// leaf i runs Sites[i]. A topology without aggregators is the flat star.
	Topology tree.Topology `json:"topology"`
	// Sliding, when positive, runs every site in sliding-window mode with
	// that horizon in chunks (deletion messages flow).
	Sliding int `json:"sliding,omitempty"`

	// Fault schedule.
	DropProb float64          `json:"drop_prob,omitempty"`
	DupProb  float64          `json:"dup_prob,omitempty"`
	Outages  []Outage         `json:"outages,omitempty"`
	Crashes  []tree.CrashSpec `json:"crashes,omitempty"`

	// Durability knobs, set when the schedule recovers a node from disk so
	// an artifact pins the exact checkpoint cadence and WAL sync policy the
	// failing run used.
	CheckpointEvery int    `json:"checkpoint_every,omitempty"`
	WALFsync        string `json:"wal_fsync,omitempty"`

	ArrivalRate float64 `json:"arrival_rate"`

	Sites []SiteScript `json:"sites"`
}

// regimePalette spaces regime centres far enough apart that the J_fit
// test separates them decisively and coordinator grouping is stable under
// any delivery schedule (the same property the paper's well-separated
// synthetic streams have).
var regimePalette = []float64{0, 200, -200, 400, -400, 600}

// Generate derives a flat-star scenario from a seed. short trims every
// dimension of the scenario (sites, regimes, chunk size) so a hundred
// seeds run in seconds; long mode explores larger deployments.
func Generate(seed int64, short bool) Scenario {
	rng := rand.New(rand.NewSource(seed*2654435761 + 1))
	sc := Scenario{
		Seed:        seed,
		Dim:         1 + rng.Intn(2),
		K:           2,
		ArrivalRate: 1000,
	}
	link := tree.LinkSpec{Latency: 0.02 + 0.06*rng.Float64()}
	var numSites int
	if short {
		numSites = 1 + rng.Intn(3)
		sc.ChunkSize = 100 + 50*rng.Intn(3)
	} else {
		numSites = 1 + rng.Intn(5)
		sc.ChunkSize = 150 + 50*rng.Intn(4)
	}
	// A minority of scenarios run a finite-bandwidth link (serialized
	// transmissions) and a minority age chunks out of a sliding window.
	if rng.Intn(4) == 0 {
		link.Bandwidth = 200e3 + 400e3*rng.Float64()
	}
	if rng.Intn(4) == 0 {
		sc.Sliding = 3 + rng.Intn(4)
	}
	// Fault schedule: independent loss, duplicate delivery, outages.
	if rng.Intn(3) != 0 {
		sc.DropProb = 0.05 + 0.25*rng.Float64()
	}
	if rng.Intn(3) != 0 {
		sc.DupProb = 0.05 + 0.25*rng.Float64()
	}

	maxChunks := 0
	for i := 0; i < numSites; i++ {
		script := SiteScript{StreamSeed: seed ^ (int64(i+1) * 7919)}
		nRegimes := 2 + rng.Intn(3)
		if !short {
			nRegimes = 2 + rng.Intn(4)
		}
		prev := -1
		for r := 0; r < nRegimes; r++ {
			// Cycle a small per-site palette with no immediate repeats so
			// old regimes return and exercise archive reactivation.
			pi := rng.Intn(3)
			if pi == prev {
				pi = (pi + 1) % 3
			}
			prev = pi
			script.Regimes = append(script.Regimes, Regime{
				Mean:   regimePalette[pi] + float64(i)*1200,
				Chunks: 2 + rng.Intn(3),
			})
		}
		if rng.Intn(2) == 0 {
			script.TailRecords = rng.Intn(sc.ChunkSize)
		}
		total := script.totalRecords(sc.ChunkSize)
		if rng.Intn(3) == 0 {
			script.CrashAfter = sc.ChunkSize + rng.Intn(total-sc.ChunkSize)
		}
		if n := script.chunks(); n > maxChunks {
			maxChunks = n
		}
		sc.Sites = append(sc.Sites, script)
		sc.Topology.Leaves = append(sc.Topology.Leaves, tree.LeafSpec{Link: link})
	}

	// Outage windows on the coordinator, placed inside the stream's
	// simulated duration; one in three is a restart. Crash replays double a
	// site's feed, so the wall of the schedule is the replayed duration.
	dur := float64(maxChunks*sc.ChunkSize) * 2 / sc.ArrivalRate
	for n := rng.Intn(3); n > 0; n-- {
		start := rng.Float64() * dur
		sc.Outages = append(sc.Outages, Outage{
			Start:   start,
			End:     start + 0.2 + rng.Float64()*1.5,
			Restart: rng.Intn(3) == 0,
		})
	}
	// Durability knobs, drawn last so scenarios without a restart are
	// bit-identical to those of earlier harness versions. A tiny checkpoint
	// cadence makes most restarts replay a WAL tail; "always" is the only
	// policy under which recovery is lossless and the byte-level self-check
	// can demand equality.
	if sc.restarts() {
		sc.CheckpointEvery = 1 + rng.Intn(8)
		sc.WALFsync = "always"
	}
	return sc
}

// GenerateTree derives a tree scenario from a seed. Short mode keeps the
// sweep fast — 100–220 sites behind one or two aggregator layers with
// short drift programs — while long mode explores up to 1000 sites and
// three layers. Every site draws regimes from the shared palette with no
// per-site offset, so sibling sites produce mergeable models and
// aggregation genuinely compresses (the property the per-layer memory
// bound is about).
func GenerateTree(seed int64, short bool) Scenario {
	rng := rand.New(rand.NewSource(seed*2654435761 + 9176))
	sc := Scenario{
		Seed:        seed,
		Dim:         1 + rng.Intn(2),
		K:           2,
		ArrivalRate: 1000,
	}
	var numSites, layers int
	if short {
		numSites = 100 + rng.Intn(121)
		layers = 1 + rng.Intn(2)
		sc.ChunkSize = 60 + 20*rng.Intn(3)
	} else {
		numSites = 100 + rng.Intn(901)
		layers = 1 + rng.Intn(3)
		sc.ChunkSize = 100 + 50*rng.Intn(3)
	}
	fanOut := 4 + rng.Intn(13)
	base := tree.LinkSpec{Latency: 0.01 + 0.04*rng.Float64()}
	topo, err := tree.Spec{Leaves: numSites, AggLayers: layers, FanOut: fanOut, Link: base}.Build()
	if err != nil {
		panic(fmt.Sprintf("dst: generated spec invalid: %v", err)) // unreachable by construction
	}
	// Heterogeneous links: every edge gets its own latency around the base,
	// and a minority of edges are bandwidth-starved (serialized frames).
	hetero := func(l tree.LinkSpec) tree.LinkSpec {
		l.Latency = base.Latency * (0.5 + rng.Float64())
		if rng.Intn(10) == 0 {
			l.Bandwidth = 50e3 + 150e3*rng.Float64()
		}
		return l
	}
	for i := range topo.Aggs {
		topo.Aggs[i].Link = hetero(topo.Aggs[i].Link)
	}
	for i := range topo.Leaves {
		topo.Leaves[i].Link = hetero(topo.Leaves[i].Link)
	}
	sc.Topology = topo

	if rng.Intn(3) != 0 {
		sc.DropProb = 0.05 + 0.2*rng.Float64()
	}
	if rng.Intn(3) != 0 {
		sc.DupProb = 0.05 + 0.2*rng.Float64()
	}

	// Drift programs off the shared palette; leaves never crash here
	// (interior faults are the point of tree scenarios).
	maxChunks := 0
	for i := 0; i < numSites; i++ {
		script := SiteScript{StreamSeed: seed ^ (int64(i+1) * 7919)}
		nRegimes := 2
		if !short {
			nRegimes = 2 + rng.Intn(2)
		}
		prev := -1
		for r := 0; r < nRegimes; r++ {
			pi := rng.Intn(3)
			if pi == prev {
				pi = (pi + 1) % 3
			}
			prev = pi
			script.Regimes = append(script.Regimes, Regime{
				Mean:   regimePalette[pi],
				Chunks: 1 + rng.Intn(2),
			})
		}
		if rng.Intn(4) == 0 {
			script.TailRecords = rng.Intn(sc.ChunkSize)
		}
		if n := script.chunks(); n > maxChunks {
			maxChunks = n
		}
		sc.Sites = append(sc.Sites, script)
	}

	// Partition windows on aggregators, placed inside the stream's
	// simulated span.
	dur := float64(maxChunks*sc.ChunkSize) / sc.ArrivalRate
	numAggs := len(topo.Aggs)
	for n := rng.Intn(3); n > 0 && numAggs > 0; n-- {
		start := rng.Float64() * dur * 0.8
		sc.Outages = append(sc.Outages, Outage{
			Node:  1 + rng.Intn(numAggs),
			Start: start,
			End:   start + (0.05+0.3*rng.Float64())*dur,
		})
	}
	// Half the scenarios crash aggregators: distinct nodes, windows inside
	// the feed span so recovery and catch-up happen under live traffic.
	if numAggs > 0 && rng.Intn(2) == 0 {
		used := map[int]bool{}
		for n := 1 + rng.Intn(2); n > 0; n-- {
			node := 1 + rng.Intn(numAggs)
			if used[node] {
				continue
			}
			used[node] = true
			start := (0.1 + 0.6*rng.Float64()) * dur
			sc.Crashes = append(sc.Crashes, tree.CrashSpec{
				Node:  node,
				Start: start,
				End:   start + (0.02+0.1*rng.Float64())*dur,
			})
		}
		sc.CheckpointEvery = 1 + rng.Intn(8)
		sc.WALFsync = "always"
	}
	return sc
}

// restarts reports whether the fault schedule restarts the root.
func (sc Scenario) restarts() bool {
	for _, o := range sc.Outages {
		if o.Restart {
			return true
		}
	}
	return false
}

// chunks returns how many full chunks the drift program spans.
func (s SiteScript) chunks() int {
	var n int
	for _, r := range s.Regimes {
		n += r.Chunks
	}
	return n
}

// totalRecords returns the site's stream length in records.
func (s SiteScript) totalRecords(chunkSize int) int {
	return s.chunks()*chunkSize + s.TailRecords
}

// Validate rejects scenarios that cannot run (hand-edited artifacts,
// shrink intermediates).
func (sc Scenario) Validate() error {
	topo := &sc.Topology
	if err := topo.Validate(); err != nil {
		return err
	}
	if topo.NumSites() != len(sc.Sites) {
		return fmt.Errorf("dst: topology has %d leaves but %d site scripts", topo.NumSites(), len(sc.Sites))
	}
	if sc.Dim < 1 || sc.K < 1 || sc.ChunkSize < sc.K {
		return fmt.Errorf("dst: bad dims: Dim=%d K=%d ChunkSize=%d", sc.Dim, sc.K, sc.ChunkSize)
	}
	if sc.ArrivalRate <= 0 {
		return fmt.Errorf("dst: ArrivalRate %v", sc.ArrivalRate)
	}
	for i, s := range sc.Sites {
		if len(s.Regimes) == 0 {
			return fmt.Errorf("dst: site %d has no regimes", i)
		}
		if s.CrashAfter != 0 && (s.CrashAfter < 0 || s.CrashAfter >= s.totalRecords(sc.ChunkSize)) {
			return fmt.Errorf("dst: site %d CrashAfter %d outside stream of %d", i, s.CrashAfter, s.totalRecords(sc.ChunkSize))
		}
	}
	// A certain drop would leave the senders retrying forever.
	if sc.DropProb >= 1 {
		return fmt.Errorf("dst: DropProb %v", sc.DropProb)
	}
	plan := netsim.FaultPlan{DropProb: sc.DropProb, DupProb: sc.DupProb, Rand: rand.New(rand.NewSource(1))}
	for i, o := range sc.Outages {
		if o.Node < 0 || o.Node >= topo.NumNodes() {
			return fmt.Errorf("dst: outage %d targets node %d of %d", i, o.Node, topo.NumNodes())
		}
		if o.Restart && o.Node != 0 {
			return fmt.Errorf("dst: outage %d restarts node %d; only the root restarts", i, o.Node)
		}
		plan.Outages = append(plan.Outages, netsim.Outage{Start: o.Start, End: o.End})
	}
	if err := plan.Validate(); err != nil {
		return err
	}
	for i, c := range sc.Crashes {
		if c.Node < 1 || c.Node >= topo.NumNodes() {
			return fmt.Errorf("dst: crash %d targets node %d (want an aggregator, 1..%d)", i, c.Node, topo.NumNodes()-1)
		}
	}
	if sc.CheckpointEvery < 0 {
		return fmt.Errorf("dst: CheckpointEvery %d", sc.CheckpointEvery)
	}
	mode, err := persist.ParseFsyncMode(sc.WALFsync)
	if err != nil {
		return err
	}
	if (sc.restarts() || len(sc.Crashes) > 0) && mode != persist.FsyncAlways {
		return fmt.Errorf("dst: recovery requires WALFsync %q for the self-check, got %q", persist.FsyncAlways, mode)
	}
	return nil
}
