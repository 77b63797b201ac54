package tree

import (
	"math"
	"math/rand"
	"testing"

	"cludistream/internal/coordinator"
	"cludistream/internal/durable"
	"cludistream/internal/gaussian"
	"cludistream/internal/linalg"
	"cludistream/internal/netsim"
	"cludistream/internal/site"
	"cludistream/internal/transport"
)

// SenderEpoch returns the current epoch of the edge child→node (child is
// the wire SiteID the receiver sees).
func (d *Deployment) SenderEpoch(toNode, childID int) uint32 {
	if e := d.findEdge(toNode, childID); e != nil {
		return e.epoch
	}
	return 0
}

// NodePseudoID returns the wire id node n presents to its parent.
func (d *Deployment) NodePseudoID(n int) int { return d.nodes[n].pseudoID }

func testSiteCfg() site.Config {
	return site.Config{Dim: 1, K: 2, Epsilon: 0.5, Delta: 0.01, ChunkSize: 100}
}

func testCoordCfg() coordinator.Config {
	return coordinator.Config{Dim: 1, Merge: gaussian.MergeOptions{MomentOnly: true}}
}

// feedAll pushes n records per leaf round-robin, drawing leaf i's records
// from regimes[i % len(regimes)].
func feedAll(t *testing.T, d *Deployment, regimes []float64, n int) {
	t.Helper()
	rng := rand.New(rand.NewSource(77))
	for rec := 0; rec < n; rec++ {
		for i := 0; i < d.NumSites(); i++ {
			mean := regimes[i%len(regimes)]
			x := linalg.Vector{mean + 4*float64(1-2*(rec%2)) + rng.NormFloat64()}
			if err := d.Feed(i, x); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// refCoordinator builds the flat-deployment reference: every leaf update
// teed straight into one coordinator.
func refCoordinator(t *testing.T) (*coordinator.Coordinator, func(transport.Message)) {
	t.Helper()
	ref, err := coordinator.New(testCoordCfg())
	if err != nil {
		t.Fatal(err)
	}
	return ref, func(msg transport.Message) {
		if err := applyEmitted(ref, msg); err != nil {
			t.Fatalf("reference apply (site %d): %v", msg.SiteID, err)
		}
	}
}

// applyEmitted applies one leaf send, as OnEmit observes it, to a
// reference coordinator: deletions by model and count, everything else as
// the site update it carries.
func applyEmitted(ref *coordinator.Coordinator, msg transport.Message) error {
	if msg.Kind == transport.MsgDeletion {
		return ref.HandleDeletion(int(msg.SiteID), int(msg.ModelID), int(msg.Count))
	}
	return ref.HandleUpdate(msg.ToSiteUpdate())
}

// assertEquivalent compares the root mixture against the flat reference:
// same component count, same integer record mass, and positionally close
// weights/means/covariances (both are canonically ordered). Bit-equality
// is not expected — moment-preserving merges are associative only in
// exact arithmetic — but the drift must be at floating-point scale.
func assertEquivalent(t *testing.T, root, ref *coordinator.Coordinator) {
	t.Helper()
	rm, fm := root.GlobalMixture(), ref.GlobalMixture()
	if (rm == nil) != (fm == nil) {
		t.Fatalf("root mixture nil=%v, reference nil=%v", rm == nil, fm == nil)
	}
	if rm == nil {
		return
	}
	if math.Round(root.TotalWeight()) != math.Round(ref.TotalWeight()) {
		t.Fatalf("record mass %v (tree) vs %v (flat)", root.TotalWeight(), ref.TotalWeight())
	}
	if rm.K() != fm.K() {
		t.Fatalf("root K=%d, reference K=%d", rm.K(), fm.K())
	}
	const tol = 1e-6
	close := func(a, b float64) bool {
		return math.Abs(a-b) <= tol*(1+math.Max(math.Abs(a), math.Abs(b)))
	}
	for j := 0; j < rm.K(); j++ {
		if !close(rm.Weight(j), fm.Weight(j)) {
			t.Fatalf("component %d weight %v vs %v", j, rm.Weight(j), fm.Weight(j))
		}
		cr, cf := rm.Component(j), fm.Component(j)
		for i := 0; i < rm.Dim(); i++ {
			if !close(cr.Mean()[i], cf.Mean()[i]) {
				t.Fatalf("component %d mean %v vs %v", j, cr.Mean(), cf.Mean())
			}
		}
		for r := 0; r < rm.Dim(); r++ {
			for c := r; c < rm.Dim(); c++ {
				if !close(cr.Cov().At(r, c), cf.Cov().At(r, c)) {
					t.Fatalf("component %d cov[%d,%d] %v vs %v", j, r, c, cr.Cov().At(r, c), cf.Cov().At(r, c))
				}
			}
		}
	}
}

func TestTopologyValidation(t *testing.T) {
	if err := (&Topology{}).Validate(); err == nil {
		t.Error("empty topology accepted")
	}
	// Aggregator with no children.
	bad := Topology{
		Aggs:   []AggSpec{{Parent: 0}},
		Leaves: []LeafSpec{{Parent: 0}},
	}
	if err := bad.Validate(); err == nil {
		t.Error("childless aggregator accepted")
	}
	// Forward parent reference (cycle attempt).
	cyc := Topology{
		Aggs:   []AggSpec{{Parent: 2}, {Parent: 1}},
		Leaves: []LeafSpec{{Parent: 1}, {Parent: 2}},
	}
	if err := cyc.Validate(); err == nil {
		t.Error("forward parent reference accepted")
	}
	if err := (&Topology{Leaves: []LeafSpec{{Parent: 5}}}).Validate(); err == nil {
		t.Error("out-of-range leaf parent accepted")
	}
	if err := (&Topology{Leaves: []LeafSpec{{Link: LinkSpec{Latency: -1}}}}).Validate(); err == nil {
		t.Error("negative latency accepted")
	}
}

// TestDeploymentIndexBounds: leaf and node indices are bounds-checked, a
// leaf can crash in any deployment, and a node restart needs the durable
// store it recovers from.
func TestDeploymentIndexBounds(t *testing.T) {
	d, err := NewDeployment(Config{
		Topology: Topology{Leaves: []LeafSpec{{}, {}}}, Site: testSiteCfg(), Coord: testCoordCfg(),
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, i := range []int{-1, 2, 99} {
		if err := d.Feed(i, linalg.Vector{0}); err == nil {
			t.Errorf("Feed accepted leaf index %d", i)
		}
		if err := d.CrashLeaf(i); err == nil {
			t.Errorf("CrashLeaf accepted leaf index %d", i)
		}
		if err := d.RestartNode(i); err == nil {
			t.Errorf("RestartNode accepted node index %d", i)
		}
	}
	if err := d.CrashLeaf(0); err != nil {
		t.Errorf("leaf crash without a fault plan refused: %v", err)
	}
	if err := d.RestartNode(0); err == nil {
		t.Error("restart accepted for a node without a durable store")
	}
	d.RestartNodeAt(0, 0)
	if err := d.Drain(); err == nil {
		t.Error("scheduled restart of a node without a durable store did not surface")
	}
}

func TestBalancedSpecShapes(t *testing.T) {
	topo, err := Spec{Leaves: 500, AggLayers: 2, FanOut: 8, Link: LinkSpec{Latency: 0.01}}.Build()
	if err != nil {
		t.Fatal(err)
	}
	if topo.NumSites() != 500 {
		t.Fatalf("sites = %d", topo.NumSites())
	}
	// ceil(500/8)=63 bottom aggs, ceil(63/8)=8 above them.
	if len(topo.Aggs) != 71 {
		t.Fatalf("aggs = %d, want 63+8", len(topo.Aggs))
	}
	if topo.Depth() != 3 {
		t.Fatalf("depth = %d", topo.Depth())
	}
	layers := topo.Layers()
	if len(layers) != 3 || len(layers[0]) != 1 || len(layers[1]) != 8 || len(layers[2]) != 63 {
		t.Fatalf("layer sizes = %v", [][]int{layers[0], layers[1], layers[2]})
	}
	// Flat star.
	flat, err := Spec{Leaves: 10}.Build()
	if err != nil {
		t.Fatal(err)
	}
	if flat.NumNodes() != 1 || flat.Depth() != 1 {
		t.Fatalf("flat star: nodes=%d depth=%d", flat.NumNodes(), flat.Depth())
	}
}

// TestTreeMatchesFlatReference: Section 7's claim that layering is a
// composition, not an approximation. Every shape — the balanced tree, the
// depth-1 star of the base paper, a chain of single-child aggregators and
// a deep fan-out-2 tree — must land its root on the flat deployment of the
// same leaf updates, with traffic on every edge and a byte ledger that
// closes.
func TestTreeMatchesFlatReference(t *testing.T) {
	link := LinkSpec{Latency: 0.01}
	build := func(s Spec) Topology {
		topo, err := s.Build()
		if err != nil {
			t.Fatal(err)
		}
		return topo
	}
	cases := []struct {
		name  string
		topo  Topology
		depth int
	}{
		{"balanced", build(Spec{Leaves: 6, AggLayers: 1, FanOut: 3, Link: link}), 2},
		{"star", build(Spec{Leaves: 3, Link: link}), 1},
		{"chain", Topology{
			Aggs:   []AggSpec{{Parent: 0, Link: link}, {Parent: 1, Link: link}},
			Leaves: []LeafSpec{{Parent: 2, Link: link}},
		}, 3},
		{"deep", build(Spec{Leaves: 8, AggLayers: 2, FanOut: 2, Link: link}), 3},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := tc.topo.Depth(); got != tc.depth {
				t.Fatalf("depth = %d, want %d", got, tc.depth)
			}
			ref, onEmit := refCoordinator(t)
			d, err := NewDeployment(Config{
				Topology: tc.topo, Site: testSiteCfg(), Coord: testCoordCfg(),
				Seed: 3, ExactSync: true, OnEmit: onEmit,
			})
			if err != nil {
				t.Fatal(err)
			}
			feedAll(t, d, []float64{0, 200, -200}, 250)
			if err := d.Drain(); err != nil {
				t.Fatal(err)
			}
			if d.Pending() != 0 {
				t.Fatalf("%d frames still queued after drain", d.Pending())
			}
			if d.RootMixture() == nil {
				t.Fatal("leaf updates never reached the root")
			}
			assertEquivalent(t, d.NodeCoordinator(0), ref)
			// Byte accounting closes: per-edge wire bytes sum to the
			// totals, and per-layer sums partition them. Every edge carried
			// traffic: an aggregator whose subtree changed always uploads.
			var perEdge, perLayer int
			for _, es := range d.EdgeStatsAll() {
				if es.WireBytes == 0 {
					t.Fatalf("edge %d->%d carried nothing", es.From, es.To)
				}
				perEdge += es.WireBytes
			}
			for _, b := range d.LayerBytes() {
				perLayer += b
			}
			if perEdge != d.TotalBytes() || perLayer != d.TotalBytes() {
				t.Fatalf("edge sum %d, layer sum %d, total %d", perEdge, perLayer, d.TotalBytes())
			}
		})
	}
}

// TestStableStreamSilencesUpperLinks: once every leaf has learned its
// stationary stream, fitting chunks send nothing, so no aggregator's
// mixture changes and the root link stays silent.
func TestStableStreamSilencesUpperLinks(t *testing.T) {
	topo, err := Spec{Leaves: 4, AggLayers: 1, FanOut: 2, Link: LinkSpec{Latency: 0.01}}.Build()
	if err != nil {
		t.Fatal(err)
	}
	d, err := NewDeployment(Config{Topology: topo, Site: testSiteCfg(), Coord: testCoordCfg(), Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	feedAll(t, d, []float64{0}, 200)
	if err := d.Drain(); err != nil {
		t.Fatal(err)
	}
	learned := d.LayerBytes()[0]
	if learned == 0 {
		t.Fatal("no upload reached the root")
	}
	feedAll(t, d, []float64{0}, 600)
	if err := d.Drain(); err != nil {
		t.Fatal(err)
	}
	if got := d.LayerBytes()[0]; got != learned {
		t.Fatalf("stable stream still uploading to the root: %d -> %d bytes", learned, got)
	}
}

// TestEmptyMixtureChildren: only one subtree receives data. The aggregator
// over silent children contributes nothing and sends nothing, the root
// holds the active aggregator's one pseudo-model, and a late joiner under
// the empty aggregator surfaces at the root once its first chunk closes.
func TestEmptyMixtureChildren(t *testing.T) {
	topo, err := Spec{Leaves: 4, AggLayers: 1, FanOut: 2, Link: LinkSpec{Latency: 0.01}}.Build()
	if err != nil {
		t.Fatal(err)
	}
	d, err := NewDeployment(Config{Topology: topo, Site: testSiteCfg(), Coord: testCoordCfg(), Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(22))
	feed := func(leaf int, mean float64) {
		for rec := 0; rec < 200; rec++ {
			if err := d.Feed(leaf, linalg.Vector{mean + 4*float64(1-2*(rec%2)) + rng.NormFloat64()}); err != nil {
				t.Fatal(err)
			}
		}
		if err := d.Drain(); err != nil {
			t.Fatal(err)
		}
	}
	// Build assigns leaves round-robin: leaves 0 and 2 under node 1,
	// leaves 1 and 3 under node 2.
	feed(0, 0)
	if got := d.NodeCoordinator(2).NumModels(); got != 0 {
		t.Fatalf("silent aggregator holds %d models", got)
	}
	for _, es := range d.EdgeStatsAll() {
		if es.From == d.NodePseudoID(2) && es.WireBytes != 0 {
			t.Fatalf("silent aggregator uploaded %d bytes", es.WireBytes)
		}
	}
	if got := d.NodeCoordinator(0).NumModels(); got != 1 {
		t.Fatalf("root models = %d, want the active aggregator's 1 pseudo-model", got)
	}
	feed(3, 80)
	if got := d.NodeCoordinator(0).NumModels(); got != 2 {
		t.Fatalf("root models after late join = %d, want 2", got)
	}
	if ll := d.RootMixture().AvgLogLikelihood([]linalg.Vector{{76}, {84}}); ll < -8 {
		t.Fatalf("late joiner's regime missing from root: LL=%v", ll)
	}
}

func TestTreeMatchesFlatUnderFaults(t *testing.T) {
	topo, err := Spec{Leaves: 8, AggLayers: 2, FanOut: 3, Link: LinkSpec{Latency: 0.02}}.Build()
	if err != nil {
		t.Fatal(err)
	}
	ref, onEmit := refCoordinator(t)
	d, err := NewDeployment(Config{
		Topology: topo, Site: testSiteCfg(), Coord: testCoordCfg(),
		Seed: 4, ExactSync: true, OnEmit: onEmit,
		Fault: &netsim.FaultPlan{DropProb: 0.2, DupProb: 0.2, Rand: rand.New(rand.NewSource(4))},
	})
	if err != nil {
		t.Fatal(err)
	}
	feedAll(t, d, []float64{0, 300}, 250)
	if err := d.Drain(); err != nil {
		t.Fatal(err)
	}
	assertEquivalent(t, d.NodeCoordinator(0), ref)
	// Loss under retransmission shows up as retransmit bytes, never as a
	// broken ledger: wire = goodput + dropped on every edge.
	sawRetransmit := false
	for _, es := range d.EdgeStatsAll() {
		if es.WireBytes != es.GoodputBytes+es.DroppedBytes {
			t.Fatalf("edge %d->%d: wire %d != goodput %d + dropped %d",
				es.From, es.To, es.WireBytes, es.GoodputBytes, es.DroppedBytes)
		}
		if es.RetransmitBytes > 0 {
			sawRetransmit = true
		}
	}
	if !sawRetransmit {
		t.Fatal("20% loss produced no retransmissions")
	}
}

func TestAggregatorCrashRecovery(t *testing.T) {
	topo, err := Spec{Leaves: 6, AggLayers: 1, FanOut: 3, Link: LinkSpec{Latency: 0.01}}.Build()
	if err != nil {
		t.Fatal(err)
	}
	ref, onEmit := refCoordinator(t)
	d, err := NewDeployment(Config{
		Topology: topo, Site: testSiteCfg(), Coord: testCoordCfg(),
		Seed: 5, ExactSync: true, OnEmit: onEmit,
		Fault:    &netsim.FaultPlan{DropProb: 0.1, DupProb: 0.1, Rand: rand.New(rand.NewSource(5))},
		Crashes:  []CrashSpec{{Node: 1, Start: 0.12, End: 0.2}},
		StateDir: t.TempDir(), CheckpointEvery: 4, SelfCheck: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	feedAll(t, d, []float64{0, 250}, 400)
	if err := d.Drain(); err != nil {
		t.Fatal(err)
	}
	rec := d.Recovery()
	if rec.Restarts != 1 {
		t.Fatalf("restarts = %d, want 1", rec.Restarts)
	}
	// The recovered aggregator rejoined its parent under a bumped epoch.
	if ep := d.SenderEpoch(0, d.NodePseudoID(1)); ep < 2 {
		t.Fatalf("aggregator uplink epoch = %d after crash, want ≥ 2", ep)
	}
	assertEquivalent(t, d.NodeCoordinator(0), ref)
}

// TestDurableRootStoreLayout: a root made durable by DurableRoot alone
// keeps its store in StateDir itself, so a directory an earlier run wrote
// is recovered, not started fresh, by the next deployment on it.
func TestDurableRootStoreLayout(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{
		Topology: Topology{Leaves: []LeafSpec{{}, {}}}, Site: testSiteCfg(), Coord: testCoordCfg(),
		DurableRoot: true, StateDir: dir,
	}
	d, err := NewDeployment(cfg)
	if err != nil {
		t.Fatal(err)
	}
	feedAll(t, d, []float64{0, 200}, 300)
	if err := d.Drain(); err != nil {
		t.Fatal(err)
	}
	want := d.NodeCoordinator(0).TotalWeight()
	d.Close()
	if want == 0 {
		t.Fatal("no records reached the root")
	}
	store, rec, err := durable.Open(dir, testCoordCfg(), durable.Options{})
	if err != nil {
		t.Fatal(err)
	}
	got := rec.Coord.TotalWeight()
	store.Close()
	if got != want {
		t.Fatalf("store in StateDir recovers mass %v, the run ended at %v", got, want)
	}
	again, err := NewDeployment(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer again.Close()
	if got := again.NodeCoordinator(0).TotalWeight(); got != want {
		t.Fatalf("reopened deployment starts at mass %v, want the recovered %v", got, want)
	}
}

func TestPartitionedAggregatorCatchesUp(t *testing.T) {
	topo, err := Spec{Leaves: 4, AggLayers: 1, FanOut: 2, Link: LinkSpec{Latency: 0.01}}.Build()
	if err != nil {
		t.Fatal(err)
	}
	ref, onEmit := refCoordinator(t)
	d, err := NewDeployment(Config{
		Topology: topo, Site: testSiteCfg(), Coord: testCoordCfg(),
		Seed: 6, ExactSync: true, OnEmit: onEmit,
		NodeOutages: map[int][]netsim.Outage{1: {{Start: 0.05, End: 0.25}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	feedAll(t, d, []float64{0, 200}, 300)
	if err := d.Drain(); err != nil {
		t.Fatal(err)
	}
	assertEquivalent(t, d.NodeCoordinator(0), ref)
}
