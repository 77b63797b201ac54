package dst

import (
	"fmt"
	"math/rand"
	"os"

	"cludistream/internal/coordinator"
	"cludistream/internal/linalg"
	"cludistream/internal/netsim"
	"cludistream/internal/site"
	"cludistream/internal/tree"
)

// TreeOptions tunes a tree simulation run.
type TreeOptions struct {
	// InjectDedupeFault deliberately breaks every internal node's
	// sequence-number dedupe (tree.Deployment.InjectDedupeFault), proving
	// the per-hop exactly-once invariant catches a real regression.
	InjectDedupeFault bool
}

// TreeResult is the outcome of one tree scenario run.
type TreeResult struct {
	Scenario  TreeScenario `json:"scenario"`
	Violation *Violation   `json:"violation,omitempty"`
	// Updates counts messages applied across every internal node
	// (post-dedupe, all layers).
	Updates int `json:"updates"`
	// Fingerprint hashes the root's global mixture; RefFingerprint the
	// flat reference's. They differ only by merge-association rounding, so
	// each is individually replay-stable but they are not compared bitwise.
	Fingerprint    uint64  `json:"fingerprint"`
	RefFingerprint uint64  `json:"ref_fingerprint"`
	SimTime        float64 `json:"sim_time"`
	// LayerBytes is wire traffic by receiving layer: index 0 into the
	// root, index 1 into depth-1 aggregators, and so on.
	LayerBytes []int `json:"layer_bytes"`
	// RootMemoryBytes vs FlatMemoryBytes is the aggregation dividend: what
	// the root coordinator tracks behind the fan-in versus what a flat
	// deployment of the same sites makes one coordinator hold.
	RootMemoryBytes int                `json:"root_memory_bytes"`
	FlatMemoryBytes int                `json:"flat_memory_bytes"`
	Recovery        tree.RecoveryStats `json:"recovery"`
}

// RunTree executes one tree scenario: the full leaf→aggregator→root stack
// on the virtual clock with the per-layer invariant suite attached to
// every applied message, against a flat reference coordinator fed the
// same leaf emissions directly. It returns an error only when the
// scenario itself cannot run; invariant failures come back in
// TreeResult.Violation.
func RunTree(sc TreeScenario, opts TreeOptions) (*TreeResult, error) {
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	streams := make([][]linalg.Vector, len(sc.Sites))
	for i, script := range sc.Sites {
		streams[i] = script.stream(sc.ChunkSize, sc.Dim)
	}
	ref, err := coordinator.New(coordinator.Config{Dim: sc.Dim, Merge: mergeOpts()})
	if err != nil {
		return nil, err
	}
	chk := newTreeChecker(sc, ref)

	partitions := make(map[int][]netsim.Outage)
	for _, p := range sc.Partitions {
		partitions[p.Node] = append(partitions[p.Node], netsim.Outage{Start: p.Start, End: p.End})
	}
	cfg := tree.Config{
		Topology:    sc.Topology,
		Site:        site.Config{Dim: sc.Dim, K: sc.K, Epsilon: 0.5, ChunkSize: sc.ChunkSize},
		Coord:       coordinator.Config{Dim: sc.Dim, Merge: mergeOpts()},
		Seed:        sc.Seed,
		ArrivalRate: sc.ArrivalRate,
		// Bit-level change detection on every mirror: DST demands faithful
		// replication at every hop, not tolerance-suppressed drift.
		ExactSync: true,
		// One Rand for every edge's drops and duplicates, as in flat runs.
		// Never nil: every hop runs couriers and versioned frames, what the
		// per-hop exactly-once shadow checks.
		Fault: &netsim.FaultPlan{
			DropProb: sc.DropProb,
			DupProb:  sc.DupProb,
			Rand:     rand.New(rand.NewSource(sc.Seed*31 + 7)),
		},
		NodeOutages: partitions,
		Crashes:     sc.Crashes,
		OnApply:     chk.onApply,
		OnEmit: func(leafID int, u site.Update) {
			if err := ref.HandleUpdate(u); err != nil {
				chk.fail("delivery", fmt.Sprintf("flat reference rejected site %d's own update: %v", leafID, err))
			}
		},
	}
	if len(sc.Crashes) > 0 {
		dir, err := os.MkdirTemp("", "dst-tree-*")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
		cfg.StateDir = dir
		cfg.CheckpointEvery = sc.CheckpointEvery
		cfg.SelfCheck = true
	}
	dep, err := tree.NewDeployment(cfg)
	if err != nil {
		return nil, err
	}
	defer dep.Close()
	chk.dep = dep
	if opts.InjectDedupeFault {
		dep.InjectDedupeFault()
	}

	// Seeded interleave: which leaf advances next is part of the
	// replayable schedule. The live list is pruned in place as streams
	// exhaust — same selection semantics as the flat runner, without the
	// O(sites) rebuild per record.
	interleave := rand.New(rand.NewSource(sc.Seed*1000003 + 5))
	cursors := make([]int, len(streams))
	live := make([]int, len(streams))
	for i := range live {
		live[i] = i
	}
	for chk.violation == nil && len(live) > 0 {
		li := interleave.Intn(len(live))
		i := live[li]
		if err := dep.Feed(i, streams[i][cursors[i]]); err != nil {
			chk.fail(violationLabel(err), err.Error())
			break
		}
		cursors[i]++
		if cursors[i] == len(streams[i]) {
			live = append(live[:li], live[li+1:]...)
		}
	}
	if chk.violation == nil {
		if err := dep.Drain(); err != nil {
			chk.fail(violationLabel(err), err.Error())
		}
	}
	if chk.violation == nil {
		chk.finalChecks()
	}

	return &TreeResult{
		Scenario:        sc,
		Violation:       chk.violation,
		Updates:         chk.updates,
		Fingerprint:     Fingerprint(dep.RootMixture()),
		RefFingerprint:  Fingerprint(ref.GlobalMixture()),
		SimTime:         dep.Now(),
		LayerBytes:      dep.LayerBytes(),
		RootMemoryBytes: dep.NodeCoordinator(0).MemoryBytes(),
		FlatMemoryBytes: ref.MemoryBytes(),
		Recovery:        dep.Recovery(),
	}, nil
}
