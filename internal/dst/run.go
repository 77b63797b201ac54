package dst

import (
	"errors"
	"fmt"
	"math/rand"
	"os"

	"cludistream/internal/coordinator"
	"cludistream/internal/gaussian"
	"cludistream/internal/linalg"
	"cludistream/internal/netsim"
	"cludistream/internal/persist"
	"cludistream/internal/query"
	"cludistream/internal/site"
	"cludistream/internal/telemetry"
	"cludistream/internal/tree"
)

// Options tunes a simulation run.
type Options struct {
	// InjectDedupeFault deliberately breaks every node's sequence-number
	// dedupe (tree.Deployment.InjectDedupeFault). Used by the harness's own
	// tests to prove the exactly-once invariant catches a real regression.
	InjectDedupeFault bool
}

// journalTail is how many telemetry journal events a failure artifact
// embeds.
const journalTail = 200

// Violation is one invariant failure, pinned to the deterministic point
// in the run where it was detected.
type Violation struct {
	// Invariant names the violated property: "exactly-once", "event-list",
	// "fit-soundness", "comm-bound", "memory-bound", "upload-protocol",
	// "conservation", "schedule-independence", "recovery" (a restarted or
	// crashed node recovered to a state that differs from its persisted
	// pre-crash state), "trace-conservation" (an applied update's causal
	// trace is missing, has a broken span chain, or the cumulative span
	// counts disagree with the delivery-layer accounting),
	// "snapshot-consistency" (a query-tier snapshot published through the
	// RCU publisher stopped matching the root's state at its applied-update
	// prefix, its read ops diverged from the mixture's own scoring, or a
	// pinned snapshot's bytes changed under later ingest), or "delivery".
	Invariant string `json:"invariant"`
	Detail    string `json:"detail"`
	// Update is how many applied messages, over every node, had been
	// observed when the violation was raised (0 = before any).
	Update int `json:"update"`
	// SimTime is the virtual clock at detection.
	SimTime float64 `json:"sim_time"`
}

func (v Violation) Error() string {
	return fmt.Sprintf("dst: %s invariant violated at update %d (t=%.3fs): %s", v.Invariant, v.Update, v.SimTime, v.Detail)
}

// Result is the outcome of one scenario run.
type Result struct {
	Scenario  Scenario   `json:"scenario"`
	Violation *Violation `json:"violation,omitempty"`
	// Updates counts messages applied across every internal node
	// (post-dedupe, all layers).
	Updates int `json:"updates"`
	// Fingerprint and RefFingerprint are the canonical hashes of the root's
	// global mixture and of the emission reference's: equal on a green run
	// without aggregators, and apart by merge association otherwise.
	Fingerprint    uint64             `json:"fingerprint"`
	RefFingerprint uint64             `json:"ref_fingerprint"`
	SimTime        float64            `json:"sim_time"`
	Delivery       tree.DeliveryStats `json:"delivery"`
	Recovery       tree.RecoveryStats `json:"recovery"`
	// LayerBytes is wire traffic by receiving layer: index 0 into the
	// root, index 1 into depth-1 aggregators, and so on.
	LayerBytes []int `json:"layer_bytes"`
	// RootMemoryBytes vs RefMemoryBytes is the aggregation dividend: what
	// the root tracks behind the fan-in versus what one coordinator holds
	// for every site's models.
	RootMemoryBytes int `json:"root_memory_bytes"`
	RefMemoryBytes  int `json:"ref_memory_bytes"`
	// Journal is the tail of the telemetry decision journal (populated on
	// violation; the artifact's debugging context).
	Journal []telemetry.Event `json:"journal,omitempty"`
	// Traces is the tracer snapshot — cumulative span-name counts plus the
	// slowest ingest→visible exemplar traces on the virtual clock
	// (populated on violation; the artifact's freshness-debugging context).
	Traces *telemetry.TracerSnapshot `json:"traces,omitempty"`
}

// Run executes one scenario with the invariant suite attached to every
// message applied at every internal node. It returns an error only when
// the scenario itself cannot run; invariant failures come back in
// Result.Violation.
func Run(sc Scenario, opts Options) (*Result, error) {
	res, _, err := run(sc, opts)
	return res, err
}

// run is Run, also handing back the checker so tests can inspect the
// final root and reference coordinators.
func run(sc Scenario, opts Options) (*Result, *checker, error) {
	if err := sc.Validate(); err != nil {
		return nil, nil, err
	}
	streams := make([][]linalg.Vector, len(sc.Sites))
	for i, script := range sc.Sites {
		streams[i] = script.stream(sc.ChunkSize, sc.Dim)
	}

	reg := telemetry.NewRegistry()
	// Tracing is always on under DST: the trace-conservation invariant
	// reads the span ledger, and the deployment binds the tracer clock to
	// the virtual clock so every span timestamp is replayable. MaxActive is
	// sized so no trace is evicted mid-run — eviction would orphan the
	// per-trace chain checks.
	reg.EnableTracing(telemetry.TraceOptions{MaxActive: 1 << 20})
	chk, err := newChecker(sc, reg)
	if err != nil {
		return nil, nil, err
	}
	outages := make(map[int][]netsim.Outage)
	for _, o := range sc.Outages {
		outages[o.Node] = append(outages[o.Node], netsim.Outage{Start: o.Start, End: o.End})
	}
	cfg := tree.Config{
		Topology:             sc.Topology,
		Site:                 site.Config{Dim: sc.Dim, K: sc.K, Epsilon: 0.5, ChunkSize: sc.ChunkSize, Telemetry: reg},
		Coord:                coordinator.Config{Dim: sc.Dim, Merge: mergeOpts(), Telemetry: reg},
		Seed:                 sc.Seed,
		ArrivalRate:          sc.ArrivalRate,
		SlidingHorizonChunks: sc.Sliding,
		// Bit-level change detection on every mirror: DST demands faithful
		// replication at every hop, not tolerance-suppressed drift.
		ExactSync: true,
		// One Rand, derived from the seed, for every edge's drops and
		// duplicates.
		Fault: &netsim.FaultPlan{
			DropProb: sc.DropProb,
			DupProb:  sc.DupProb,
			Rand:     rand.New(rand.NewSource(sc.Seed*31 + 7)),
		},
		NodeOutages: outages,
		Crashes:     sc.Crashes,
		Telemetry:   reg,
		OnApply:     chk.onApply,
		OnEmit:      chk.onEmit,
	}
	if sc.restarts() || len(sc.Crashes) > 0 {
		// Recoveries go through the real checkpoint + WAL path: the durable
		// stores live in a per-run scratch directory and the byte-level
		// self-check turns any recovery divergence into a "recovery"
		// violation.
		dir, err := os.MkdirTemp("", "dst-*")
		if err != nil {
			return nil, nil, err
		}
		defer os.RemoveAll(dir)
		cfg.DurableRoot = sc.restarts()
		cfg.StateDir = dir
		cfg.CheckpointEvery = sc.CheckpointEvery
		cfg.Fsync = persist.FsyncMode(sc.WALFsync)
		cfg.SelfCheck = true
	}
	dep, err := tree.NewDeployment(cfg)
	if err != nil {
		return nil, nil, err
	}
	defer dep.Close()
	chk.dep = dep // OnApply and OnEmit cannot fire before the first Feed
	chk.pub = query.NewPublisher(query.Options{Clock: dep.Now})
	if opts.InjectDedupeFault {
		dep.InjectDedupeFault()
	}
	// A root restart dies with its outage and recovers from disk when the
	// window lifts.
	for _, o := range sc.Outages {
		if o.Restart {
			dep.RestartNodeAt(0, o.End)
		}
	}

	// Each site's feed is its stream up to the crash point, the crash, then
	// the restarted incarnation's full replay. A seeded interleave picks
	// which site advances next, so every run explores a different — but
	// replayable — delivery schedule; the live list is pruned in place as
	// feeds exhaust.
	feedLen := func(i int) int {
		if k := sc.Sites[i].CrashAfter; k > 0 {
			return k + 1 + len(streams[i])
		}
		return len(streams[i])
	}
	interleave := rand.New(rand.NewSource(sc.Seed*1000003 + 5))
	cursors := make([]int, len(streams))
	live := make([]int, len(streams))
	for i := range live {
		live[i] = i
	}
	for chk.violation == nil && len(live) > 0 {
		li := interleave.Intn(len(live))
		i := live[li]
		c := cursors[i]
		cursors[i]++
		if cursors[i] == feedLen(i) {
			live = append(live[:li], live[li+1:]...)
		}
		if k := sc.Sites[i].CrashAfter; k > 0 && c >= k {
			if c == k {
				chk.crashLeaf(i)
				if err := dep.CrashLeaf(i); err != nil {
					return nil, nil, err
				}
				continue
			}
			c -= k + 1
		}
		if err := dep.Feed(i, streams[i][c]); err != nil {
			chk.fail(violationLabel(err), err.Error())
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

	res := &Result{
		Scenario:        sc,
		Violation:       chk.violation,
		Updates:         chk.updates,
		Fingerprint:     Fingerprint(dep.RootMixture()),
		RefFingerprint:  Fingerprint(chk.ref.GlobalMixture()),
		SimTime:         dep.Now(),
		Delivery:        dep.DeliveryStats(),
		Recovery:        dep.Recovery(),
		LayerBytes:      dep.LayerBytes(),
		RootMemoryBytes: dep.NodeCoordinator(0).MemoryBytes(),
		RefMemoryBytes:  chk.ref.MemoryBytes(),
	}
	if res.Violation != nil {
		res.Journal = reg.Journal().Tail(journalTail)
		snap := reg.Tracer().Snapshot()
		res.Traces = &snap
	}
	return res, chk, nil
}

// violationLabel classifies a Feed/Drain error: recovery self-check
// mismatches get their own invariant name, everything else is a delivery
// failure.
func violationLabel(err error) string {
	if errors.Is(err, tree.ErrRecoveryMismatch) {
		return "recovery"
	}
	return "delivery"
}

// mergeOpts is the coordinator merge configuration every run uses:
// moment-preserving merges are deterministic and fast, matching the
// chaos tests' recovery setup.
func mergeOpts() gaussian.MergeOptions { return gaussian.MergeOptions{MomentOnly: true} }
