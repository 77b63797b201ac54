package dst

import (
	"errors"
	"fmt"
	"math/rand"
	"os"

	"cludistream"
	"cludistream/internal/coordinator"
	"cludistream/internal/gaussian"
	"cludistream/internal/linalg"
	"cludistream/internal/netsim"
	"cludistream/internal/telemetry"
)

// Options tunes a simulation run.
type Options struct {
	// InjectDedupeFault deliberately breaks the coordinator's
	// sequence-number dedupe (see cludistream.System.InjectDedupeFault).
	// Used by the harness's own tests to prove the exactly-once invariant
	// catches a real regression.
	InjectDedupeFault bool
	// JournalTail is how many telemetry journal events a failure artifact
	// embeds (default 200).
	JournalTail int
}

// Violation is one invariant failure, pinned to the deterministic point
// in the run where it was detected.
type Violation struct {
	// Invariant names the violated property: "exactly-once", "event-list",
	// "fit-soundness", "comm-bound", "memory-bound", "conservation",
	// "schedule-independence", "recovery" (a coordinator restart recovered
	// to a state that differs from the persisted pre-crash state),
	// "trace-conservation" (an applied update's causal trace is missing,
	// has a broken span chain, or the cumulative span counts disagree with
	// the delivery-layer accounting), "snapshot-consistency" (a query-tier
	// snapshot published through the RCU publisher stopped matching the
	// coordinator state at its applied-update prefix, its read ops
	// diverged from the mixture's own scoring, or a pinned snapshot's
	// bytes changed under later ingest), or "delivery".
	Invariant string `json:"invariant"`
	Detail    string `json:"detail"`
	// Update is how many applied coordinator updates had been observed
	// when the violation was raised (0 = before any).
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
	// Updates is the number of coordinator updates applied (post-dedupe).
	Updates int `json:"updates"`
	// Fingerprint and CleanFingerprint are the canonical global-mixture
	// hashes of the faulty run and the fault-free reference replay; equal
	// on a green run.
	Fingerprint      uint64                    `json:"fingerprint"`
	CleanFingerprint uint64                    `json:"clean_fingerprint"`
	SimTime          float64                   `json:"sim_time"`
	Delivery         cludistream.DeliveryStats `json:"delivery"`
	// Recovery counts the coordinator crash-recovery work of the run
	// (all zeros unless the scenario restarts the coordinator).
	Recovery cludistream.RecoveryStats `json:"recovery"`
	// Journal is the tail of the telemetry decision journal (populated on
	// violation; the artifact's debugging context).
	Journal []telemetry.Event `json:"journal,omitempty"`
	// Traces is the tracer snapshot — cumulative span-name counts plus the
	// slowest ingest→visible exemplar traces on the virtual clock
	// (populated on violation; the artifact's freshness-debugging context).
	Traces *telemetry.TracerSnapshot `json:"traces,omitempty"`
}

// feedOp is one step of a site's feed plan: deliver a record, or crash.
type feedOp struct {
	x     linalg.Vector // nil means crash
	crash bool
}

// Run executes one scenario: a fault-free reference replay first, then
// the faulted run with the invariant suite attached to every applied
// update. It returns an error only when the scenario itself cannot run;
// invariant failures come back in Result.Violation.
func Run(sc Scenario, opts Options) (*Result, error) {
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	if opts.JournalTail <= 0 {
		opts.JournalTail = 200
	}
	streams := make([][]linalg.Vector, len(sc.Sites))
	for i, script := range sc.Sites {
		streams[i] = script.stream(sc.ChunkSize, sc.Dim)
	}

	cleanFP, cleanWeights, err := cleanReplay(sc, streams)
	if err != nil {
		return nil, fmt.Errorf("dst: fault-free reference replay: %w", err)
	}

	reg := telemetry.NewRegistry()
	// Tracing is always on under DST: the trace-conservation invariant
	// reads the span ledger, and the facade rebinds the tracer clock to
	// the virtual clock so every span timestamp is replayable. MaxActive
	// is sized so no trace is evicted mid-run — eviction would orphan the
	// per-trace chain checks.
	reg.EnableTracing(telemetry.TraceOptions{MaxActive: 1 << 20})
	chk, err := newChecker(sc, reg)
	if err != nil {
		return nil, err
	}
	cfg := systemConfig(sc, reg)
	if sc.hasCoordRestart() {
		// Coordinator restarts go through the real checkpoint + WAL path:
		// the durable store lives in a per-run scratch directory and the
		// byte-level self-check turns any recovery divergence into a
		// "recovery" violation.
		dir, err := os.MkdirTemp("", "dst-coord-*")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
		cfg.Durability = &cludistream.DurabilityConfig{
			Dir:             dir,
			CheckpointEvery: sc.CheckpointEvery,
			Fsync:           sc.WALFsync,
			SelfCheck:       true,
		}
	}
	cfg.OnApply = chk.onApply
	sys, err := cludistream.New(cfg)
	if err != nil {
		return nil, err
	}
	chk.sys = sys // OnApply cannot fire before the first Feed
	if opts.InjectDedupeFault {
		sys.InjectDedupeFault()
	}
	// Schedule the coordinator crashes: the process dies with the outage
	// and recovers from disk when the window lifts.
	for _, o := range sc.Outages {
		if o.CoordRestart {
			sys.RestartCoordinatorAt(o.End)
		}
	}

	// Feed plans: the stream up to the crash point, the crash, then the
	// restarted incarnation's full replay. A seeded interleave picks which
	// site advances next, so every run explores a different — but
	// replayable — delivery schedule.
	plans := make([][]feedOp, len(sc.Sites))
	for i, script := range sc.Sites {
		var plan []feedOp
		if script.CrashAfter > 0 {
			for _, x := range streams[i][:script.CrashAfter] {
				plan = append(plan, feedOp{x: x})
			}
			plan = append(plan, feedOp{crash: true})
		}
		for _, x := range streams[i] {
			plan = append(plan, feedOp{x: x})
		}
		plans[i] = plan
	}
	interleave := rand.New(rand.NewSource(sc.Seed*1000003 + 5))
	cursors := make([]int, len(plans))
	res := &Result{Scenario: sc, CleanFingerprint: cleanFP}
	for chk.violation == nil {
		var live []int
		for i, c := range cursors {
			if c < len(plans[i]) {
				live = append(live, i)
			}
		}
		if len(live) == 0 {
			break
		}
		i := live[interleave.Intn(len(live))]
		op := plans[i][cursors[i]]
		cursors[i]++
		if op.crash {
			chk.beforeCrash(i)
			if err := sys.CrashSite(i); err != nil {
				return nil, err
			}
			continue
		}
		if err := sys.Feed(i, op.x); err != nil {
			chk.fail(violationLabel(err), err.Error())
		}
	}
	if chk.violation == nil {
		if err := sys.Drain(); err != nil {
			chk.fail(violationLabel(err), err.Error())
		}
	}
	if chk.violation == nil {
		chk.finalChecks(cleanFP, cleanWeights)
	}

	res.Violation = chk.violation
	res.Updates = chk.updates
	res.Fingerprint = Fingerprint(sys.GlobalMixture())
	res.SimTime = sys.Now()
	res.Delivery = sys.DeliveryStats()
	res.Recovery = sys.Recovery()
	if res.Violation != nil {
		res.Journal = reg.Journal().Tail(opts.JournalTail)
		snap := reg.Tracer().Snapshot()
		res.Traces = &snap
	}
	return res, nil
}

// violationLabel classifies a Feed/Drain error of a flat or tree run (the
// facade's ErrRecoveryMismatch is the tree's): recovery self-check
// mismatches get their own invariant name, everything else is a delivery
// failure.
func violationLabel(err error) string {
	if errors.Is(err, cludistream.ErrRecoveryMismatch) {
		return "recovery"
	}
	return "delivery"
}

// systemConfig maps a scenario onto the facade configuration. The fault
// plan's RNG is derived from the scenario seed, so drops, duplicates and
// backoff jitter are part of the replayable schedule.
func systemConfig(sc Scenario, reg *telemetry.Registry) cludistream.Config {
	return cludistream.Config{
		NumSites:             sc.NumSites,
		Dim:                  sc.Dim,
		K:                    sc.K,
		Epsilon:              0.5,
		Seed:                 sc.Seed,
		ChunkSize:            sc.ChunkSize,
		Merge:                mergeOpts(),
		LinkLatency:          sc.LinkLatency,
		LinkBandwidth:        sc.LinkBandwidth,
		ArrivalRate:          sc.ArrivalRate,
		SlidingHorizonChunks: sc.Sliding,
		Fault: &netsim.FaultPlan{
			DropProb: sc.DropProb,
			DupProb:  sc.DupProb,
			Outages:  sc.outages(),
			Rand:     rand.New(rand.NewSource(sc.Seed*31 + 7)),
		},
		Telemetry: reg,
	}
}

// cleanReplay runs the scenario's streams through a fault-free deployment
// (perfect links, v1 encoding, no crashes) and returns the canonical
// fingerprint and per-model weights the faulted run must converge to.
func cleanReplay(sc Scenario, streams [][]linalg.Vector) (uint64, []coordinator.ModelWeight, error) {
	cfg := systemConfig(sc, nil)
	cfg.Fault = nil
	cfg.Telemetry = nil
	sys, err := cludistream.New(cfg)
	if err != nil {
		return 0, nil, err
	}
	cursors := make([]int, len(streams))
	for {
		done := true
		for i := range streams {
			if cursors[i] < len(streams[i]) {
				done = false
				if err := sys.Feed(i, streams[i][cursors[i]]); err != nil {
					return 0, nil, err
				}
				cursors[i]++
			}
		}
		if done {
			break
		}
	}
	if err := sys.Drain(); err != nil {
		return 0, nil, err
	}
	return Fingerprint(sys.GlobalMixture()), sys.Coordinator().ModelWeights(), nil
}

// mergeOpts is the coordinator merge configuration every run uses:
// moment-preserving merges are deterministic and fast, matching the
// chaos tests' recovery setup.
func mergeOpts() gaussian.MergeOptions { return gaussian.MergeOptions{MomentOnly: true} }
