// Package cludistream is a from-scratch Go implementation of CluDistream,
// the EM-based framework for clustering distributed data streams of Zhou,
// Cao, Yan, Sha and He (ICDE 2007).
//
// A System wires r remote sites to one coordinator over a simulated network
// with exact communication-cost accounting. Each site runs the paper's
// test-and-cluster strategy (Algorithm 1): incoming records are grouped
// into chunks of the Theorem-1 size M(d, ε, δ); a chunk that fits the
// current Gaussian mixture model only bumps a counter and transmits
// nothing, while a chunk that does not fit is re-clustered with EM and the
// new model synopsis is shipped to the coordinator. The coordinator merges
// per-site components into a global mixture with the M_merge / M_split /
// M_remerge criteria (Algorithm 2).
//
// The subpackages under internal/ expose the substrates — EM, Gaussian
// mixtures, the SEM baseline, stream generators, the discrete-event network
// simulator — and internal/experiments regenerates every figure of the
// paper's evaluation.
package cludistream

import (
	"fmt"

	"cludistream/internal/coordinator"
	"cludistream/internal/em"
	"cludistream/internal/gaussian"
	"cludistream/internal/linalg"
	"cludistream/internal/netsim"
	"cludistream/internal/persist"
	"cludistream/internal/site"
	"cludistream/internal/telemetry"
	"cludistream/internal/tree"
)

// Config assembles a distributed deployment. Zero values select the
// paper's defaults where one exists.
type Config struct {
	// NumSites is r, the number of remote sites (paper default 20).
	NumSites int
	// Dim is the record dimensionality d (paper default 4).
	Dim int
	// K is the number of mixture components per site model (paper default 5).
	K int
	// Epsilon is ε, the average-log-likelihood error bound (paper default
	// 0.02).
	Epsilon float64
	// FitEps optionally decouples the J_fit threshold from ε (see
	// site.Config.FitEps). Zero keeps the paper's coupling FitEps = ε.
	FitEps float64
	// Delta is δ, the probability error bound (paper default 0.01).
	Delta float64
	// CMax is c_max, the maximum tests per chunk (paper default 4).
	CMax int
	// Seed drives all deterministic initialization.
	Seed int64
	// ChunkSize overrides the Theorem-1 chunk size when positive.
	ChunkSize int
	// EM tunes the inner EM runs (tolerance ϖ, iteration caps, covariance
	// type).
	EM em.Config
	// Merge tunes the coordinator's component merging.
	Merge gaussian.MergeOptions
	// SlidingHorizonChunks, when positive, ages records out of a sliding
	// window of that many chunks per site, emitting deletion messages
	// (Section 7). Zero keeps the landmark-window behaviour.
	SlidingHorizonChunks int

	// Fault, when non-nil, subjects every site→coordinator link to the
	// given fault plan: drops, duplicates and outages. Nil keeps the links
	// fault-free. Either way each site sends through the daemons'
	// retransmitting sender with sequence-numbered, epoch-tagged frames,
	// and the coordinator dedupes so updates are applied exactly once.
	Fault *netsim.FaultPlan

	// Telemetry, when non-nil, instruments the whole deployment — sites,
	// EM runs, coordinator merges, links and senders — into the given
	// registry. Nil (the default) keeps every hot path on a bare nil
	// check; clustering output is bit-identical either way, because
	// telemetry only reads values the algorithms already computed.
	Telemetry *telemetry.Registry

	// Durability, when non-nil, makes the coordinator crash-durable: every
	// delivered payload is logged to a write-ahead log before the
	// dedupe-then-apply sequence runs, checkpoints rotate automatically,
	// and CrashCoordinator models a coordinator process dying and
	// recovering from disk.
	Durability *DurabilityConfig
}

// DurabilityConfig tunes the coordinator's checkpoint + WAL store.
type DurabilityConfig struct {
	// Dir is the state directory (required). The caller owns its
	// lifecycle; an existing directory is recovered, an empty one starts
	// fresh.
	Dir string
	// CheckpointEvery is the WAL records per automatic checkpoint
	// (default 256).
	CheckpointEvery int
	// Fsync is the WAL sync policy: "always" (default), "interval" or
	// "never" (see persist.FsyncMode).
	Fsync string
	// FsyncInterval is the records-per-sync cadence for "interval"
	// (default 32).
	FsyncInterval int
	// SelfCheck byte-compares the persisted pre-crash state against the
	// recovered state on every CrashCoordinator, surfacing any divergence
	// as ErrRecoveryMismatch. Requires Fsync "always" (weaker modes lose
	// acknowledged records by design, so the states legitimately differ).
	SelfCheck bool
}

// ErrRecoveryMismatch reports that a recovered coordinator's state is not
// bit-identical to the state persisted before the crash — a durability
// bug, surfaced by DurabilityConfig.SelfCheck.
var ErrRecoveryMismatch = tree.ErrRecoveryMismatch

// RecoveryStats counts coordinator crash-recovery work: restarts, WAL
// records re-applied, and torn-tail bytes tolerated.
type RecoveryStats = tree.RecoveryStats

// DeliveryStats aggregates the fault-tolerance accounting across the
// deployment: goodput (payload bytes that reached the coordinator, counted
// once), the retransmission overhead on top, losses, and the coordinator's
// dedupe work. Without faults or crashes only the goodput is non-zero.
type DeliveryStats = tree.DeliveryStats

func (c Config) withDefaults() Config {
	if c.NumSites == 0 {
		c.NumSites = 20
	}
	if c.Dim == 0 {
		c.Dim = 4
	}
	if c.K == 0 {
		c.K = 5
	}
	if c.Epsilon == 0 {
		c.Epsilon = 0.02
	}
	if c.Delta == 0 {
		c.Delta = 0.01
	}
	if c.CMax == 0 {
		c.CMax = 4
	}
	return c
}

// The simulated network every System runs on: a one-way site→coordinator
// delay of linkLatency simulated seconds on links of unlimited bandwidth,
// and arrivalRate records/second/site on the simulated clock (the paper's
// observed CluDistream processing rate). Under faults, sites retransmit
// with the sender's default backoff.
const (
	linkLatency = 0.05
	arrivalRate = 1000
)

// System is a running deployment: r sites, one coordinator, and the links
// between them on a discrete-event simulated network — the flat star of
// the base paper, run as a tree.Deployment with no aggregators.
type System struct {
	d *tree.Deployment
}

// New builds a System. With Config.Durability set, the coordinator is
// opened through its durable store: an existing state directory is
// recovered (checkpoint + WAL replay) and the system resumes exactly-once
// application where the persisted state left off.
func New(cfg Config) (*System, error) {
	cfg = cfg.withDefaults()
	if cfg.NumSites < 1 {
		return nil, fmt.Errorf("cludistream: NumSites = %d", cfg.NumSites)
	}
	leaves := make([]tree.LeafSpec, cfg.NumSites)
	for i := range leaves {
		leaves[i].Link = tree.LinkSpec{Latency: linkLatency}
	}
	tc := tree.Config{
		Topology: tree.Topology{Leaves: leaves},
		Site: site.Config{
			Dim:       cfg.Dim,
			K:         cfg.K,
			Epsilon:   cfg.Epsilon,
			FitEps:    cfg.FitEps,
			Delta:     cfg.Delta,
			CMax:      cfg.CMax,
			EM:        cfg.EM,
			ChunkSize: cfg.ChunkSize,
			Telemetry: cfg.Telemetry,
		},
		Coord:                coordinator.Config{Dim: cfg.Dim, Merge: cfg.Merge, Telemetry: cfg.Telemetry},
		Seed:                 cfg.Seed,
		ArrivalRate:          arrivalRate,
		SlidingHorizonChunks: cfg.SlidingHorizonChunks,
		Fault:                cfg.Fault,
		Telemetry:            cfg.Telemetry,
	}
	if dur := cfg.Durability; dur != nil {
		mode, err := persist.ParseFsyncMode(dur.Fsync)
		if err != nil {
			return nil, err
		}
		tc.DurableRoot, tc.StateDir = true, dur.Dir
		tc.CheckpointEvery, tc.Fsync, tc.FsyncInterval = dur.CheckpointEvery, mode, dur.FsyncInterval
		tc.SelfCheck = dur.SelfCheck
	}
	d, err := tree.NewDeployment(tc)
	if err != nil {
		return nil, err
	}
	return &System{d: d}, nil
}

// Feed delivers one record to site siteIdx (0-based). The simulated clock
// advances to the record's arrival time (records arrive at 1000 per second
// per site); any updates the site emits are encoded and sent on the site's
// link. A delivery failure inside the simulation surfaces here.
func (s *System) Feed(siteIdx int, x linalg.Vector) error { return s.d.Feed(siteIdx, x) }

// CrashSite models a site process dying and restarting, with or without a
// fault plan: the in-memory site state and any queued retransmissions are
// lost, and the replacement site — same configuration and seed — comes
// back with a higher epoch and a fresh sequence space, so the coordinator
// discards the dead incarnation's contribution on the restarted site's
// first frame.
func (s *System) CrashSite(siteIdx int) error { return s.d.CrashLeaf(siteIdx) }

// CrashCoordinator models the coordinator process dying and recovering
// from its durable store (requires Config.Durability): the in-memory
// coordinator and dedupe table are dropped, the WAL is abandoned without
// flushing, and the replacement coordinator is rebuilt from the latest
// checkpoint plus the surviving WAL tail. Queued site retransmissions
// are unaffected — sites keep retrying through the outage, and the
// recovered dedupe table drops what was already applied. With
// DurabilityConfig.SelfCheck, a recovered state that differs from the
// persisted pre-crash state returns ErrRecoveryMismatch.
func (s *System) CrashCoordinator() error { return s.d.RestartNode(0) }

// RestartCoordinatorAt schedules a CrashCoordinator at simulated time t,
// the end of a coordinator-restart outage window: arrivals in the window
// are already lost to the outage, and the coordinator recovers from disk
// when it ends. A recovery failure surfaces from the next Feed or Drain.
func (s *System) RestartCoordinatorAt(t float64) { s.d.RestartNodeAt(0, t) }

// Recovery returns the accumulated coordinator crash-recovery counters.
func (s *System) Recovery() RecoveryStats { return s.d.Recovery() }

// FeedRoundRobin distributes the records across all sites in round-robin
// order — the simplest way to drive a whole deployment from one stream.
func (s *System) FeedRoundRobin(records []linalg.Vector) error {
	for i, x := range records {
		if err := s.Feed(i%s.NumSites(), x); err != nil {
			return err
		}
	}
	return nil
}

// Drain runs the simulation until all in-flight messages are delivered.
// Call it before reading coordinator state at the end of a run.
func (s *System) Drain() error { return s.d.Drain() }

// GlobalMixture returns the coordinator's merged model (after Drain).
func (s *System) GlobalMixture() *gaussian.Mixture { return s.d.RootMixture() }

// Site returns site i (0-based).
func (s *System) Site(i int) *site.Site { return s.d.LeafSite(i) }

// NumSites returns r.
func (s *System) NumSites() int { return s.d.NumSites() }

// Coordinator exposes the coordinator for inspection.
func (s *System) Coordinator() *coordinator.Coordinator { return s.d.NodeCoordinator(0) }

// Now returns the simulated time in seconds.
func (s *System) Now() float64 { return s.d.Now() }

// TotalBytes returns the total site→coordinator traffic so far.
func (s *System) TotalBytes() int { return s.d.TotalBytes() }

// DeliveryStats returns the current fault-tolerance counters.
func (s *System) DeliveryStats() DeliveryStats { return s.d.DeliveryStats() }

// TotalMessages returns the number of messages sent.
func (s *System) TotalMessages() int { return s.d.TotalMessages() }

// CostSeries returns the cumulative communication cost sampled every width
// simulated seconds — the paper's per-second cost collection.
func (s *System) CostSeries(width float64) []int { return s.d.CostSeries(width) }

// ChunkSize returns the chunk size M in effect at every site.
func (s *System) ChunkSize() int { return s.d.LeafSite(0).ChunkSize() }
