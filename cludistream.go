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
	"bytes"
	"errors"
	"fmt"
	"math/rand"

	"cludistream/internal/coordinator"
	"cludistream/internal/durable"
	"cludistream/internal/em"
	"cludistream/internal/gaussian"
	"cludistream/internal/linalg"
	"cludistream/internal/netsim"
	"cludistream/internal/persist"
	"cludistream/internal/site"
	"cludistream/internal/telemetry"
	"cludistream/internal/transport"
	"cludistream/internal/window"
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
	// SharpTest selects the max-component J_fit statistic.
	SharpTest bool
	// UseSMEM clusters chunks with split-and-merge EM (requires K ≥ 3).
	UseSMEM bool
	// AutoKMax, when positive, lets every site pick each model's K by BIC
	// over [AutoKMin, AutoKMax] instead of the fixed K.
	AutoKMax int
	// AutoKMin is the lower bound of the AutoKMax sweep (default 1).
	AutoKMin int
	// WarmStart controls whether sites seed EM refits from the
	// best-scoring archived model when the chunk drifted only slightly
	// past the fit threshold (see site.Config.WarmStart). Empty selects
	// site.WarmStartOn; site.WarmStartCold restores cold k-means++ inits.
	WarmStart string
	// WarmAuditEvery audits every Nth warm refit against a cold run and
	// keeps the higher-likelihood model (default 8; see site.Config).
	WarmAuditEvery int
	// WarmMargin bounds how far past the fit threshold a chunk may land
	// while still warm-starting (default 4×FitEps; negative disables the
	// bound; see site.Config.WarmMargin).
	WarmMargin float64

	// LinkLatency is the one-way site→coordinator delay in simulated
	// seconds (default 0.05).
	LinkLatency float64
	// LinkBandwidth is bytes/second per link; 0 means unlimited.
	LinkBandwidth float64
	// ArrivalRate is records/second/site on the simulated clock (default
	// 1000, the paper's observed CluDistream processing rate).
	ArrivalRate float64

	// SlidingHorizonChunks, when positive, ages records out of a sliding
	// window of that many chunks per site, emitting deletion messages
	// (Section 7). Zero keeps the landmark-window behaviour.
	SlidingHorizonChunks int

	// Fault, when non-nil, subjects every site→coordinator link to the
	// given fault plan and switches delivery to fault-tolerant mode: each
	// site sends through a retransmitting Courier with sequence-numbered,
	// epoch-tagged messages, and the coordinator dedupes so updates are
	// applied exactly once. Nil keeps perfect links and the legacy v1
	// encoding, preserving the figures' byte-for-byte cost model.
	Fault *netsim.FaultPlan
	// RetryBackoff is the couriers' first retransmit delay in simulated
	// seconds (default 0.1); it doubles per failure up to RetryMaxBackoff
	// (default 2) with deterministic jitter.
	RetryBackoff    float64
	RetryMaxBackoff float64

	// Telemetry, when non-nil, instruments the whole deployment — sites,
	// EM runs, coordinator merges, links and couriers — into the given
	// registry. Nil (the default) keeps every hot path on a bare nil
	// check; clustering output is bit-identical either way, because
	// telemetry only reads values the algorithms already computed.
	Telemetry *telemetry.Registry

	// OnApply, when non-nil, is invoked inside the simulation immediately
	// after a delivered message is applied to the coordinator — after the
	// exactly-once dedupe let it through. The deterministic simulation
	// tests hang their per-update invariant suite on this hook; it must
	// not mutate the system. Duplicates and stale-epoch messages that the
	// dedupe drops never reach it.
	OnApply func(transport.Message)

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
var ErrRecoveryMismatch = errors.New("cludistream: recovered coordinator state differs from pre-crash state")

// RecoveryStats counts coordinator crash-recovery work.
type RecoveryStats struct {
	// Restarts is how many times CrashCoordinator ran.
	Restarts int
	// RecordsReplayed is the total WAL records re-applied across restarts.
	RecordsReplayed int
	// TornBytes is the total torn-tail bytes recovery tolerated.
	TornBytes int
}

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
	if c.LinkLatency == 0 {
		c.LinkLatency = 0.05
	}
	if c.ArrivalRate == 0 {
		c.ArrivalRate = 1000
	}
	if c.RetryBackoff == 0 {
		c.RetryBackoff = 0.1
	}
	if c.RetryMaxBackoff == 0 {
		c.RetryMaxBackoff = 2
	}
	return c
}

// System is a running deployment: r sites, one coordinator, and the links
// between them on a discrete-event simulated network.
type System struct {
	cfg      Config
	sim      *netsim.Simulator
	sites    []*site.Site
	siteCfgs []site.Config // kept verbatim so CrashSite can rebuild a site
	trackers []*window.Tracker
	links    []*netsim.Link
	fed      []int // records fed per site (drives the virtual clock)

	// recv is the coordinator's receive step, the one netio.Server runs:
	// the coordinator, its exactly-once dedupe table (seq-0 messages from
	// perfect links bypass it) and, with cfg.Durability, the store.
	recv  durable.Receiver
	recov RecoveryStats

	// Fault-tolerant mode (cfg.Fault != nil): per-site couriers, sender
	// epochs and sequence numbers.
	couriers []*netsim.Courier
	epochs   []uint32
	seqs     []uint64

	// Facade-level delivery instruments (nil ⇒ no-op).
	teleDedupe *telemetry.Counter
	teleResets *telemetry.Counter
	// tracer is the registry's tracer when Config.Telemetry has tracing
	// enabled (nil otherwise). The facade rebinds its clock to the
	// simulator so every span timestamp is virtual time — deterministic
	// under DST, and the freshness SLOs measure simulated lag.
	tracer *telemetry.Tracer

	// dedupeBroken disables the sequence-number half of the exactly-once
	// dedupe — a deliberately injected bug used by the deterministic
	// simulation tests to prove their invariant suite has teeth. Never set
	// in production paths; see InjectDedupeFault. Mirrored into the dedupe
	// table so it survives coordinator restarts.
	dedupeBroken bool

	deliveryErr error
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
	s := &System{
		cfg: cfg,
		sim: netsim.NewSimulator(),
		fed: make([]int, cfg.NumSites),
	}
	coordCfg := coordinator.Config{Dim: cfg.Dim, Merge: cfg.Merge, Telemetry: cfg.Telemetry}
	if cfg.Durability != nil {
		opts, err := cfg.Durability.storeOptions(cfg.Telemetry)
		if err != nil {
			return nil, err
		}
		store, rec, err := durable.Open(cfg.Durability.Dir, coordCfg, opts)
		if err != nil {
			return nil, err
		}
		s.recv = durable.Receiver{Coord: rec.Coord, Dedupe: rec.Dedupe, Store: store}
	} else {
		coord, err := coordinator.New(coordCfg)
		if err != nil {
			return nil, err
		}
		s.recv = durable.Receiver{Coord: coord, Dedupe: durable.NewDedupe()}
	}
	if cfg.Telemetry != nil {
		s.teleDedupe = cfg.Telemetry.Counter("coord.dedupe_dropped")
		s.teleResets = cfg.Telemetry.Counter("coord.epoch_resets")
		if tr := cfg.Telemetry.Tracer(); tr != nil {
			tr.SetClock(s.sim.Now)
			s.tracer = tr
			s.recv.Tracer = tr
		}
	}
	// A reset is counted before the observer runs, so the telemetry it
	// reads agrees with DeliveryStats.
	s.recv.OnApply = func(msg transport.Message, v durable.Verdict) {
		if v == durable.AdmitNewEpoch {
			s.teleResets.Inc()
		}
		if cfg.OnApply != nil {
			cfg.OnApply(msg)
		}
	}
	if cfg.Fault != nil {
		s.epochs = make([]uint32, cfg.NumSites)
		s.seqs = make([]uint64, cfg.NumSites)
	}
	for i := 0; i < cfg.NumSites; i++ {
		sc := site.Config{
			SiteID:         i + 1,
			Dim:            cfg.Dim,
			K:              cfg.K,
			Epsilon:        cfg.Epsilon,
			FitEps:         cfg.FitEps,
			Delta:          cfg.Delta,
			CMax:           cfg.CMax,
			EM:             cfg.EM,
			Seed:           cfg.Seed + int64(i)*7919, // distinct, deterministic
			SharpTest:      cfg.SharpTest,
			UseSMEM:        cfg.UseSMEM,
			AutoKMax:       cfg.AutoKMax,
			AutoKMin:       cfg.AutoKMin,
			ChunkSize:      cfg.ChunkSize,
			WarmStart:      cfg.WarmStart,
			WarmAuditEvery: cfg.WarmAuditEvery,
			WarmMargin:     cfg.WarmMargin,
			// Sliding windows require the coordinator's weights to track
			// the site counters, or deletions would underflow.
			EmitFitWeightUpdates: cfg.SlidingHorizonChunks > 0,
			Telemetry:            cfg.Telemetry,
		}
		st, err := site.New(sc)
		if err != nil {
			return nil, err
		}
		s.siteCfgs = append(s.siteCfgs, sc)
		s.sites = append(s.sites, st)
		link, err := s.sim.NewFaultyLink(cfg.LinkLatency, cfg.LinkBandwidth, cfg.Fault, s.deliver)
		if err != nil {
			return nil, err
		}
		link.SetTelemetry(cfg.Telemetry)
		s.links = append(s.links, link)
		if cfg.Fault != nil {
			s.epochs[i] = 1
			rng := rand.New(rand.NewSource(cfg.Seed + 104729*int64(i+1)))
			cour, err := s.sim.NewCourier(link, cfg.RetryBackoff, cfg.RetryMaxBackoff, rng)
			if err != nil {
				return nil, err
			}
			cour.SetTelemetry(cfg.Telemetry)
			s.couriers = append(s.couriers, cour)
		}
		if cfg.SlidingHorizonChunks > 0 {
			tr, err := window.NewTracker(st, cfg.SlidingHorizonChunks)
			if err != nil {
				return nil, err
			}
			s.trackers = append(s.trackers, tr)
		}
	}
	return s, nil
}

// storeOptions maps the facade durability knobs onto durable.Options.
func (d *DurabilityConfig) storeOptions(reg *telemetry.Registry) (durable.Options, error) {
	if d.Dir == "" {
		return durable.Options{}, fmt.Errorf("cludistream: Durability.Dir is required")
	}
	mode, err := persist.ParseFsyncMode(d.Fsync)
	if err != nil {
		return durable.Options{}, err
	}
	if d.SelfCheck && mode != persist.FsyncAlways {
		return durable.Options{}, fmt.Errorf("cludistream: Durability.SelfCheck requires Fsync %q, got %q", persist.FsyncAlways, mode)
	}
	return durable.Options{
		CheckpointEvery: d.CheckpointEvery,
		Fsync:           mode,
		FsyncInterval:   d.FsyncInterval,
		Telemetry:       reg,
	}, nil
}

// deliver runs inside the simulation when a message arrives at the
// coordinator: the receive step netio.Server runs (WAL append in durable
// mode, exactly-once dedupe of sequence-numbered messages, epoch reset,
// apply, checkpoint). The first error is kept and surfaces from the next
// Feed or Drain.
func (s *System) deliver(payload []byte) {
	msg, err := transport.Decode(payload)
	if err != nil {
		s.deliveryErr = err
		return
	}
	res := s.recv.Receive(payload, msg)
	if err := res.Err(); err != nil && s.deliveryErr == nil {
		s.deliveryErr = err
	}
	if res.AppendErr == nil && res.Verdict.Dropped() {
		s.teleDedupe.Inc()
	}
}

// InjectDedupeFault deliberately breaks the sequence-number dedupe so
// duplicate deliveries are applied twice. It exists solely for the
// deterministic simulation tests (internal/dst), which use it to prove
// the exactly-once invariant catches a real dedupe regression; calling it
// anywhere else forfeits the exactly-once guarantee.
func (s *System) InjectDedupeFault() {
	s.dedupeBroken = true
	s.recv.Dedupe.Broken = true
}

// Feed delivers one record to site siteIdx (0-based). The simulated clock
// advances to the record's arrival time (records arrive at ArrivalRate per
// site); any updates the site emits are encoded and sent on the site's
// link.
func (s *System) Feed(siteIdx int, x linalg.Vector) error {
	if siteIdx < 0 || siteIdx >= len(s.sites) {
		return fmt.Errorf("cludistream: site index %d of %d", siteIdx, len(s.sites))
	}
	t := float64(s.fed[siteIdx]) / s.cfg.ArrivalRate
	s.fed[siteIdx]++
	s.sim.RunUntil(t)

	ups, err := s.sites[siteIdx].Observe(x)
	if err != nil {
		return err
	}
	for _, u := range ups {
		s.sendUpdate(siteIdx, u)
	}
	if s.trackers != nil {
		// Deletions ride the trace of the chunk whose completion expired
		// them: the site has no Update in hand, so the trace context comes
		// from the last minted chunk trace.
		delTrace, delSpan := s.sites[siteIdx].LastTrace()
		for _, d := range s.trackers[siteIdx].Expire(siteIdx + 1) {
			s.send(siteIdx, transport.Message{
				Kind:    transport.MsgDeletion,
				SiteID:  int32(d.SiteID),
				ModelID: int32(d.ModelID),
				Count:   int64(d.Count),
				TraceID: delTrace,
				SpanID:  delSpan,
			})
		}
	}
	return s.deliveryErr
}

// sendUpdate routes one site update to the coordinator. Under a sliding
// window the site's tracker upgrades a WeightUpdate for a model the
// coordinator has drained to a full NewModel synopsis (see
// window.Tracker.Send).
func (s *System) sendUpdate(siteIdx int, u site.Update) {
	if s.trackers != nil {
		u = s.trackers[siteIdx].Send(u)
	}
	s.send(siteIdx, transport.FromSiteUpdate(u))
}

// send routes one message onto site siteIdx's link. In fault-tolerant mode
// the message is stamped with the site's epoch and next sequence number
// and handed to the retransmitting courier; otherwise it goes straight on
// the perfect link in the legacy v1 encoding.
func (s *System) send(siteIdx int, msg transport.Message) {
	if s.tracer != nil && msg.TraceID != 0 {
		// Enqueue is a point span: in the simulation the outbox hands the
		// payload to the link/courier at the same virtual instant.
		now := s.tracer.Now()
		s.tracer.Record(msg.TraceID, msg.SpanID, "enqueue",
			int(msg.SiteID), int(msg.ModelID), now, now, msg.WireSize(), "")
	}
	if s.couriers == nil {
		s.links[siteIdx].TrySendTraced(transport.Encode(msg), false, msg.TraceID, msg.SpanID)
		return
	}
	s.seqs[siteIdx]++
	msg.Seq = s.seqs[siteIdx]
	msg.Epoch = s.epochs[siteIdx]
	s.couriers[siteIdx].SendTraced(transport.Encode(msg), msg.TraceID, msg.SpanID)
}

// CrashSite models a site process dying and restarting (fault-tolerant
// mode only): the in-memory site state and any queued retransmissions are
// lost, and the replacement site — same configuration and seed — comes
// back with a higher epoch and a fresh sequence space, so the coordinator
// discards the dead incarnation's contribution when the restarted site
// replays its stream from the beginning.
func (s *System) CrashSite(siteIdx int) error {
	if siteIdx < 0 || siteIdx >= len(s.sites) {
		return fmt.Errorf("cludistream: site index %d of %d", siteIdx, len(s.sites))
	}
	if s.couriers == nil {
		return fmt.Errorf("cludistream: CrashSite requires fault-tolerant mode (Config.Fault)")
	}
	st, err := site.New(s.siteCfgs[siteIdx])
	if err != nil {
		return err
	}
	s.sites[siteIdx] = st
	if s.trackers != nil {
		tr, err := window.NewTracker(st, s.cfg.SlidingHorizonChunks)
		if err != nil {
			return err
		}
		s.trackers[siteIdx] = tr
	}
	s.couriers[siteIdx].Crash()
	s.epochs[siteIdx]++
	s.seqs[siteIdx] = 0
	s.fed[siteIdx] = 0
	return nil
}

// CrashCoordinator models the coordinator process dying and recovering
// from its durable store (requires Config.Durability): the in-memory
// coordinator and dedupe table are dropped, the WAL is abandoned without
// flushing (records an fsync policy weaker than "always" had not synced
// are lost, exactly as a real crash would lose them), and the replacement
// coordinator is rebuilt from the latest checkpoint plus the surviving
// WAL tail. Queued courier retransmissions are unaffected — sites keep
// retrying through the outage, and the recovered dedupe table drops what
// was already applied.
//
// With DurabilityConfig.SelfCheck, the persisted pre-crash state is
// byte-compared against the recovered state and any divergence returns
// ErrRecoveryMismatch.
func (s *System) CrashCoordinator() error {
	if s.recv.Store == nil {
		return fmt.Errorf("cludistream: CrashCoordinator requires Config.Durability")
	}
	var want []byte
	if s.cfg.Durability.SelfCheck {
		var err error
		if want, err = encodeState(&s.recv); err != nil {
			return err
		}
	}
	if err := s.recv.Store.Crash(); err != nil {
		return err
	}
	opts, err := s.cfg.Durability.storeOptions(s.cfg.Telemetry)
	if err != nil {
		return err
	}
	coordCfg := coordinator.Config{Dim: s.cfg.Dim, Merge: s.cfg.Merge, Telemetry: s.cfg.Telemetry}
	store, rec, err := durable.Open(s.cfg.Durability.Dir, coordCfg, opts)
	if err != nil {
		return err
	}
	s.recv.Store, s.recv.Coord, s.recv.Dedupe = store, rec.Coord, rec.Dedupe
	s.recv.Dedupe.Broken = s.dedupeBroken
	s.recov.Restarts++
	s.recov.RecordsReplayed += rec.RecordsReplayed
	s.recov.TornBytes += rec.TornBytes
	if want != nil {
		got, err := encodeState(&s.recv)
		if err != nil {
			return err
		}
		if !bytes.Equal(want, got) {
			return fmt.Errorf("%w (pre-crash %d bytes, recovered %d bytes)", ErrRecoveryMismatch, len(want), len(got))
		}
	}
	return nil
}

// RestartCoordinatorAt schedules a CrashCoordinator at simulated time t —
// how the deterministic simulation tests model a coordinator-restart
// outage window: the coordinator dies at the window's start (arrivals in
// the window are already lost to the outage) and recovers from disk at
// its end. A recovery failure surfaces from the next Feed or Drain.
func (s *System) RestartCoordinatorAt(t float64) {
	s.sim.ScheduleAt(t, func() {
		if err := s.CrashCoordinator(); err != nil && s.deliveryErr == nil {
			s.deliveryErr = err
		}
	})
}

// Recovery returns the accumulated coordinator crash-recovery counters.
func (s *System) Recovery() RecoveryStats { return s.recov }

// encodeState serializes the full durable state for self-check
// comparison.
func encodeState(r *durable.Receiver) ([]byte, error) {
	var buf bytes.Buffer
	st := &persist.CoordinatorState{Applied: r.Store.Applied(), Snapshot: r.Coord.Snapshot(), Dedupe: r.Dedupe.Entries()}
	if err := persist.SaveCoordinatorState(&buf, st); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// FeedRoundRobin distributes the records across all sites in round-robin
// order — the simplest way to drive a whole deployment from one stream.
func (s *System) FeedRoundRobin(records []linalg.Vector) error {
	for i, x := range records {
		if err := s.Feed(i%len(s.sites), x); err != nil {
			return err
		}
	}
	return nil
}

// Drain runs the simulation until all in-flight messages are delivered.
// Call it before reading coordinator state at the end of a run.
func (s *System) Drain() error {
	s.sim.Run()
	return s.deliveryErr
}

// GlobalMixture returns the coordinator's merged model (after Drain).
func (s *System) GlobalMixture() *gaussian.Mixture { return s.recv.Coord.GlobalMixture() }

// Site returns site i (0-based).
func (s *System) Site(i int) *site.Site { return s.sites[i] }

// NumSites returns r.
func (s *System) NumSites() int { return len(s.sites) }

// Coordinator exposes the coordinator for inspection.
func (s *System) Coordinator() *coordinator.Coordinator { return s.recv.Coord }

// Now returns the simulated time in seconds.
func (s *System) Now() float64 { return s.sim.Now() }

// TotalBytes returns the total site→coordinator traffic so far.
func (s *System) TotalBytes() int {
	var total int
	for _, l := range s.links {
		total += l.BytesSent()
	}
	return total
}

// DeliveryStats aggregates the fault-tolerance accounting across the
// deployment: goodput (payload bytes that reached the coordinator, counted
// once), the retransmission overhead on top, losses, and the coordinator's
// dedupe work. All zeros on a fault-free system.
type DeliveryStats struct {
	GoodputBytes    int
	RetransmitBytes int
	DroppedMessages int
	DroppedBytes    int
	DupDelivered    int // messages the fault plan delivered twice
	Retries         int
	Duplicates      int
	SiteResets      int
	Pending         int // payloads still queued in couriers
}

// DeliveryStats returns the current fault-tolerance counters.
func (s *System) DeliveryStats() DeliveryStats {
	var d DeliveryStats
	for _, l := range s.links {
		d.GoodputBytes += l.GoodputBytes()
		d.RetransmitBytes += l.RetransmitBytes()
		m, b := l.Dropped()
		d.DroppedMessages += m
		d.DroppedBytes += b
		d.DupDelivered += l.DupDelivered()
	}
	for _, c := range s.couriers {
		d.Retries += c.Retries()
		d.Pending += c.Pending()
	}
	st := s.recv.Stats()
	d.Duplicates = st.Duplicates
	d.SiteResets = st.SiteResets
	return d
}

// TotalMessages returns the number of messages sent.
func (s *System) TotalMessages() int {
	var total int
	for _, l := range s.links {
		total += l.Messages()
	}
	return total
}

// CostSeries returns the cumulative communication cost sampled every width
// simulated seconds — the paper's per-second cost collection.
func (s *System) CostSeries(width float64) []int {
	series := make([][]int, len(s.links))
	until := s.sim.Now()
	if until <= 0 {
		until = width
	}
	for i, l := range s.links {
		series[i] = l.CostSeries(width, until)
	}
	return netsim.MergeCostSeries(series...)
}

// ChunkSize returns the chunk size M in effect at every site.
func (s *System) ChunkSize() int { return s.sites[0].ChunkSize() }
