// Package site implements CluDistream's remote-site processing (Section
// 5.1 of the paper): Algorithm 1 ProcessingSubStream with the
// test-and-cluster strategy, the model list with per-model counters, the
// multi-test extension governed by c_max, and the event table that records
// the stream's evolving behaviour.
//
// The site is single-goroutine by design — each remote site owns exactly
// one stream — and communicates only by returning Update values, which the
// transport/netsim layers deliver to the coordinator. This mirrors the
// paper's architecture where remote sites never talk to each other.
package site

import (
	"fmt"
	"math"

	"cludistream/internal/chunk"
	"cludistream/internal/em"
	"cludistream/internal/events"
	"cludistream/internal/gaussian"
	"cludistream/internal/linalg"
	"cludistream/internal/smem"
	"cludistream/internal/telemetry"
)

// UpdateKind discriminates the two message types a site can emit
// (Section 5.3: synopsis-based information exchange).
type UpdateKind int

const (
	// NewModel carries full mixture parameters for a freshly clustered
	// model.
	NewModel UpdateKind = iota
	// WeightUpdate carries only a model ID and an additional record count —
	// sent when the multi-test strategy re-activates an archived model, so
	// the coordinator can shift weight without receiving parameters again.
	WeightUpdate
)

func (k UpdateKind) String() string {
	if k == WeightUpdate {
		return "weight-update"
	}
	return "new-model"
}

// Update is the unit of site→coordinator communication.
type Update struct {
	SiteID  int
	ModelID int
	Kind    UpdateKind
	// Mixture is set for NewModel updates only.
	Mixture *gaussian.Mixture
	// Count is the number of records this update accounts for (M for a new
	// model's first chunk, M per re-fitted chunk for weight updates).
	Count int
	// TraceID and SpanID carry the causal trace of the chunk that produced
	// this update (zero when tracing is disabled): the trace minted at
	// chunk ingest and its root span, which downstream layers hang their
	// own spans under (see internal/telemetry tracing).
	TraceID uint64
	SpanID  uint64
}

// Model is one entry of the site's model list: a mixture, its reference
// average log-likelihood Avg_Pr0, and the counter c of records it explains.
type Model struct {
	ID int
	// Mixture is the Gaussian mixture learned by EM.
	Mixture *gaussian.Mixture
	// RefAvgLL is Avg_Pr0, the average log-likelihood of the model on the
	// chunk it was trained on — the baseline of the J_fit test.
	RefAvgLL float64
	// Counter is c: how many records have been attributed to this model.
	Counter int
	// startChunk is the first chunk of the model's current governance span
	// (internal; spans are published to the event list on retirement).
	startChunk int
}

// Config parameterizes a Site.
type Config struct {
	// SiteID identifies this site in updates.
	SiteID int
	// Dim is the data dimensionality d.
	Dim int
	// K is the number of components per local mixture model.
	K int
	// Epsilon is ε: both the J_fit tolerance and the chunk-size driver.
	Epsilon float64
	// FitEps, when non-zero, overrides ε as the J_fit threshold while
	// Epsilon keeps driving the chunk size. The paper couples both to ε,
	// but its Theorem-2 bound assumes the reference Avg_Pr0 is an unbiased
	// likelihood — in practice Avg_Pr0 is measured on the chunk the model
	// was *trained* on, so it carries an overfit bias of order
	// (#parameters)/M that the threshold must absorb. Deployments calibrate
	// FitEps to ~3× the stationary chunk-to-chunk fluctuation (see
	// EXPERIMENTS.md); negative FitEps makes every test fail
	// (always-cluster, for ablations).
	FitEps float64
	// Delta is δ, the probability error bound.
	Delta float64
	// CMax is c_max, the maximum number of models tested per chunk (the
	// current model plus up to CMax-1 archived ones). Default 4, the
	// paper's recommended setting.
	CMax int
	// EM configures the inner EM runs (K and Seed are filled from this
	// Config when zero).
	EM em.Config
	// Seed drives deterministic EM initialization.
	Seed int64
	// SharpTest switches the J_fit statistic to the max-component average
	// log-likelihood that Theorem 2's proof sharpens the test with, instead
	// of the full mixture likelihood (DESIGN.md ablation).
	SharpTest bool
	// ChunkSize overrides the Theorem-1 chunk size when positive. Used by
	// tests and by experiments that sweep M directly.
	ChunkSize int
	// EmitFitWeightUpdates makes a fitting chunk emit a WeightUpdate for
	// the current model instead of staying silent. Landmark-window
	// deployments leave this off (Section 5.3's stability property);
	// sliding-window deployments need it so the coordinator's per-model
	// weights stay in sync with the deletions that will follow (Section 7).
	EmitFitWeightUpdates bool
	// UseSMEM clusters chunks with split-and-merge EM (Ueda et al. [23])
	// instead of plain EM — slower, but escapes the local optima plain EM
	// can park in. Requires K ≥ 3.
	UseSMEM bool
	// AutoKMax, when positive, selects each new model's component count by
	// BIC over K ∈ [max(AutoKMin,1), AutoKMax] instead of using the fixed
	// K — operationalizing the paper's "we do not assume the constant
	// number of component models for the data stream". Mutually exclusive
	// with UseSMEM.
	AutoKMax int
	// AutoKMin is the lower bound of the AutoKMax sweep (default 1).
	AutoKMin int
	// Telemetry, when non-nil, receives per-chunk decision counters and
	// journal events (chunk tested/fit/refit/reactivated with the J_fit
	// margin, archive-hit depth, EM iteration counts) and is propagated to
	// the inner EM runs. It never alters clustering output: with Telemetry
	// nil the only cost is a nil check per instrument call site, and with
	// it set the instruments observe values the algorithm already computed
	// (pinned bit-identical by the facade's telemetry tests).
	Telemetry *telemetry.Registry
}

// intervalGuardRel scales the decision slack of the interval J_fit verdict
// (gaussian.AvgLogLikelihoodInterval): the interval must clear the ε
// threshold by intervalGuardRel·(1 + |Avg_Pr0| + |bound|) before its verdict
// is trusted. The slack is orders of magnitude above the roundoff of the
// exact batched log-sum-exp (~K·2⁻⁵²·|avg|) and orders of magnitude below
// any meaningful ε, so interval verdicts provably agree with the exact scan,
// and every fit/refit decision, update and warm-start seed is bit-identical
// to it (the parity tests pin this). SharpTest keeps the exact scan. On
// chunks decided by the interval, the telemetry margin histogram and journal
// Values carry the decided bound instead of the exact margin — diagnostics
// only.
const intervalGuardRel = 1e-9

// warmRelTol is the relative log-likelihood stop applied to warm-started
// refits when Config.EM.RelTol is unset. Audited refits compare against a
// full-precision cold fit, so a systematically premature stop surfaces as
// audit losses rather than silent quality drift.
const warmRelTol = 1e-4

// warmAuditEvery is the cold-audit cadence of the warm-start quality
// guard: every warmAuditEvery-th warm refit also runs the cold fit and
// keeps whichever converged to the higher log-likelihood, so a systematic
// warm-start quality regression cannot persist silently.
const warmAuditEvery = 8

func (c Config) withDefaults() Config {
	if c.CMax <= 0 {
		c.CMax = 4
	}
	if c.FitEps == 0 {
		c.FitEps = c.Epsilon
	}
	c.EM.K = c.K
	if c.EM.Seed == 0 {
		c.EM.Seed = c.Seed
	}
	if c.EM.Telemetry == nil {
		c.EM.Telemetry = c.Telemetry
	}
	return c
}

// Stats counts the work a site has done, backing the Theorem-4 cost model
// and the Figure 8/13/14 experiments.
type Stats struct {
	Records     int // records observed
	Chunks      int // full chunks processed
	Tests       int // model-fit tests run (λC each)
	EMRuns      int // EM clusterings run (C each)
	Fits        int // chunks that fit an existing model
	Refits      int // chunks that required new EM models
	Reactivated int // chunks explained by re-activating an archived model

	// Warm-start refit accounting.
	WarmRefits      int // refits that kept the warm-started fit
	ColdRefits      int // refits run cold (no seed within the warm-start margin, or K mismatch)
	WarmFallbacks   int // warm fits discarded for a cold result (audit loss or non-finite)
	WarmAudits      int // warm refits that also ran the cold comparison fit
	IterationsSaved int // Σ (cold iters − warm iters) over audited refits; can go negative

	// Interval-verdict accounting (the names predate the interval kernel).
	PruneHits      int // J_fit verdicts decided by the transcendental-free interval
	PruneFallbacks int // intervals too wide (or unavailable) to decide: exact scan ran
	// Multi-test memo accounting.
	StatCacheHits   int // refit re-scores served from the multi-test memo
	StatCacheMisses int // refit re-scores that had to scan the chunk
}

// siteTele holds the site's telemetry instruments, resolved once at
// construction. With no registry configured every pointer is nil and each
// call below is a single nil-check branch — the zero-overhead disabled
// path the telemetry tests pin.
type siteTele struct {
	reg         *telemetry.Registry // journal access; nil when disabled
	tracer      *telemetry.Tracer   // per-chunk causal traces; nil unless enabled
	records     *telemetry.Counter
	chunks      *telemetry.Counter
	tested      *telemetry.Counter
	fits        *telemetry.Counter
	refits      *telemetry.Counter
	reactivated *telemetry.Counter
	tests       *telemetry.Counter
	emRuns      *telemetry.Counter
	warmRefits  *telemetry.Counter
	coldRefits  *telemetry.Counter
	warmFalls   *telemetry.Counter
	iterSaved   *telemetry.Counter
	pruneHits   *telemetry.Counter
	pruneFalls  *telemetry.Counter
	statHits    *telemetry.Counter
	statMisses  *telemetry.Counter
	jfitMargin  *telemetry.Histogram
	hitDepth    *telemetry.Histogram
}

func newSiteTele(reg *telemetry.Registry) siteTele {
	if reg == nil {
		return siteTele{}
	}
	return siteTele{
		reg:         reg,
		tracer:      reg.Tracer(),
		records:     reg.Counter("site.records"),
		chunks:      reg.Counter("site.chunks"),
		tested:      reg.Counter("site.chunks_tested"),
		fits:        reg.Counter("site.chunks_fit"),
		refits:      reg.Counter("site.chunks_refit"),
		reactivated: reg.Counter("site.chunks_reactivated"),
		tests:       reg.Counter("site.tests"),
		emRuns:      reg.Counter("site.em_runs"),
		warmRefits:  reg.Counter("site.warm_refits"),
		coldRefits:  reg.Counter("site.cold_refits"),
		warmFalls:   reg.Counter("site.warm_fallbacks"),
		iterSaved:   reg.Counter("site.warm_iterations_saved"),
		pruneHits:   reg.Counter("site.prune_hits"),
		pruneFalls:  reg.Counter("site.prune_fallbacks"),
		statHits:    reg.Counter("site.stat_cache_hits"),
		statMisses:  reg.Counter("site.stat_cache_misses"),
		// J_fit margins live on the ε scale; the c_max recommendation is
		// 3–4, so depth buckets 1..4 plus overflow cover every finding.
		jfitMargin: reg.Histogram("site.jfit_margin", 0.01, 0.05, 0.1, 0.25, 0.5, 1, 2, 5),
		hitDepth:   reg.Histogram("site.archive_hit_depth", 1, 2, 3, 4),
	}
}

// Site is one remote-site processor.
type Site struct {
	cfg     Config
	chunker *chunk.Chunker
	m       int // chunk size M
	tele    siteTele

	current *Model
	// archive holds retired models, oldest first. The multi-test strategy
	// probes the most recent CMax-1 of them.
	archive []*Model
	events  *events.List

	chunkNum    int // number of completed chunks (1-based after first)
	nextModelID int

	// scratch backs the batched chunk scoring (J_fit tests and reference
	// likelihoods); the site is single-goroutine, so one workspace serves
	// every model it ever tests.
	scratch *gaussian.BatchScratch

	// scan is the shared per-chunk workspace: the complete-records view is
	// filtered once per chunk and reused by every probe of the multi-test.
	scan chunk.Scan
	// exactScan turns the interval verdict off, so every test runs the
	// exact batched scan: the oracle of the parity tests.
	exactScan bool
	// tested records the models probed on the current chunk, in test
	// order, with any exactly computed score — the refit path replays the
	// exact warm-seed selection from it (and the memo saves re-scans).
	tested []testedModel
	// rescanMix/rescanAvg/rescanIdx back the fused refit re-scan.
	rescanMix []*gaussian.Mixture
	rescanAvg []float64
	rescanIdx []int

	// warmMargin bounds how far from fitting the best tested model may be
	// and still seed a warm start, on the J_fit margin |Avg_Prn − Avg_Pr0|:
	// 4×FitEps, a few Theorem-2 noise widths past the test boundary. A
	// model that barely failed the ε test is one EM polish away from the
	// new regime; one hundreds of nats off describes a different regime,
	// and seeding EM from it parks the fit in a worse local optimum than
	// k-means++ finds, so such refits run cold. A negative FitEps (the
	// always-cluster ablation) gives a negative margin: every refit is cold.
	warmMargin float64
	// alwaysCold turns warm seeding off, so every refit initializes from
	// k-means++: the pre-warm-start path, the oracle of the warm-start
	// tests.
	alwaysCold bool
	// auditEvery is the cold-audit cadence (warmAuditEvery; tests set 1 to
	// audit every warm refit).
	auditEvery int
	// warmSeq counts warm-start refit attempts, driving the audit cadence.
	warmSeq int

	// Trace bookkeeping (all zero while tracing is disabled). chunkIngestT
	// is the clock reading when the first record of the in-progress chunk
	// arrived; curTrace/curRoot identify the trace of the chunk being
	// processed; lastTrace/lastRoot keep the most recently completed
	// chunk's context so window deletions can be attributed to it.
	chunkIngestT   float64
	chunkIngestSet bool
	curTrace       uint64
	curRoot        uint64
	lastTrace      uint64
	lastRoot       uint64
	fitNote        string // em-fit span outcome, set by fitChunk

	stats Stats
}

// testedModel is one multi-test probe: the model, the chunk's average
// log-likelihood under it when computed exactly, and whether it was (an
// interval verdict leaves avg as a bound, to be replaced before use).
type testedModel struct {
	m     *Model
	avg   float64
	exact bool
}

// New constructs a Site. Dim, K, Epsilon and Delta are required.
func New(cfg Config) (*Site, error) {
	cfg = cfg.withDefaults()
	if cfg.Dim < 1 {
		return nil, fmt.Errorf("site: Dim = %d", cfg.Dim)
	}
	if cfg.K < 1 {
		return nil, fmt.Errorf("site: K = %d", cfg.K)
	}
	m := cfg.ChunkSize
	if m <= 0 {
		m = chunk.Size(cfg.Dim, cfg.Epsilon, cfg.Delta)
	}
	if m < cfg.K {
		return nil, fmt.Errorf("site: chunk size %d < K %d", m, cfg.K)
	}
	return &Site{
		cfg:         cfg,
		chunker:     chunk.NewChunker(m, cfg.Dim),
		m:           m,
		tele:        newSiteTele(cfg.Telemetry),
		events:      events.NewList(),
		nextModelID: 1,
		scratch:     gaussian.NewBatchScratch(),
		tested:      make([]testedModel, 0, cfg.CMax),
		rescanMix:   make([]*gaussian.Mixture, 0, cfg.CMax),
		rescanAvg:   make([]float64, cfg.CMax),
		rescanIdx:   make([]int, 0, cfg.CMax),
		warmMargin:  4 * cfg.FitEps,
		auditEvery:  warmAuditEvery,
	}, nil
}

// ChunkSize returns M, the Theorem-1 chunk size in effect.
func (s *Site) ChunkSize() int { return s.m }

// ID returns the site's identifier.
func (s *Site) ID() int { return s.cfg.SiteID }

// Observe consumes one record and returns any updates produced (non-nil
// only when a chunk completed and changed the model state). A record of the
// wrong dimension or with an infinite attribute is rejected with an error
// and leaves the model state unchanged. The record is copied into the chunk
// buffer, so the caller may reuse x immediately; in steady-state test mode
// (chunk fits, nothing transmitted) the whole path — buffering, chunk
// completion, batched J_fit scoring — performs zero heap allocations per
// record, with chunk storage recycled through the chunker's two-buffer
// protocol.
func (s *Site) Observe(x linalg.Vector) ([]Update, error) {
	// Trace ingest time: the clock reading when a chunk's first record
	// arrives. With tracing off this is one nil check per record, which is
	// what keeps the steady-state path at zero allocations.
	if s.tele.tracer != nil && s.chunker.Pending() == 0 {
		s.chunkIngestT = s.tele.tracer.Now()
		s.chunkIngestSet = true
	}
	full, err := s.chunker.Add(x)
	if err != nil {
		return nil, err
	}
	s.stats.Records++
	s.tele.records.Inc()
	if full == nil {
		return nil, nil
	}
	ups, err := s.ProcessChunk(full)
	// Nothing downstream retains chunk records (EM and the scorers copy
	// what they keep), so the buffer can go straight back into rotation.
	s.chunker.Recycle(full)
	return ups, err
}

// ObserveAll consumes a batch of records, collecting all updates.
func (s *Site) ObserveAll(xs []linalg.Vector) ([]Update, error) {
	var out []Update
	for _, x := range xs {
		u, err := s.Observe(x)
		if err != nil {
			return out, err
		}
		out = append(out, u...)
	}
	return out, nil
}

// ProcessChunk runs one iteration of Algorithm 1 on a complete chunk. It is
// exported so the experiment harness can drive sites chunk-at-a-time.
//
// With tracing enabled it mints the chunk's trace (rooted at the ingest
// time Observe captured, or at the current clock for direct callers),
// stamps the trace context onto every emitted update, and marks the
// site-decision point when Algorithm 1 settles the chunk's fate.
func (s *Site) ProcessChunk(data []linalg.Vector) ([]Update, error) {
	tr := s.tele.tracer
	if tr != nil {
		ingest := s.chunkIngestT
		if !s.chunkIngestSet {
			ingest = tr.Now()
		}
		s.chunkIngestSet = false
		s.curTrace, s.curRoot = tr.StartTrace(s.cfg.SiteID, s.chunkNum+1, ingest)
	}
	ups, err := s.processChunk(data)
	if tr != nil && s.curTrace != 0 {
		tr.FinishDecision(s.curTrace, tr.Now())
		for i := range ups {
			ups[i].TraceID = s.curTrace
			ups[i].SpanID = s.curRoot
		}
		s.lastTrace, s.lastRoot = s.curTrace, s.curRoot
		s.curTrace, s.curRoot = 0, 0
	}
	return ups, err
}

// LastTrace returns the trace context of the most recently completed
// chunk (zeros while tracing is disabled or before the first chunk).
// Window expiry deletions are attributed to it: the deletion is caused by
// the chunk whose arrival slid the window.
func (s *Site) LastTrace() (traceID, spanID uint64) { return s.lastTrace, s.lastRoot }

// processChunk is Algorithm 1's body, with the trace context of the
// current chunk (if any) in s.curTrace/s.curRoot.
func (s *Site) processChunk(data []linalg.Vector) ([]Update, error) {
	if len(data) != s.m {
		return nil, fmt.Errorf("site: chunk of %d records, want %d", len(data), s.m)
	}
	s.chunkNum++
	s.stats.Chunks++
	s.tele.chunks.Inc()
	// Bind the shared per-chunk workspace and clear the probe memo; every
	// test below scores the same complete-records view.
	s.scan.Reset(data)
	s.tested = s.tested[:0]

	// Line 2: the very first chunk is always clustered.
	if s.current == nil {
		return s.clusterNewModel(data, nil)
	}

	// Test 1: current model (line 5, FitDistribution). Each probe's score
	// is memoized in s.tested; if every test fails, refitSeed replays the
	// exact best-scoring-model selection from the memo (re-scoring any
	// probe whose verdict came from the interval), so the warm-start seed
	// is bit-identical to the exact path's.
	testSpan := s.tele.tracer.Begin(s.curTrace, s.curRoot, "chunk-test", s.cfg.SiteID, s.current.ID)
	s.stats.Tests++
	s.tele.tests.Inc()
	s.tele.tested.Inc()
	probe, margin, ok := s.fitScore(s.current)
	s.tested = append(s.tested, probe)
	s.tele.jfitMargin.Observe(margin)
	if ok {
		testSpan.End(1, "fit")
		s.current.Counter += s.m
		s.stats.Fits++
		s.tele.fits.Inc()
		s.tele.reg.Record(telemetry.Event{
			Kind: "chunk-fit", Site: s.cfg.SiteID, Model: s.current.ID,
			Value: margin, N: s.chunkNum,
		})
		if s.cfg.EmitFitWeightUpdates {
			return []Update{{
				SiteID:  s.cfg.SiteID,
				ModelID: s.current.ID,
				Kind:    WeightUpdate,
				Count:   s.m,
			}}, nil
		}
		// Stability (Section 5.3): nothing is transmitted.
		return nil, nil
	}

	// Multi-test: probe the most recent archived models, newest first,
	// up to CMax-1 additional tests.
	budget := s.cfg.CMax - 1
	depth := 0 // archived models probed so far (the multi-test depth)
	for i := len(s.archive) - 1; i >= 0 && budget > 0; i-- {
		cand := s.archive[i]
		s.stats.Tests++
		s.tele.tests.Inc()
		budget--
		depth++
		probe, margin, ok := s.fitScore(cand)
		s.tested = append(s.tested, probe)
		s.tele.jfitMargin.Observe(margin)
		if ok {
			testSpan.End(1+depth, "reactivated")
			s.reactivate(i)
			cand.Counter += s.m
			s.stats.Reactivated++
			s.tele.reactivated.Inc()
			s.tele.hitDepth.Observe(float64(depth))
			s.tele.reg.Record(telemetry.Event{
				Kind: "chunk-reactivated", Site: s.cfg.SiteID, Model: cand.ID,
				Value: margin, N: depth,
			})
			// The coordinator must learn that weight moved to an old model.
			return []Update{{
				SiteID:  s.cfg.SiteID,
				ModelID: cand.ID,
				Kind:    WeightUpdate,
				Count:   s.m,
			}}, nil
		}
	}

	// No model fits: archive the current model (lines 8–9) and cluster,
	// seeding EM from the best-scoring model the tests just evaluated —
	// but only if that model nearly fit (drift); a seed far past the
	// warm-start margin describes a different regime and would steer EM
	// into a worse basin than a cold start.
	testSpan.End(len(s.tested), "refit")
	bestSeed := s.refitSeed()
	s.retireCurrent()
	return s.clusterNewModel(data, bestSeed)
}

// refitSeed selects the warm-start seed for a refit: the best-scoring
// model of the failed multi-test pass, or nil when even the best margin
// exceeds the warm-start margin. The selection replays the exact path's bookkeeping
// — first tested model initializes, later ones replace it on strictly
// higher average log-likelihood — over exact scores: probes decided by
// the interval are re-scored exactly here, in one fused pass over the
// chunk; probes that already ran the exact scan reuse the memoized value.
func (s *Site) refitSeed() *gaussian.Mixture {
	if len(s.tested) == 0 {
		return nil
	}
	s.rescanMix = s.rescanMix[:0]
	s.rescanIdx = s.rescanIdx[:0]
	for i := range s.tested {
		if s.tested[i].exact {
			s.stats.StatCacheHits++
			s.tele.statHits.Inc()
			continue
		}
		s.stats.StatCacheMisses++
		s.tele.statMisses.Inc()
		s.rescanMix = append(s.rescanMix, s.tested[i].m.Mixture)
		s.rescanIdx = append(s.rescanIdx, i)
	}
	if len(s.rescanMix) > 0 {
		gaussian.AvgLogLikelihoodMulti(s.rescanMix, s.scan.Complete(), s.rescanAvg[:len(s.rescanMix)], s.scratch)
		for j, i := range s.rescanIdx {
			s.tested[i].avg = s.rescanAvg[j]
			s.tested[i].exact = true
		}
	}
	best := s.tested[0]
	for _, tm := range s.tested[1:] {
		if tm.avg > best.avg {
			best = tm
		}
	}
	if math.Abs(best.avg-best.m.RefAvgLL) > s.warmMargin {
		return nil
	}
	return best.m.Mixture
}

// fitScore evaluates the test criterion J_fit = |Avg_Prn − Avg_Pr0| ≤ ε
// (Eq. 4, justified by Theorem 2), returning the probe to memoize (with the
// chunk's average log-likelihood under the model, the warm-start ranking
// key), the margin |Avg_Prn − Avg_Pr0| (the Theorem-2 observable telemetry
// journals) and the verdict. The statistic is chunkAvgLL's, matching the
// reference Avg_Pr0.
//
// gaussian.AvgLogLikelihoodInterval brackets the exact average without a
// transcendental call; when the interval decides the ε test with slack
// beyond the intervalGuardRel roundoff guard, the verdict is provably the
// exact scan's and the scan is skipped (the probe's avg and the margin then
// carry the decided bound). An interval that is indecisive or unavailable
// falls back to the exact scan, which a "prune-fallback" span covers and a
// "prune-fallback" event journals with the exact margin it computed.
func (s *Site) fitScore(m *Model) (probe testedModel, margin float64, ok bool) {
	eval := s.scan.Complete()
	var fallback telemetry.SpanRef
	fellBack := false
	if !s.exactScan && !s.cfg.SharpTest && len(eval) > 0 {
		if lo, hi, bok := m.Mixture.AvgLogLikelihoodInterval(eval, s.scratch); bok {
			loM, hiM := marginInterval(lo, hi, m.RefAvgLL)
			guard := intervalGuardRel * (1 + math.Abs(m.RefAvgLL) + math.Max(math.Abs(lo), math.Abs(hi)))
			probe = testedModel{m: m, avg: lo}
			switch {
			case hiM+guard <= s.cfg.FitEps:
				s.stats.PruneHits++
				s.tele.pruneHits.Inc()
				return probe, hiM, true
			case loM-guard > s.cfg.FitEps:
				s.stats.PruneHits++
				s.tele.pruneHits.Inc()
				return probe, loM, false
			}
		}
		fallback = s.tele.tracer.Begin(s.curTrace, s.curRoot, "prune-fallback", s.cfg.SiteID, m.ID)
		fellBack = true
	}
	avg := s.chunkAvgLL(m.Mixture)
	margin = math.Abs(avg - m.RefAvgLL)
	if fellBack {
		fallback.End(s.chunkNum, "")
		s.stats.PruneFallbacks++
		s.tele.pruneFalls.Inc()
		s.tele.reg.Record(telemetry.Event{
			Kind: "prune-fallback", Site: s.cfg.SiteID, Model: m.ID,
			Value: margin, N: s.chunkNum,
		})
	}
	return testedModel{m: m, avg: avg, exact: true}, margin, margin <= s.cfg.FitEps
}

// chunkAvgLL is the J_fit statistic of the current chunk under mix,
// computed exactly over the chunk's complete records — incomplete ones have
// no well-defined joint likelihood. When no record is complete (a dead
// attribute), each record is scored by the marginal likelihood of its
// observed attributes instead; scoring nothing would make every such chunk
// look like a perfect fit.
func (s *Site) chunkAvgLL(mix *gaussian.Mixture) float64 {
	eval := s.scan.Complete()
	switch {
	case len(eval) == 0:
		return em.AvgMarginalLogLikelihood(mix, s.scan.Data())
	case s.cfg.SharpTest:
		return mix.AvgMaxComponentLLScratch(eval, s.scratch)
	}
	return mix.AvgLogLikelihoodScratch(eval, s.scratch)
}

// marginInterval maps an interval [lo, hi] around the chunk average onto
// the induced interval of the J_fit margin |avg − ref|.
func marginInterval(lo, hi, ref float64) (loM, hiM float64) {
	switch {
	case hi < ref:
		return ref - hi, ref - lo
	case lo > ref:
		return lo - ref, hi - ref
	default:
		return 0, math.Max(ref-lo, hi-ref)
	}
}

// clusterNewModel applies the configured clustering (plain EM, SMEM or a
// BIC K-sweep) to the chunk and installs the result as the current model
// (lines 2 and 10 of Algorithm 1). seed, when non-nil, is the best-scoring
// model of the failed multi-test pass, offered to the plain-EM path as a
// warm start.
func (s *Site) clusterNewModel(data []linalg.Vector, seed *gaussian.Mixture) ([]Update, error) {
	s.stats.EMRuns++
	s.stats.Refits++
	s.tele.emRuns.Inc()
	s.tele.refits.Inc()
	cfg := s.cfg.EM
	cfg.Seed = s.cfg.Seed + int64(s.nextModelID) // deterministic but varying
	fitSpan := s.tele.tracer.Begin(s.curTrace, s.curRoot, "em-fit", s.cfg.SiteID, s.nextModelID)
	cfg.TraceID, cfg.TraceParent = fitSpan.Context()
	s.fitNote = ""

	var mixture *gaussian.Mixture
	switch {
	case s.cfg.AutoKMax > 0:
		kMin := s.cfg.AutoKMin
		if kMin < 1 {
			kMin = 1
		}
		sel, err := em.FitBestK(data, kMin, s.cfg.AutoKMax, cfg)
		if err != nil {
			return nil, fmt.Errorf("site %d: K-sweep on chunk %d: %w", s.cfg.SiteID, s.chunkNum, err)
		}
		mixture = sel.Best.Mixture
		s.fitNote = "auto-k"
	case s.cfg.UseSMEM:
		res, err := smem.Fit(data, smem.Config{EM: cfg})
		if err != nil {
			return nil, fmt.Errorf("site %d: SMEM on chunk %d: %w", s.cfg.SiteID, s.chunkNum, err)
		}
		mixture = res.Mixture
		s.fitNote = "smem"
	case em.IsIncomplete(data):
		// Records with missing (NaN) attributes: the marginal-likelihood EM
		// of §3's "incomplete data" claim.
		res, err := em.FitIncomplete(data, cfg)
		if err != nil {
			return nil, fmt.Errorf("site %d: incomplete-data EM on chunk %d: %w", s.cfg.SiteID, s.chunkNum, err)
		}
		mixture = res.Mixture
		s.fitNote = "incomplete"
	default:
		res, err := s.fitChunk(data, cfg, seed)
		if err != nil {
			return nil, fmt.Errorf("site %d: EM on chunk %d: %w", s.cfg.SiteID, s.chunkNum, err)
		}
		mixture = res.Mixture
	}
	fitSpan.End(s.nextModelID, s.fitNote)

	refLL := s.chunkAvgLL(mixture)
	m := &Model{
		ID:         s.nextModelID,
		Mixture:    mixture,
		RefAvgLL:   refLL,
		Counter:    s.m,
		startChunk: s.chunkNum,
	}
	s.nextModelID++
	s.current = m
	s.tele.reg.Record(telemetry.Event{
		Kind: "chunk-refit", Site: s.cfg.SiteID, Model: m.ID,
		Value: refLL, N: s.chunkNum,
	})
	return []Update{{
		SiteID:  s.cfg.SiteID,
		ModelID: m.ID,
		Kind:    NewModel,
		Mixture: m.Mixture,
		Count:   s.m,
	}}, nil
}

// fitChunk runs the plain-EM refit, warm-started from seed when there is
// one (and the site is not the always-cold test oracle). Warm starts never
// apply to the SMEM, auto-K or incomplete-data fitters, which keep their
// own init.
//
// The warm path replaces k-means++ initialization with the seed mixture
// (em.Config.InitModel), which typically converges in a fraction of the
// iterations because the seed was scored as the closest existing
// explanation of the chunk. Two guards keep clustering quality from
// silently degrading: a non-finite warm log-likelihood falls back to a
// cold fit immediately, and every warmAuditEvery-th warm refit also runs
// the cold fit and keeps whichever model converged to the higher
// log-likelihood. Both arms derive from the same deterministic seed, so
// site output remains a pure function of the stream.
func (s *Site) fitChunk(data []linalg.Vector, cfg em.Config, seed *gaussian.Mixture) (*em.Result, error) {
	warmOK := !s.alwaysCold && seed != nil &&
		seed.K() == cfg.K && seed.Dim() == s.cfg.Dim
	if !warmOK {
		s.stats.ColdRefits++
		s.tele.coldRefits.Inc()
		s.fitNote = "cold"
		return em.Fit(data, cfg)
	}

	warmCfg := cfg
	warmCfg.InitModel = seed
	if warmCfg.RelTol == 0 {
		// A warm seed sits near a mode from iteration 0, so most of its
		// run is the final likelihood plateau; the relative stop ends the
		// crawl once improvement is negligible at the likelihood's own
		// scale. Cold fits keep the absolute-only test (bit-identical to
		// the pre-warm-start path) unless the caller sets EM.RelTol.
		warmCfg.RelTol = warmRelTol
	}
	warm, warmErr := em.Fit(data, warmCfg)
	audit := s.warmSeq%s.auditEvery == 0
	s.warmSeq++
	healthy := warmErr == nil && isFiniteLL(warm.AvgLogLikelihood)
	if healthy && !audit {
		s.stats.WarmRefits++
		s.tele.warmRefits.Inc()
		s.fitNote = "warm"
		s.tele.reg.Record(telemetry.Event{
			Kind: "warm-refit", Site: s.cfg.SiteID, Model: s.nextModelID,
			Value: warm.AvgLogLikelihood, N: warm.Iterations, Note: "warm",
		})
		return warm, nil
	}

	cold, coldErr := em.Fit(data, cfg)
	if !healthy {
		// Degenerate warm fit (error, NaN or infinite log-likelihood):
		// discard it; the cold result — whatever it is — is the answer.
		s.stats.WarmFallbacks++
		s.tele.warmFalls.Inc()
		s.fitNote = "fallback-cold"
		s.tele.reg.Record(telemetry.Event{
			Kind: "warm-refit", Site: s.cfg.SiteID, Model: s.nextModelID,
			Note: "fallback-cold",
		})
		return cold, coldErr
	}
	if coldErr != nil {
		// Warm succeeded, cold audit failed — keep the warm model.
		s.stats.WarmRefits++
		s.tele.warmRefits.Inc()
		s.fitNote = "warm"
		return warm, nil
	}
	s.stats.WarmAudits++
	s.stats.IterationsSaved += cold.Iterations - warm.Iterations
	s.tele.iterSaved.Add(int64(cold.Iterations - warm.Iterations))
	if cold.AvgLogLikelihood > warm.AvgLogLikelihood {
		s.stats.WarmFallbacks++
		s.tele.warmFalls.Inc()
		s.fitNote = "audit-cold-win"
		s.tele.reg.Record(telemetry.Event{
			Kind: "warm-refit", Site: s.cfg.SiteID, Model: s.nextModelID,
			Value: cold.AvgLogLikelihood, N: cold.Iterations, Note: "audit-cold-win",
		})
		return cold, nil
	}
	s.stats.WarmRefits++
	s.tele.warmRefits.Inc()
	s.fitNote = "audit-warm-win"
	s.tele.reg.Record(telemetry.Event{
		Kind: "warm-refit", Site: s.cfg.SiteID, Model: s.nextModelID,
		Value: warm.AvgLogLikelihood, N: warm.Iterations, Note: "audit-warm-win",
	})
	return warm, nil
}

// isFiniteLL reports whether a fit's log-likelihood is a usable number.
func isFiniteLL(v float64) bool {
	return !math.IsNaN(v) && !math.IsInf(v, 0)
}

// retireCurrent moves the current model to the archive and publishes its
// governance span to the event list.
func (s *Site) retireCurrent() {
	m := s.current
	s.current = nil
	if m == nil {
		return
	}
	// The span ends at the previous chunk; the failing chunk belongs to the
	// successor model (Algorithm 1 line 9: <current model ID, start, n-1>).
	if end := s.chunkNum - 1; end >= m.startChunk {
		// Ignore the error: spans are produced in order by construction.
		_ = s.events.Append(events.Entry{ModelID: m.ID, StartChunk: m.startChunk, EndChunk: end})
	}
	s.archive = append(s.archive, m)
}

// reactivate removes archive[i] and installs it as the current model with a
// fresh governance span; the previously current model is retired in its
// place.
func (s *Site) reactivate(i int) {
	cand := s.archive[i]
	s.archive = append(s.archive[:i], s.archive[i+1:]...)
	s.retireCurrent()
	cand.startChunk = s.chunkNum
	s.current = cand
}

// Current returns the active model (nil before the first chunk completes).
func (s *Site) Current() *Model { return s.current }

// Models returns the archived models followed by the current one — the full
// model list, oldest first.
func (s *Site) Models() []*Model {
	out := append([]*Model(nil), s.archive...)
	if s.current != nil {
		out = append(out, s.current)
	}
	return out
}

// Events returns the site's event table.
func (s *Site) Events() *events.List { return s.events }

// ChunksSeen returns the number of completed chunks.
func (s *Site) ChunksSeen() int { return s.chunkNum }

// Stats returns a copy of the work counters.
func (s *Site) Stats() Stats { return s.stats }

// Pending returns records buffered toward the next chunk.
func (s *Site) Pending() int { return s.chunker.Pending() }

// LandmarkMixture composes a single mixture over everything the site has
// seen (landmark window): each model's components enter weighted by the
// model's record counter. Returns nil before any model exists.
func (s *Site) LandmarkMixture() *gaussian.Mixture {
	return composeModels(s.Models())
}

// ModelsInWindow returns the models governing any chunk in
// [startChunk, endChunk] — the Section 7 evolving-analysis query. The
// current model is included if its open span intersects the window.
func (s *Site) ModelsInWindow(startChunk, endChunk int) []*Model {
	byID := make(map[int]*Model, len(s.archive)+1)
	for _, m := range s.Models() {
		byID[m.ID] = m
	}
	seen := make(map[int]bool)
	var out []*Model
	for _, e := range s.events.Query(startChunk, endChunk) {
		if m := byID[e.ModelID]; m != nil && !seen[m.ID] {
			seen[m.ID] = true
			out = append(out, m)
		}
	}
	if s.current != nil && !seen[s.current.ID] &&
		s.current.startChunk <= endChunk && s.chunkNum >= startChunk {
		out = append(out, s.current)
	}
	return out
}

// composeModels flattens a set of models into one mixture, weighting every
// component by its model weight times the model's counter.
func composeModels(models []*Model) *gaussian.Mixture {
	var comps []*gaussian.Component
	var weights []float64
	for _, m := range models {
		for j := 0; j < m.Mixture.K(); j++ {
			comps = append(comps, m.Mixture.Component(j))
			weights = append(weights, m.Mixture.Weight(j)*float64(m.Counter))
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

// ModelListBytes estimates the memory the model list occupies — Theorem 3's
// second term, B·K·(d²+d+1) floats: per component one weight, a d-vector
// mean, and a covariance (d(d+1)/2 packed floats; the theorem's d² is the
// unpacked bound).
func (s *Site) ModelListBytes() int {
	d := s.cfg.Dim
	perComp := 8 * (1 + d + d*(d+1)/2)
	var total int
	for _, m := range s.Models() {
		total += m.Mixture.K() * perComp
	}
	return total
}

// BufferBytes estimates the chunk buffer memory — Theorem 3's first term,
// M records of d float64s.
func (s *Site) BufferBytes() int { return s.m * s.cfg.Dim * 8 }
