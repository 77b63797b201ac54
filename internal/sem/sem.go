// Package sem implements the two baselines CluDistream is evaluated
// against in Section 6 of the paper:
//
//   - SEM, the scalable EM algorithm of Bradley, Reina & Fayyad
//     ("Clustering very large databases using EM mixture models", ICPR
//     2000, reference [6]): a one-pass EM that keeps a bounded buffer of
//     raw records and compresses records that are confidently explained by
//     a component into that component's sufficient statistics, so the whole
//     stream is summarized by one evolving mixture model.
//
//   - A reservoir-sampling EM ("sampling based EM" in Figure 6): keep a
//     uniform sample of the stream and refit EM on it when a model is
//     requested.
//
// Both see exactly the same records the CluDistream site sees, so every
// comparison in the experiments is apples-to-apples.
package sem

import (
	"fmt"

	"cludistream/internal/em"
	"cludistream/internal/gaussian"
	"cludistream/internal/linalg"
)

// Config parameterizes a SEM instance.
type Config struct {
	// K is the number of mixture components.
	K int
	// Dim is the data dimensionality.
	Dim int
	// BufferSize bounds the raw-record buffer; when it fills, SEM refits
	// and compresses (default 1000).
	BufferSize int
	// EM configures the inner EM runs.
	EM em.Config
	// Seed drives the deterministic inner EM initialization.
	Seed int64
}

func (c Config) withDefaults() Config {
	if c.BufferSize <= 0 {
		c.BufferSize = 1000
	}
	c.EM.K = c.K
	if c.EM.Seed == 0 {
		c.EM.Seed = c.Seed
	}
	return c
}

// SEM is the scalable-EM state: an evolving mixture, per-component discard
// sets (compressed sufficient statistics), and a bounded retained buffer.
type SEM struct {
	cfg     Config
	mix     *gaussian.Mixture
	discard []*em.SuffStats // one per component, compressed mass
	buffer  []linalg.Vector
	refits  int // EM runs performed (cost accounting)
	// scratch backs the batched compression sweep across refits.
	scratch *gaussian.BatchScratch
}

// New returns an empty SEM instance.
func New(cfg Config) (*SEM, error) {
	cfg = cfg.withDefaults()
	if cfg.K < 1 {
		return nil, fmt.Errorf("sem: K = %d", cfg.K)
	}
	if cfg.Dim < 1 {
		return nil, fmt.Errorf("sem: Dim = %d", cfg.Dim)
	}
	s := &SEM{cfg: cfg, scratch: gaussian.NewBatchScratch()}
	s.discard = make([]*em.SuffStats, cfg.K)
	for j := range s.discard {
		s.discard[j] = em.NewSuffStats(cfg.Dim)
	}
	return s, nil
}

// Observe consumes one record. When the buffer fills, the model is refit
// over buffer + discard sets and the confidently-explained buffer records
// are compressed away.
func (s *SEM) Observe(x linalg.Vector) error {
	if len(x) != s.cfg.Dim {
		return fmt.Errorf("sem: record dim %d, want %d", len(x), s.cfg.Dim)
	}
	s.buffer = append(s.buffer, x.Clone())
	if len(s.buffer) >= s.cfg.BufferSize {
		return s.refit()
	}
	return nil
}

// refit runs extended EM over the buffered records plus the compressed
// discard sets, then performs primary compression.
func (s *SEM) refit() error {
	blocks := make([]*em.SuffStats, 0, len(s.buffer)+s.cfg.K)
	for _, x := range s.buffer {
		b := em.NewSuffStats(s.cfg.Dim)
		b.Add(x, 1)
		blocks = append(blocks, b)
	}
	for _, d := range s.discard {
		if d.W > 0 {
			blocks = append(blocks, d.Clone())
		}
	}
	cfg := s.cfg.EM
	cfg.Seed = s.cfg.Seed + int64(s.refits) // vary init across refits, deterministically
	// Warm-start from the current model: SEM is a *continuing* EM over the
	// compressed stream, not a sequence of cold fits.
	cfg.InitModel = s.mix
	res, err := em.FitStats(blocks, cfg)
	if err != nil {
		// Not enough mass yet (e.g. tiny first buffer): keep buffering.
		if err == em.ErrNotEnoughData {
			return nil
		}
		return err
	}
	s.refits++
	s.mix = res.Mixture

	// Primary compression: fold confidently-owned buffer records into the
	// owning component's discard set; retain the rest (ambiguous region).
	// A record is confidently owned when its squared Mahalanobis distance
	// to its nearest component is at most d, the expectation of a
	// chi-square with d degrees of freedom.
	// The nearest-component classification runs batched over the whole
	// buffer — one blocked Mahalanobis sweep per component instead of a
	// factor walk per record per component.
	owner := make([]int, len(s.buffer))
	maha := make([]float64, len(s.buffer))
	s.mix.NearestComponents(s.buffer, owner, maha, s.scratch)
	retained := s.buffer[:0]
	var kept int
	for i, x := range s.buffer {
		if maha[i] <= float64(s.cfg.Dim) {
			s.discard[owner[i]].Add(x, 1)
		} else {
			owner[kept] = owner[i]
			retained = append(retained, x)
			kept++
		}
	}
	// If compression freed nothing (pathological spread-out buffer), drop
	// the oldest half into their nearest components anyway — SEM must stay
	// one-pass bounded-memory.
	if len(retained) >= s.cfg.BufferSize {
		forced := retained[:len(retained)/2]
		forcedOwner := owner[:len(retained)/2]
		retained = retained[len(retained)/2:]
		for i, x := range forced {
			s.discard[forcedOwner[i]].Add(x, 1)
		}
	}
	s.buffer = append([]linalg.Vector(nil), retained...)
	return nil
}

// Model returns the current mixture, fitting one on demand if the buffer
// has data but no refit has happened yet. Returns nil if SEM has not seen
// enough records to build a model at all.
func (s *SEM) Model() *gaussian.Mixture {
	if s.mix == nil && len(s.buffer) >= s.cfg.K {
		_ = s.fitBufferOnly()
	}
	return s.mix
}

func (s *SEM) fitBufferOnly() error {
	res, err := em.Fit(s.buffer, func() em.Config { c := s.cfg.EM; return c }())
	if err != nil {
		return err
	}
	s.mix = res.Mixture
	return nil
}

// Refits returns how many inner EM runs have occurred (the dominant CPU
// cost — SEM reclusters on every full buffer, which is exactly why Figure 8
// shows it processing under 400 updates/second).
func (s *SEM) Refits() int { return s.refits }

// MemoryBytes estimates resident bytes: buffer records + K discard blocks.
// Used by the Figure 10 comparison.
func (s *SEM) MemoryBytes() int {
	d := s.cfg.Dim
	per := 8 * d // one record
	block := 8 * (1 + d + d*(d+1)/2)
	return len(s.buffer)*per + len(s.discard)*block
}
