package sem

import (
	"fmt"
	"math/rand"

	"cludistream/internal/em"
	"cludistream/internal/gaussian"
	"cludistream/internal/linalg"
)

// SamplingEM is the "sampling based EM" baseline of Figure 6: it maintains
// a uniform reservoir sample (Vitter's Algorithm R) of the stream and fits
// EM on the sample when a model is requested. It is cheap but, as the paper
// observes, "the sampling may lose a lot of valuable clustering
// information" — rare or short-lived distributions vanish from the
// reservoir.
type SamplingEM struct {
	cfg       em.Config
	capacity  int
	rng       *rand.Rand
	reservoir []linalg.Vector
	seen      int
	mix       *gaussian.Mixture
	dirty     bool
}

// NewSamplingEM builds a reservoir of the given capacity. emCfg.K must be
// set; the seed makes the reservoir (and the fits) deterministic.
func NewSamplingEM(capacity int, emCfg em.Config, seed int64) (*SamplingEM, error) {
	if capacity < emCfg.K {
		return nil, fmt.Errorf("sem: reservoir capacity %d < K %d", capacity, emCfg.K)
	}
	return &SamplingEM{
		cfg:      emCfg,
		capacity: capacity,
		rng:      rand.New(rand.NewSource(seed)),
	}, nil
}

// Observe consumes one record (Algorithm R).
func (s *SamplingEM) Observe(x linalg.Vector) {
	s.seen++
	s.dirty = true
	if len(s.reservoir) < s.capacity {
		s.reservoir = append(s.reservoir, x.Clone())
		return
	}
	if j := s.rng.Intn(s.seen); j < s.capacity {
		s.reservoir[j] = x.Clone()
	}
}

// Model fits (or returns the cached) EM model over the reservoir. Returns
// nil when the reservoir holds fewer than K records.
func (s *SamplingEM) Model() *gaussian.Mixture {
	if !s.dirty && s.mix != nil {
		return s.mix
	}
	if len(s.reservoir) < s.cfg.K {
		return nil
	}
	res, err := em.Fit(s.reservoir, s.cfg)
	if err != nil {
		return nil
	}
	s.mix = res.Mixture
	s.dirty = false
	return s.mix
}
