// Package stream provides the data sources of the paper's evaluation
// (Section 6): a synthetic evolving-Gaussian stream whose underlying
// distribution is redrawn with probability P_d every regime interval, an
// NFD-like net-flow generator standing in for the proprietary Shanghai
// Telecom data set, optional noise injection, and CSV (de)serialization for
// the command-line tools.
package stream

import (
	"fmt"
	"math"
	"math/rand"

	"cludistream/internal/gaussian"
	"cludistream/internal/linalg"
)

// Generator is a source of stream records.
type Generator interface {
	// Next returns the next record. The returned vector is owned by the
	// caller.
	Next() linalg.Vector
	// Dim returns the record dimensionality.
	Dim() int
}

// SyntheticConfig parameterizes the evolving-Gaussian generator. The paper:
// "The data records in each synthetic data set follow a series of Gaussian
// distributions. To reflect the evolution of the stream data over time, we
// generate new Gaussian distribution for every 2K points by probability
// P_d."
type SyntheticConfig struct {
	// Dim is d (paper default 4).
	Dim int
	// K is the number of Gaussian components per regime (paper default 5).
	K int
	// Pd is the probability that a new underlying distribution is drawn at
	// each regime boundary (paper default 0.1).
	Pd float64
	// RegimeLen is the number of points between regime draws (paper: 2K
	// points, i.e. 2000).
	RegimeLen int
	// NoiseFrac replaces this fraction of records with uniform noise over
	// the mean range (Figure 4(d) uses 5%).
	NoiseFrac float64
	// MissingFrac blanks each attribute to NaN independently with this
	// probability (never blanking a whole record) — the "incomplete data
	// records" of the paper's introduction, e.g. an unreliable P2P
	// environment producing corrupted click-stream fields.
	MissingFrac float64
	// MeanRange bounds component means: drawn uniformly in ±MeanRange
	// (default 10).
	MeanRange float64
	// VarMin, VarMax bound component variances (defaults 0.5, 2).
	VarMin, VarMax float64
	// Seed makes the stream reproducible.
	Seed int64
}

func (c SyntheticConfig) withDefaults() SyntheticConfig {
	if c.RegimeLen <= 0 {
		c.RegimeLen = 2000
	}
	if c.MeanRange <= 0 {
		c.MeanRange = 10
	}
	if c.VarMin <= 0 {
		c.VarMin = 0.5
	}
	if c.VarMax < c.VarMin {
		c.VarMax = c.VarMin + 1.5
	}
	return c
}

// Synthetic is the evolving-Gaussian stream generator.
type Synthetic struct {
	cfg     SyntheticConfig
	rng     *rand.Rand
	current *gaussian.Mixture
	count   int // records emitted
	regimes int // distinct distributions so far
}

// NewSynthetic validates the configuration and builds the generator with
// its first regime drawn.
func NewSynthetic(cfg SyntheticConfig) (*Synthetic, error) {
	cfg = cfg.withDefaults()
	if cfg.Dim < 1 {
		return nil, fmt.Errorf("stream: Dim = %d", cfg.Dim)
	}
	if cfg.K < 1 {
		return nil, fmt.Errorf("stream: K = %d", cfg.K)
	}
	if cfg.Pd < 0 || cfg.Pd > 1 {
		return nil, fmt.Errorf("stream: Pd = %v outside [0,1]", cfg.Pd)
	}
	if cfg.NoiseFrac < 0 || cfg.NoiseFrac >= 1 {
		return nil, fmt.Errorf("stream: NoiseFrac = %v outside [0,1)", cfg.NoiseFrac)
	}
	if cfg.MissingFrac < 0 || cfg.MissingFrac >= 1 {
		return nil, fmt.Errorf("stream: MissingFrac = %v outside [0,1)", cfg.MissingFrac)
	}
	g := &Synthetic{cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}
	g.redraw()
	return g, nil
}

// redraw replaces the current regime with a fresh random mixture.
func (g *Synthetic) redraw() {
	comps := make([]*gaussian.Component, g.cfg.K)
	ws := make([]float64, g.cfg.K)
	for j := range comps {
		mean := linalg.NewVector(g.cfg.Dim)
		for i := range mean {
			mean[i] = (g.rng.Float64()*2 - 1) * g.cfg.MeanRange
		}
		variance := g.cfg.VarMin + g.rng.Float64()*(g.cfg.VarMax-g.cfg.VarMin)
		comps[j] = gaussian.Spherical(mean, variance)
		ws[j] = 0.5 + g.rng.Float64() // weights in [0.5, 1.5), then normalized
	}
	g.current = gaussian.MustMixture(ws, comps)
	g.regimes++
}

// Next emits one record, handling regime boundaries and noise injection.
func (g *Synthetic) Next() linalg.Vector {
	if g.count > 0 && g.count%g.cfg.RegimeLen == 0 && g.rng.Float64() < g.cfg.Pd {
		g.redraw()
	}
	g.count++
	var x linalg.Vector
	if g.cfg.NoiseFrac > 0 && g.rng.Float64() < g.cfg.NoiseFrac {
		x = linalg.NewVector(g.cfg.Dim)
		for i := range x {
			x[i] = (g.rng.Float64()*2 - 1) * g.cfg.MeanRange * 1.2
		}
	} else {
		x = g.current.Sample(g.rng)
	}
	if g.cfg.MissingFrac > 0 {
		blanked := 0
		for i := range x {
			if blanked < len(x)-1 && g.rng.Float64() < g.cfg.MissingFrac {
				x[i] = math.NaN()
				blanked++
			}
		}
	}
	return x
}

// Dim returns the record dimensionality.
func (g *Synthetic) Dim() int { return g.cfg.Dim }

// CurrentMixture returns the regime currently generating records (ground
// truth for quality experiments).
func (g *Synthetic) CurrentMixture() *gaussian.Mixture { return g.current }

// Regimes returns the number of distinct distributions drawn so far.
func (g *Synthetic) Regimes() int { return g.regimes }

// Take returns the next n records.
func Take(g Generator, n int) []linalg.Vector {
	out := make([]linalg.Vector, n)
	for i := range out {
		out[i] = g.Next()
	}
	return out
}

// Alternating cycles deterministically between a fixed set of mixtures
// every RegimeLen records — the "alternating models" scenario of Section
// 5.1.2 that motivates the multi-test strategy and Figure 13's c_max sweep.
type Alternating struct {
	mixes     []*gaussian.Mixture
	regimeLen int
	rng       *rand.Rand
	count     int
}

// NewAlternating builds a generator cycling through mixes.
func NewAlternating(mixes []*gaussian.Mixture, regimeLen int, seed int64) (*Alternating, error) {
	if len(mixes) == 0 {
		return nil, fmt.Errorf("stream: no mixtures")
	}
	if regimeLen < 1 {
		return nil, fmt.Errorf("stream: regimeLen = %d", regimeLen)
	}
	d := mixes[0].Dim()
	for i, m := range mixes {
		if m.Dim() != d {
			return nil, fmt.Errorf("stream: mixture %d has dim %d, want %d", i, m.Dim(), d)
		}
	}
	return &Alternating{mixes: mixes, regimeLen: regimeLen, rng: rand.New(rand.NewSource(seed))}, nil
}

// Next emits one record from the active mixture.
func (g *Alternating) Next() linalg.Vector {
	idx := (g.count / g.regimeLen) % len(g.mixes)
	g.count++
	return g.mixes[idx].Sample(g.rng)
}

// Dim returns the record dimensionality.
func (g *Alternating) Dim() int { return g.mixes[0].Dim() }
