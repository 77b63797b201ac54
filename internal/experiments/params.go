package experiments

import (
	"time"

	"cludistream/internal/chunk"
	"cludistream/internal/em"
	"cludistream/internal/gaussian"
	"cludistream/internal/linalg"
	"cludistream/internal/sem"
	"cludistream/internal/site"
	"cludistream/internal/stream"
	"cludistream/internal/telemetry"

	root "cludistream"
)

// Params scales the experiment suite. Paper() reproduces the paper's
// settings (δ=0.01, ε=0.02, d=4, K=5, P_d=0.1, r=20, c_max=4,
// updates=100k); Quick() shrinks the workload ~20× so the whole suite runs
// in seconds inside tests and benchmarks without changing any shape.
type Params struct {
	// Updates is the stream length per experiment (paper: 100_000).
	Updates int
	// Sites is r (paper: 20).
	Sites int
	// Dim is d (paper: 4).
	Dim int
	// K is the components per model (paper: 5).
	K int
	// Epsilon, Delta are the paper's ε and δ.
	Epsilon, Delta float64
	// FitEps is the J_fit threshold actually applied (see site.Config.FitEps:
	// the training-chunk reference carries an overfit bias the nominal ε
	// cannot absorb). Calibrated to ~3× the measured stationary
	// chunk-to-chunk fluctuation at this profile's chunk size.
	FitEps float64
	// FitEpsNFD is the threshold for the heavier-tailed NFD-like streams.
	FitEpsNFD float64
	// Pd is the regime-change probability (paper: 0.1).
	Pd float64
	// CMax is c_max (paper: 4).
	CMax int
	// RegimeLen is points between regime draws (paper: 2000).
	RegimeLen int
	// Seed drives every generator and fit.
	Seed int64
	// SEMBuffer is the scalable-EM buffer size.
	SEMBuffer int
	// SamplePoints is how many x-axis points sweeps produce.
	SamplePoints int
	// WarmStart selects the sites' refit-seeding policy (empty ⇒
	// site.WarmStartOn): warm refits seed EM from the best-scoring tested
	// model when drift stayed inside the WarmMargin gate, which cuts EM
	// iterations without changing which chunks refit. site.WarmStartCold
	// restores the pre-warm-start cold k-means++ path for A/B runs.
	WarmStart string
	// Telemetry, when non-nil, instruments every site, EM fit, system and
	// coordinator the suite constructs. Figures are unchanged with it on
	// (telemetry never alters clustering output).
	Telemetry *telemetry.Registry
}

// Paper returns the paper's parameter setting.
func Paper() Params {
	return Params{
		Updates:      100_000,
		Sites:        20,
		Dim:          4,
		K:            5,
		Epsilon:      0.02,
		Delta:        0.01,
		FitEps:       0.25,
		FitEpsNFD:    2.5,
		Pd:           0.1,
		CMax:         4,
		RegimeLen:    2000,
		Seed:         1,
		SEMBuffer:    1000,
		SamplePoints: 10,
	}
}

// Quick returns a scaled-down setting for tests and benchmarks: smaller
// streams and fewer sites, with ε loosened in proportion to the shorter
// chunks so the test-and-cluster behaviour is preserved.
func Quick() Params {
	p := Paper()
	p.Updates = 6_000
	p.Sites = 4
	p.RegimeLen = 600
	p.Epsilon = 0.1 // keeps M(d=4) at 314 records — several chunks per regime
	p.FitEps = 0.8
	p.FitEpsNFD = 1.2
	p.SEMBuffer = 300
	p.SamplePoints = 5
	return p
}

// nfdParams adapts the profile for NFD-like streams: d = 6 and the
// heavier-tail fit threshold.
func (p Params) nfdParams() Params {
	p.Dim = stream.NFDDim
	p.FitEps = p.FitEpsNFD
	return p
}

// siteConfig builds the standard remote-site configuration.
func (p Params) siteConfig(id int) site.Config {
	return site.Config{
		SiteID:    id,
		Dim:       p.Dim,
		K:         p.K,
		Epsilon:   p.Epsilon,
		FitEps:    p.FitEps,
		Delta:     p.Delta,
		CMax:      p.CMax,
		Seed:      p.Seed + int64(id)*7919,
		EM:        em.Config{MaxIter: 50, Tol: 1e-3, MinVar: 1e-4},
		WarmStart: p.WarmStart,
		Telemetry: p.Telemetry,
	}
}

// semConfig builds the matching SEM baseline configuration.
func (p Params) semConfig() sem.Config {
	return sem.Config{
		K:          p.K,
		Dim:        p.Dim,
		BufferSize: p.SEMBuffer,
		Seed:       p.Seed,
		EM:         em.Config{MaxIter: 25, Tol: 1e-3, MinVar: 1e-4, Telemetry: p.Telemetry},
	}
}

// synthetic builds the evolving-Gaussian generator for these parameters.
func (p Params) synthetic(noise float64) *stream.Synthetic {
	g, err := stream.NewSynthetic(stream.SyntheticConfig{
		Dim:       p.Dim,
		K:         p.K,
		Pd:        p.Pd,
		RegimeLen: p.RegimeLen,
		NoiseFrac: noise,
		Seed:      p.Seed,
	})
	if err != nil {
		panic(err) // Params constructors only produce valid configs
	}
	return g
}

// nfd builds the NFD-like net-flow generator (d is fixed at 6 for it).
func (p Params) nfd() *stream.NFD {
	g, err := stream.NewNFD(stream.NFDConfig{Pd: p.Pd, RegimeLen: p.RegimeLen, Seed: p.Seed})
	if err != nil {
		panic(err)
	}
	return g
}

// runSite drives a fresh site over n records from gen, returning the site
// and the wall-clock processing duration (the Figure 8/9 observable).
func runSite(cfg site.Config, gen stream.Generator, n int) (*site.Site, time.Duration, error) {
	s, err := site.New(cfg)
	if err != nil {
		return nil, 0, err
	}
	start := time.Now()
	for i := 0; i < n; i++ {
		if _, err := s.Observe(gen.Next()); err != nil {
			return nil, 0, err
		}
	}
	return s, time.Since(start), nil
}

// nowSeconds is a monotonic wall-clock reading for coarse experiment
// timings.
func nowSeconds() float64 {
	return float64(time.Now().UnixNano()) / 1e9
}

// newSEM builds a fresh SEM baseline instance for these parameters.
func newSEM(p Params) (*sem.SEM, error) {
	return sem.New(p.semConfig())
}

// runSEM drives a fresh SEM instance over n records, returning it and the
// processing duration.
func runSEM(cfg sem.Config, gen stream.Generator, n int) (*sem.SEM, time.Duration, error) {
	s, err := sem.New(cfg)
	if err != nil {
		return nil, 0, err
	}
	start := time.Now()
	for i := 0; i < n; i++ {
		if err := s.Observe(gen.Next()); err != nil {
			return nil, 0, err
		}
	}
	return s, time.Since(start), nil
}

// newSystem builds a full CluDistream deployment with these parameters.
func newSystem(p Params, dim, sites int) (*root.System, error) {
	return root.New(root.Config{
		NumSites:  sites,
		Dim:       dim,
		K:         p.K,
		Epsilon:   p.Epsilon,
		FitEps:    p.FitEps,
		Delta:     p.Delta,
		CMax:      p.CMax,
		Seed:      p.Seed,
		EM:        em.Config{MaxIter: 50, Tol: 1e-3, MinVar: 1e-4},
		WarmStart: p.WarmStart,
		Telemetry: p.Telemetry,
	})
}

// chunkSizeFor returns the Theorem-1 chunk size for these parameters.
func chunkSizeFor(p Params) int {
	return chunk.Size(p.Dim, p.Epsilon, p.Delta)
}

// tail returns the most recent h records of data (all of it when shorter).
func tail(data []linalg.Vector, h int) []linalg.Vector {
	if len(data) <= h {
		return data
	}
	return data[len(data)-h:]
}

// quality evaluates a mixture on eval data; nil mixtures score the paper's
// axis floor rather than panicking so plots stay well-defined early in a
// stream.
func quality(m *gaussian.Mixture, eval []linalg.Vector) float64 {
	if m == nil || len(eval) == 0 {
		return -10
	}
	return m.AvgLogLikelihood(eval)
}
