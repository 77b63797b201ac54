package stream

import (
	"fmt"
	"math"
	"math/rand"

	"cludistream/internal/linalg"
)

// NFDConfig parameterizes the NFD-like net-flow generator.
//
// The paper's NFD data set (net-flow records from Shanghai Telecom) is
// proprietary; this generator is the documented substitute (DESIGN.md §2).
// It reproduces the properties the experiments actually exercise: six
// attributes — source host, destination host, source TCP port, destination
// TCP port, packet count, byte count — with Zipf-distributed hosts,
// Pareto-tailed volumes (per Simon's power-law model the paper cites for
// Theorem 4), a small set of service regimes that switch over time with
// probability Pd, and per-attribute normalization to [0,1] ("we normalize
// each attribute to reduce the data range effect").
type NFDConfig struct {
	// NumHosts is the host-address space size (default 1024).
	NumHosts int
	// Pd is the probability of a new traffic regime at each boundary
	// (default 0.1).
	Pd float64
	// RegimeLen is records between regime-change draws (default 2000).
	RegimeLen int
	// Jitter is the standard deviation of Gaussian measurement noise added
	// to every normalized attribute (default 0.02, negative disables). It
	// keeps the host/port attributes continuous the way aggregated real
	// net-flow records are; without it those attributes are near-discrete
	// and Gaussian models degenerate to spikes.
	Jitter float64
	// Seed makes the stream reproducible.
	Seed int64
}

func (c NFDConfig) withDefaults() NFDConfig {
	if c.NumHosts <= 1 {
		c.NumHosts = 1024
	}
	if c.RegimeLen <= 0 {
		c.RegimeLen = 2000
	}
	if c.Pd == 0 {
		c.Pd = 0.1
	}
	if c.Jitter == 0 {
		c.Jitter = 0.02
	}
	if c.Jitter < 0 {
		c.Jitter = 0
	}
	return c
}

// NFDDim is the net-flow record dimensionality.
const NFDDim = 6

// wellKnownServices are destination ports a regime concentrates on.
var wellKnownServices = []int{80, 443, 25, 53, 110, 8080, 21, 22, 6881, 3306}

// nfdRegime describes one traffic pattern: a dominant service, a hot subset
// of destination hosts, and volume-distribution parameters.
type nfdRegime struct {
	service      int     // dominant destination port
	hostBias     int     // offset into the host space for hot destinations
	paretoAlpha  float64 // packet-count tail index
	paretoMin    float64 // minimum packets per flow
	bytesPerPkt  float64 // mean payload size
	bytesJitter  float64 // multiplicative payload noise
	ephemeralLow int     // source-port range start
}

// NFD is the net-flow stream generator.
type NFD struct {
	cfg     NFDConfig
	rng     *rand.Rand
	zipfSrc *rand.Zipf
	zipfDst *rand.Zipf
	regime  nfdRegime
	count   int
	regimes int
}

// NewNFD validates the configuration and draws the first regime.
func NewNFD(cfg NFDConfig) (*NFD, error) {
	cfg = cfg.withDefaults()
	if cfg.Pd < 0 || cfg.Pd > 1 {
		return nil, fmt.Errorf("stream: NFD Pd = %v outside [0,1]", cfg.Pd)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	g := &NFD{
		cfg:     cfg,
		rng:     rng,
		zipfSrc: rand.NewZipf(rng, 1.2, 1, uint64(cfg.NumHosts-1)),
		zipfDst: rand.NewZipf(rng, 1.5, 1, uint64(cfg.NumHosts-1)),
	}
	g.redraw()
	return g, nil
}

func (g *NFD) redraw() {
	g.regime = nfdRegime{
		service:      wellKnownServices[g.rng.Intn(len(wellKnownServices))],
		hostBias:     g.rng.Intn(g.cfg.NumHosts),
		paretoAlpha:  1.2 + g.rng.Float64()*1.3, // 1.2–2.5: heavy but finite-mean
		paretoMin:    1 + g.rng.Float64()*8,
		bytesPerPkt:  64 + g.rng.Float64()*1400, // Ethernet payload range
		bytesJitter:  0.1 + g.rng.Float64()*0.4,
		ephemeralLow: 1024 + g.rng.Intn(16384),
	}
	g.regimes++
}

// Next emits one normalized 6-d net-flow record.
func (g *NFD) Next() linalg.Vector {
	if g.count > 0 && g.count%g.cfg.RegimeLen == 0 && g.rng.Float64() < g.cfg.Pd {
		g.redraw()
	}
	g.count++
	r := g.regime

	srcHost := int(g.zipfSrc.Uint64())
	dstHost := (r.hostBias + int(g.zipfDst.Uint64())) % g.cfg.NumHosts
	srcPort := r.ephemeralLow + g.rng.Intn(4096)
	dstPort := r.service
	if g.rng.Float64() < 0.1 { // background traffic off the dominant service
		dstPort = wellKnownServices[g.rng.Intn(len(wellKnownServices))]
	}
	packets := pareto(g.rng, r.paretoAlpha, r.paretoMin)
	bytes := packets * r.bytesPerPkt * math.Exp(g.rng.NormFloat64()*r.bytesJitter)

	// Normalization: hosts and ports scale linearly into [0,1]; volumes are
	// heavy-tailed, so they map through log1p against generous caps.
	const maxPackets, maxBytes = 1e6, 1.5e9
	x := linalg.Vector{
		float64(srcHost) / float64(g.cfg.NumHosts),
		float64(dstHost) / float64(g.cfg.NumHosts),
		float64(srcPort) / 65535,
		float64(dstPort) / 65535,
		clamp01(math.Log1p(packets) / math.Log1p(maxPackets)),
		clamp01(math.Log1p(bytes) / math.Log1p(maxBytes)),
	}
	if g.cfg.Jitter > 0 {
		for i := range x {
			x[i] = clamp01(x[i] + g.rng.NormFloat64()*g.cfg.Jitter)
		}
	}
	return x
}

// Dim returns NFDDim.
func (g *NFD) Dim() int { return NFDDim }

// Regimes returns how many traffic regimes have occurred.
func (g *NFD) Regimes() int { return g.regimes }

// pareto draws from a Pareto distribution with the given tail index and
// minimum: x = min / U^{1/alpha}.
func pareto(rng *rand.Rand, alpha, min float64) float64 {
	u := rng.Float64()
	for u == 0 {
		u = rng.Float64()
	}
	return min / math.Pow(u, 1/alpha)
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}
