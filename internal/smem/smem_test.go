package smem

import (
	"math"
	"math/rand"
	"testing"

	"cludistream/internal/em"
	"cludistream/internal/gaussian"
	"cludistream/internal/linalg"
)

// trapData builds a data set engineered to trap plain EM: three tight,
// well-separated clusters but a warm start that parks two components on
// one cluster and one component across the other two. Plain EM cannot
// escape; SMEM's merge+split move can.
func trapData(rng *rand.Rand) ([]linalg.Vector, []linalg.Vector) {
	var data []linalg.Vector
	centers := []linalg.Vector{{-10, 0}, {10, 0}, {10, 8}}
	for _, c := range centers {
		comp := gaussian.Spherical(c, 0.3)
		for i := 0; i < 400; i++ {
			data = append(data, comp.Sample(rng))
		}
	}
	// The trap: two means on cluster 0, one mean between clusters 1 and 2.
	trap := []linalg.Vector{{-10.5, 0}, {-9.5, 0}, {10, 4}}
	return data, trap
}

func TestSMEMEscapesLocalOptimum(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	data, trap := trapData(rng)

	base := em.Config{K: 3, Seed: 1, MaxIter: 100, Tol: 1e-6, InitMeans: trap}
	plain, err := em.Fit(data, base)
	if err != nil {
		t.Fatal(err)
	}
	plainLL := plain.Mixture.AvgLogLikelihood(data)

	res, err := Fit(data, Config{EM: base})
	if err != nil {
		t.Fatal(err)
	}
	if res.AcceptedMoves == 0 {
		t.Fatal("SMEM accepted no moves on trapped initialization")
	}
	if res.AvgLogLikelihood <= plainLL+0.1 {
		t.Fatalf("SMEM LL %v did not beat trapped EM %v", res.AvgLogLikelihood, plainLL)
	}
	// The three true centers must each be recovered.
	for _, c := range []linalg.Vector{{-10, 0}, {10, 0}, {10, 8}} {
		best := 1e18
		for j := 0; j < 3; j++ {
			if d := c.DistSq(res.Mixture.Component(j).Mean()); d < best {
				best = d
			}
		}
		if best > 0.5 {
			t.Fatalf("center %v not recovered (nearest dist² %v)", c, best)
		}
	}
}

func TestSMEMNeverWorseThanEM(t *testing.T) {
	// On easy data (good init), SMEM must at minimum keep plain EM's
	// solution: moves that do not improve are rejected.
	rng := rand.New(rand.NewSource(12))
	mix := gaussian.MustMixture(
		[]float64{1, 1, 1},
		[]*gaussian.Component{
			gaussian.Spherical(linalg.Vector{-8}, 1),
			gaussian.Spherical(linalg.Vector{0}, 1),
			gaussian.Spherical(linalg.Vector{8}, 1),
		})
	data := mix.SampleN(rng, 1500)
	base := em.Config{K: 3, Seed: 1, MaxIter: 100, Tol: 1e-6}
	plain, err := em.Fit(data, base)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Fit(data, Config{EM: base})
	if err != nil {
		t.Fatal(err)
	}
	if res.AvgLogLikelihood < plain.Mixture.AvgLogLikelihood(data)-1e-9 {
		t.Fatalf("SMEM %v below plain EM %v", res.AvgLogLikelihood, plain.Mixture.AvgLogLikelihood(data))
	}
}

func TestSMEMValidation(t *testing.T) {
	data := gaussian.Spherical(linalg.Vector{0}, 1).Sample(rand.New(rand.NewSource(1)))
	if _, err := Fit([]linalg.Vector{data}, Config{EM: em.Config{K: 2}}); err == nil {
		t.Fatal("K=2 accepted (needs ≥3)")
	}
	if _, err := Fit(nil, Config{EM: em.Config{K: 3}}); err == nil {
		t.Fatal("empty data accepted")
	}
}

func TestSMEMDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	data, trap := trapData(rng)
	cfg := Config{EM: em.Config{K: 3, Seed: 2, MaxIter: 60, Tol: 1e-5, InitMeans: trap}}
	a, err := Fit(data, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Fit(data, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.AvgLogLikelihood != b.AvgLogLikelihood || a.AcceptedMoves != b.AcceptedMoves {
		t.Fatal("SMEM not deterministic for fixed seed")
	}
}

func sampleN(c *gaussian.Component, seed int64, n int) []linalg.Vector {
	rng := rand.New(rand.NewSource(seed))
	out := make([]linalg.Vector, n)
	for i := range out {
		out[i] = c.Sample(rng)
	}
	return out
}

func TestSplitScoresFlagMisfit(t *testing.T) {
	// A mixture where component 0 covers two real clusters must give
	// component 0 the top split score.
	data := append(
		sampleN(gaussian.Spherical(linalg.Vector{-5}, 0.3), 3, 300),
		sampleN(gaussian.Spherical(linalg.Vector{5}, 0.3), 4, 300)...)
	data = append(data, sampleN(gaussian.Spherical(linalg.Vector{40}, 0.3), 5, 300)...)

	wide := gaussian.MustComponent(linalg.Vector{0}, linalg.Diagonal(linalg.Vector{30}))
	good := gaussian.Spherical(linalg.Vector{40}, 0.3)
	third := gaussian.Spherical(linalg.Vector{100}, 1) // claims nothing
	m := gaussian.MustMixture([]float64{2, 1, 0.01}, []*gaussian.Component{wide, good, third})

	scores := splitScores(m, data)
	if !(scores[0] > scores[1]) {
		t.Fatalf("misfit component not flagged: scores = %v", scores)
	}
}

// refSplitScores is splitScores one record at a time, its posteriors and
// log p(x) built from Component.LogProb, log(w_j) and LogAdd.
func refSplitScores(m *gaussian.Mixture, data []linalg.Vector) []float64 {
	k := m.K()
	lp := make([]float64, k)
	num, den := make([]float64, k), make([]float64, k)
	for _, x := range data {
		lse := math.Inf(-1)
		for j := range lp {
			lp[j] = math.Log(m.Weight(j)) + m.Component(j).LogProb(x)
			lse = gaussian.LogAdd(lse, lp[j])
		}
		for j := range lp {
			if math.IsInf(lp[j], -1) {
				continue
			}
			post := math.Exp(lp[j] - lse)
			if post <= 0 {
				continue
			}
			num[j] += post * (lse - m.Component(j).LogProb(x))
			den[j] += post
		}
	}
	out := make([]float64, k)
	for j := range out {
		if den[j] > 0 {
			out[j] = num[j] / den[j]
		} else {
			out[j] = math.Inf(1)
		}
	}
	return out
}

// TestSplitScoresMatchScalar pins splitScores, which reads posteriors and
// log p(x) from one PosteriorBatch pass, bit for bit to the per-record
// reference at d = 2, 4 and 8 with component 0 at weight zero (its score
// must be +Inf, a dead component).
func TestSplitScoresMatchScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, d := range []int{2, 4, 8} {
		const k = 4
		comps := make([]*gaussian.Component, k)
		ws := make([]float64, k)
		for j := range comps {
			mean := linalg.NewVector(d)
			for i := range mean {
				mean[i] = rng.NormFloat64() * 2
			}
			cov := linalg.NewSym(d)
			for r := 0; r < d+2; r++ {
				v := linalg.NewVector(d)
				for i := range v {
					v[i] = rng.NormFloat64()
				}
				cov.AddOuterScaled(0.5, v)
			}
			comps[j] = gaussian.MustComponent(mean, cov)
			ws[j] = 0.2 + rng.Float64()
		}
		ws[0] = 0
		m := gaussian.MustMixture(ws, comps)
		data := m.SampleN(rng, 517)
		got, want := splitScores(m, data), refSplitScores(m, data)
		if !math.IsInf(got[0], 1) {
			t.Fatalf("d=%d: zero-weight component scores %v, want +Inf", d, got[0])
		}
		for j := range got {
			if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
				t.Fatalf("d=%d component %d: splitScores %v, scalar %v", d, j, got[j], want[j])
			}
		}
	}
}
