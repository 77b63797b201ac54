package gaussian

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"cludistream/internal/linalg"
)

func twoComponentMixture() *Mixture {
	c1 := Spherical(linalg.Vector{-3}, 1)
	c2 := Spherical(linalg.Vector{3}, 1)
	return MustMixture([]float64{0.4, 0.6}, []*Component{c1, c2})
}

func TestMixtureConstruction(t *testing.T) {
	m := twoComponentMixture()
	if m.K() != 2 || m.Dim() != 1 {
		t.Fatalf("K=%d d=%d", m.K(), m.Dim())
	}
	if math.Abs(m.Weight(0)-0.4) > 1e-15 || math.Abs(m.Weight(1)-0.6) > 1e-15 {
		t.Fatalf("weights = %v", m.Weights())
	}
}

func TestMixtureWeightNormalization(t *testing.T) {
	c := Spherical(linalg.Vector{0}, 1)
	m := MustMixture([]float64{2, 6}, []*Component{c, c})
	if math.Abs(m.Weight(0)-0.25) > 1e-15 {
		t.Fatalf("weights not normalized: %v", m.Weights())
	}
}

func TestMixtureConstructionErrors(t *testing.T) {
	c := Spherical(linalg.Vector{0}, 1)
	c2d := Spherical(linalg.Vector{0, 0}, 1)
	cases := []struct {
		name  string
		w     []float64
		comps []*Component
	}{
		{"empty", nil, nil},
		{"len mismatch", []float64{1}, []*Component{c, c}},
		{"negative weight", []float64{-1, 2}, []*Component{c, c}},
		{"zero sum", []float64{0, 0}, []*Component{c, c}},
		{"NaN weight", []float64{math.NaN(), 1}, []*Component{c, c}},
		{"dim mismatch", []float64{1, 1}, []*Component{c, c2d}},
	}
	for _, tc := range cases {
		if _, err := NewMixture(tc.w, tc.comps); err == nil {
			t.Errorf("%s: expected error", tc.name)
		}
	}
}

func TestMixtureLogPDFMatchesDirectSum(t *testing.T) {
	m := twoComponentMixture()
	for _, x := range []float64{-5, -3, 0, 1, 3, 7} {
		xv := linalg.Vector{x}
		direct := 0.4*prob(m.Component(0), xv) + 0.6*prob(m.Component(1), xv)
		if got := m.PDF(xv); math.Abs(got-direct) > 1e-12*(1+direct) {
			t.Fatalf("PDF(%v) = %v, want %v", x, got, direct)
		}
	}
}

// raceEnabled is set by race_test.go in -race builds.
var raceEnabled bool

// TestMixtureLogPDFNoAllocs: LogPDF is ScoreBatch on one record with a
// pooled scratch, so a warm call allocates nothing.
func TestMixtureLogPDFNoAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector")
	}
	m := randMixture(t, rand.New(rand.NewSource(42)), 5, 4, false)
	x := linalg.Vector{1, -1, 0.5, 2}
	var sink float64
	if allocs := testing.AllocsPerRun(100, func() { sink += m.LogPDF(x) }); allocs != 0 {
		t.Fatalf("LogPDF allocates %v times per call, want 0", allocs)
	}
	_ = sink
}

func TestMixturePosteriorSumsToOne(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	f := func(n uint8) bool {
		k := int(n%4) + 1
		comps := make([]*Component, k)
		ws := make([]float64, k)
		for i := range comps {
			comps[i] = randComponent(rng, 3)
			ws[i] = rng.Float64() + 0.1
		}
		m := MustMixture(ws, comps)
		x := randVec(rng, 3)
		post := linalg.NewMatrix(0, 0)
		m.PosteriorBatch([]linalg.Vector{x}, post, nil, nil)
		var sum float64
		for _, p := range post.Row(0) {
			if p < -1e-12 || p > 1+1e-12 {
				return false
			}
			sum += p
		}
		return math.Abs(sum-1) <= 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestMixturePosteriorExtremePoint(t *testing.T) {
	m := twoComponentMixture()
	// Far to the left, component 0 should own the point.
	x := linalg.Vector{-10}
	post := linalg.NewMatrix(0, 0)
	logpdf := make([]float64, 1)
	sum := m.PosteriorBatch([]linalg.Vector{x}, post, logpdf, nil)
	if post.At(0, 0) < 0.999 {
		t.Fatalf("posterior = %v", post.Row(0))
	}
	// The per-record and summed by-products are log p(x).
	if lp := m.LogPDF(x); logpdf[0] != lp || sum != lp {
		t.Fatalf("PosteriorBatch logpdf = %v, sum = %v, want %v", logpdf[0], sum, lp)
	}
}

func TestMixtureAvgLogLikelihood(t *testing.T) {
	m := twoComponentMixture()
	data := []linalg.Vector{{-3}, {3}}
	want := (m.LogPDF(data[0]) + m.LogPDF(data[1])) / 2
	if got := m.AvgLogLikelihood(data); math.Abs(got-want) > 1e-15 {
		t.Fatalf("AvgLL = %v, want %v", got, want)
	}
	if got := m.AvgLogLikelihood(nil); got != 0 {
		t.Fatalf("AvgLL(empty) = %v", got)
	}
}

func TestMixtureMaxComponentLL(t *testing.T) {
	m := twoComponentMixture()
	x := linalg.Vector{-3}
	want := math.Log(0.4) + m.Component(0).LogProb(x)
	got := m.AvgMaxComponentLLScratch([]linalg.Vector{x}, nil)
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("max-component log-density = %v, want %v", got, want)
	}
	if o := oracleMaxComponentLogPDF(m, x); math.Float64bits(got) != math.Float64bits(o) {
		t.Fatalf("max-component log-density = %v, oracle %v", got, o)
	}
	// Sharpened statistic is never above the full mixture log-density...
	if got > m.LogPDF(x) {
		t.Fatal("max-component exceeds mixture log-density")
	}
	// ...and within log(K) of it.
	if m.LogPDF(x)-got > math.Log(2)+1e-12 {
		t.Fatal("max-component more than log K below mixture")
	}
}

func TestMixtureSampleFrequencies(t *testing.T) {
	m := twoComponentMixture()
	rng := rand.New(rand.NewSource(42))
	var count0 int
	const n = 20000
	for i := 0; i < n; i++ {
		if m.SampleComponentIndex(rng) == 0 {
			count0++
		}
	}
	frac := float64(count0) / n
	if math.Abs(frac-0.4) > 0.02 {
		t.Fatalf("component 0 frequency = %v, want ~0.4", frac)
	}
}

func TestMixtureSampleNSeparation(t *testing.T) {
	m := twoComponentMixture()
	rng := rand.New(rand.NewSource(43))
	xs := m.SampleN(rng, 5000)
	var left, right int
	for _, x := range xs {
		if x[0] < 0 {
			left++
		} else {
			right++
		}
	}
	if math.Abs(float64(left)/5000-0.4) > 0.03 {
		t.Fatalf("left fraction = %v", float64(left)/5000)
	}
	_ = right
}

// moments returns the overall mean and covariance of m:
// μ = Σ w_j μ_j and Σ = Σ w_j (Σ_j + μ_j μ_jᵀ) − μμᵀ, the oracle the
// moment-preserving merge is checked against.
func moments(m *Mixture) (linalg.Vector, *linalg.Sym) {
	d := m.Dim()
	mean := linalg.NewVector(d)
	for j, c := range m.comps {
		mean.AXPYInPlace(m.weights[j], c.Mean())
	}
	cov := linalg.NewSym(d)
	for j, c := range m.comps {
		cov.AddSym(m.weights[j], c.Cov())
		cov.AddOuterScaled(m.weights[j], c.Mean().Sub(mean))
	}
	return mean, cov
}

func TestMixtureMoments(t *testing.T) {
	m := twoComponentMixture()
	mean, cov := moments(m)
	// μ = 0.4·(−3) + 0.6·3 = 0.6
	if math.Abs(mean[0]-0.6) > 1e-12 {
		t.Fatalf("mixture mean = %v, want 0.6", mean[0])
	}
	// Σ = Σ w_j(σ² + μ_j²) − μ² = (0.4·(1+9) + 0.6·(1+9)) − 0.36 = 9.64
	if math.Abs(cov.At(0, 0)-9.64) > 1e-12 {
		t.Fatalf("mixture var = %v, want 9.64", cov.At(0, 0))
	}
}

func TestMixtureMomentsMatchSampling(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	comps := []*Component{randComponent(rng, 2), randComponent(rng, 2), randComponent(rng, 2)}
	m := MustMixture([]float64{1, 2, 3}, comps)
	mean, cov := moments(m)
	const n = 120000
	sm := linalg.NewVector(2)
	xs := make([]linalg.Vector, n)
	for i := range xs {
		xs[i] = m.Sample(rng)
		sm.AddInPlace(xs[i])
	}
	sm.ScaleInPlace(1 / float64(n))
	if !sm.Equal(mean, 0.05) {
		t.Fatalf("sampled mean %v vs moments %v", sm, mean)
	}
	sc := linalg.NewSym(2)
	for _, x := range xs {
		sc.AddOuterScaled(1/float64(n), x.Sub(sm))
	}
	if !sc.Equal(cov, 0.15) {
		t.Fatalf("sampled cov diag %v vs moments %v", sc.Diag(), cov.Diag())
	}
}

func TestMixtureAccessors(t *testing.T) {
	m := twoComponentMixture()
	ws := m.Weights()
	if len(ws) != 2 || math.Abs(ws[0]-0.4) > 1e-15 {
		t.Fatalf("Weights = %v", ws)
	}
	ws[0] = 99 // returned slice must be a copy
	if m.Weight(0) != 0.4 {
		t.Fatal("Weights aliases internal storage")
	}
	if s := m.String(); s != "Mixture(K=2, d=1)" {
		t.Fatalf("String = %q", s)
	}
	if s := m.Component(0).String(); s == "" {
		t.Fatal("component String empty")
	}
}

func TestMixtureAvgMaxComponentLL(t *testing.T) {
	m := twoComponentMixture()
	data := []linalg.Vector{{-3}, {3}}
	want := (oracleMaxComponentLogPDF(m, data[0]) + oracleMaxComponentLogPDF(m, data[1])) / 2
	if got := m.AvgMaxComponentLL(data); math.Abs(got-want) > 1e-15 {
		t.Fatalf("AvgMaxComponentLL = %v, want %v", got, want)
	}
	if m.AvgMaxComponentLL(nil) != 0 {
		t.Fatal("empty data should score 0")
	}
	// Sharpened statistic is a lower bound on the full likelihood.
	if m.AvgMaxComponentLL(data) > m.AvgLogLikelihood(data) {
		t.Fatal("max-component exceeds mixture avg LL")
	}
}

func TestMixtureSignatureAndApproxEqual(t *testing.T) {
	a := twoComponentMixture()
	b := twoComponentMixture()
	if !a.ApproxEqual(b, 0.01, 0.01) {
		t.Fatal("identical mixtures not ApproxEqual")
	}
	if a.ApproxEqual(nil, 1, 1) {
		t.Fatal("nil comparison true")
	}
	// A small weight shift stays within tolerance; a big one does not.
	shifted := MustMixture([]float64{0.42, 0.58}, a.comps)
	if !a.ApproxEqual(shifted, 0.05, 0.01) {
		t.Fatal("2% weight drift flagged at 5% tolerance")
	}
	if a.ApproxEqual(shifted, 0.01, 0.01) {
		t.Fatal("2% weight drift missed at 1% tolerance")
	}
	// A mean move beyond tolerance flags.
	moved := MustMixture([]float64{0.4, 0.6}, []*Component{
		Spherical(linalg.Vector{-3.5}, 1), a.Component(1),
	})
	if a.ApproxEqual(moved, 0.05, 0.1) {
		t.Fatal("0.5 mean move missed at 0.1 tolerance")
	}
	// Different K.
	single := MustMixture([]float64{1}, []*Component{a.Component(0)})
	if a.ApproxEqual(single, 1, 1e9) {
		t.Fatal("different K reported equal")
	}
}

func TestLogAddStability(t *testing.T) {
	// LogAdd must not overflow for large magnitude inputs.
	got := LogAdd(-1000, -1000)
	want := -1000 + math.Log(2)
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("LogAdd(-1000,-1000) = %v, want %v", got, want)
	}
	if got := LogAdd(math.Inf(-1), -5); got != -5 {
		t.Fatalf("LogAdd(-inf, -5) = %v", got)
	}
	if got := LogAdd(-5, math.Inf(-1)); got != -5 {
		t.Fatalf("LogAdd(-5, -inf) = %v", got)
	}
}

// logAddFormula is LogAdd without its skip rule — the reference
// TestLogAddMatchesFormula holds it to.
func logAddFormula(a, b float64) float64 {
	if math.IsInf(a, -1) {
		return b
	}
	if math.IsInf(b, -1) {
		return a
	}
	if a < b {
		a, b = b, a
	}
	return a + math.Log1p(math.Exp(b-a))
}

// skipThreshold is the b−a below which LogAdd returns the larger input a
// without evaluating the formula; zero and subnormal a never skip.
func skipThreshold(a float64) float64 {
	e := int(math.Float64bits(a) >> 52 & 0x7ff)
	if e == 0 {
		return math.Inf(-1)
	}
	return float64(e-1078) * math.Ln2
}

// TestLogAddMatchesFormula: LogAdd's skip rule never changes a bit. Every
// pair is checked in both argument orders against the plain formula, on
// 10⁷ seeded random pairs plus the adversarial cases: powers of two and
// their neighbours, |a| < 1, b−a stepped ulp by ulp across the skip
// threshold and across the true rounding boundary one ln 2 above it, b−a
// where Exp returns subnormals and below, and the special values.
func TestLogAddMatchesFormula(t *testing.T) {
	var pairs, skips int
	check := func(a, b float64) {
		for _, p := range [2][2]float64{{a, b}, {b, a}} {
			got, want := LogAdd(p[0], p[1]), logAddFormula(p[0], p[1])
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("LogAdd(%v, %v) = %v (%#x), formula gives %v (%#x)",
					p[0], p[1], got, math.Float64bits(got), want, math.Float64bits(want))
			}
		}
		pairs++
		if hi := math.Max(a, b); math.Min(a, b)-hi < skipThreshold(hi) {
			skips++
		}
	}
	// walk checks b = fl(a+d) and its 64 float neighbours on either side,
	// which steps b−a across d by one ulp of b at a time.
	walk := func(a, d float64) {
		b := a + d
		for i, lo := 0, b; i < 64; i++ {
			lo = math.Nextafter(lo, math.Inf(-1))
			check(a, lo)
		}
		for i, hi := 0, b; i <= 64; i++ {
			check(a, hi)
			hi = math.Nextafter(hi, math.Inf(1))
		}
	}
	// around walks b−a across the skip threshold and across the true
	// rounding boundary (half a gap is twice the skip bound), and over a
	// coarse grid between them.
	around := func(a float64) {
		thr := skipThreshold(a)
		if math.IsInf(thr, -1) {
			thr = -745 // zero and subnormal a: where Exp underflows
		}
		walk(a, thr)
		walk(a, thr+math.Ln2)
		for d := thr - 4; d <= thr+4; d += 1.0 / 64 {
			check(a, a+d)
		}
	}

	// Powers of two and their neighbours: the gap below |a| = 2^k is half
	// the gap above it.
	for k := -20; k <= 20; k++ {
		for _, s := range []float64{1, -1} {
			a := s * math.Ldexp(1, k)
			for _, x := range []float64{math.Nextafter(a, math.Inf(-1)), a, math.Nextafter(a, math.Inf(1))} {
				around(x)
			}
		}
	}
	// |a| < 1, down through the subnormals to zero.
	smalls := []float64{0, 5e-324, math.Nextafter(0x1p-1022, 0), 0x1p-1022, 1e-300, 1e-20, 0.5, math.Nextafter(1, 0)}
	for k := -1074; k < 0; k += 13 {
		smalls = append(smalls, math.Ldexp(1.37, k))
	}
	for _, v := range smalls {
		for _, a := range []float64{v, -v} {
			around(a)
			for _, d := range []float64{-1, -10, -37, -38, -39, -40, -1000, -1e300} {
				check(a, a+d)
			}
		}
	}
	// b−a where Exp returns subnormals (−708 … −745) and below it.
	for _, a := range []float64{0, math.Copysign(0, -1), 5e-324, -5e-324, 0x1p-1022, -0x1p-1022,
		0x1p-1000, -0x1p-1000, 1e-300, -1e-300, 1, -1, 1000, -1000} {
		for d := -700.0; d >= -760; d -= 1.0 / 32 {
			check(a, a+d)
		}
		for _, d := range []float64{-800, -1e5, -1e300, -math.MaxFloat64} {
			check(a, a+d)
		}
	}
	// Special values, every ordered pair: a = b, ±0, ±Inf, NaN, extremes.
	specials := []float64{0, math.Copysign(0, -1), 1, -1, 5e-324, -5e-324, 0x1p-1022, 1e-300, -1e-300,
		0.5, -0.5, 38, -38, -1000, 0x1p53, -0x1p53, 1e300, -1e300, math.MaxFloat64, -math.MaxFloat64,
		math.Inf(1), math.Inf(-1), math.NaN()}
	for _, a := range specials {
		for _, b := range specials {
			check(a, b)
		}
	}

	// Seeded random pairs: log-uniform magnitudes on both sides of 1, and
	// b−a near the threshold, moderate, deep, or an independent b.
	rng := rand.New(rand.NewSource(25))
	draw := func() float64 {
		if rng.Intn(8) == 0 {
			return 2*rng.Float64() - 1
		}
		v := math.Ldexp(1+rng.Float64(), rng.Intn(141)-60)
		if rng.Intn(2) == 0 {
			v = -v
		}
		return v
	}
	const randomPairs = 10_000_000
	for i := 0; i < randomPairs; i++ {
		a := draw()
		var b float64
		switch r := rng.Intn(10); {
		case r < 4:
			thr := skipThreshold(a)
			if math.IsInf(thr, -1) {
				thr = -745
			}
			b = a + thr + 8*(rng.Float64()-0.5)
		case r < 7:
			b = a - 60*rng.Float64()
		case r < 9:
			b = a - 200*rng.ExpFloat64()
		default:
			b = draw()
		}
		check(a, b)
	}
	if skips < pairs/4 || pairs-skips < pairs/4 {
		t.Fatalf("%d pairs, %d in the skip region: the test does not exercise both paths", pairs, skips)
	}
	t.Logf("%d pairs in both orders, %d in the skip region", pairs, skips)
}
