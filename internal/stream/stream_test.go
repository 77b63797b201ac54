package stream

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"cludistream/internal/gaussian"
	"cludistream/internal/linalg"
)

func TestSyntheticValidation(t *testing.T) {
	bad := []SyntheticConfig{
		{Dim: 0, K: 2},
		{Dim: 2, K: 0},
		{Dim: 2, K: 2, Pd: -0.1},
		{Dim: 2, K: 2, Pd: 1.5},
		{Dim: 2, K: 2, NoiseFrac: 1},
	}
	for i, cfg := range bad {
		if _, err := NewSynthetic(cfg); err == nil {
			t.Errorf("config %d accepted", i)
		}
	}
}

func TestSyntheticDeterministic(t *testing.T) {
	mk := func() []linalg.Vector {
		g, err := NewSynthetic(SyntheticConfig{Dim: 3, K: 2, Pd: 0.5, RegimeLen: 100, Seed: 42})
		if err != nil {
			t.Fatal(err)
		}
		return Take(g, 500)
	}
	a, b := mk(), mk()
	for i := range a {
		if !a[i].Equal(b[i], 0) {
			t.Fatalf("record %d differs", i)
		}
	}
}

func TestSyntheticRegimeSwitching(t *testing.T) {
	// Pd=1 forces a redraw at every boundary.
	g, _ := NewSynthetic(SyntheticConfig{Dim: 1, K: 1, Pd: 1, RegimeLen: 100, Seed: 7})
	Take(g, 1000)
	if got := g.Regimes(); got != 10 {
		t.Fatalf("regimes = %d, want 10", got)
	}
	// Pd=0 never switches.
	g0, _ := NewSynthetic(SyntheticConfig{Dim: 1, K: 1, Pd: 0, RegimeLen: 100, Seed: 7})
	Take(g0, 1000)
	if got := g0.Regimes(); got != 1 {
		t.Fatalf("regimes = %d, want 1", got)
	}
	if g0.count != 1000 {
		t.Fatalf("emitted %d records, want 1000", g0.count)
	}
}

func TestSyntheticPdStatistics(t *testing.T) {
	// With Pd=0.3 and 100 boundaries, regime draws ≈ 1 + Binomial(99, 0.3).
	g, _ := NewSynthetic(SyntheticConfig{Dim: 1, K: 1, Pd: 0.3, RegimeLen: 100, Seed: 11})
	Take(g, 10000)
	got := g.Regimes()
	if got < 15 || got > 50 {
		t.Fatalf("regimes = %d, want ≈30", got)
	}
}

func TestSyntheticSamplesFollowCurrentMixture(t *testing.T) {
	g, _ := NewSynthetic(SyntheticConfig{Dim: 2, K: 3, Pd: 0, Seed: 13})
	data := Take(g, 3000)
	ll := g.CurrentMixture().AvgLogLikelihood(data)
	// Data drawn from the mixture itself must have healthy likelihood.
	if ll < -6 {
		t.Fatalf("avg LL = %v under own mixture", ll)
	}
}

func TestSyntheticNoiseInjection(t *testing.T) {
	g, _ := NewSynthetic(SyntheticConfig{Dim: 1, K: 1, Pd: 0, NoiseFrac: 0.5, MeanRange: 10, Seed: 17})
	data := Take(g, 4000)
	// With 50% uniform noise over ±12, many records must fall far outside
	// the (σ≤√2) cluster.
	mu := g.CurrentMixture().Component(0).Mean()[0]
	var far int
	for _, x := range data {
		if math.Abs(x[0]-mu) > 5 {
			far++
		}
	}
	if far < 500 {
		t.Fatalf("only %d far-out records with 50%% noise", far)
	}
}

func TestSyntheticMissingFrac(t *testing.T) {
	g, err := NewSynthetic(SyntheticConfig{Dim: 3, K: 2, Pd: 0, MissingFrac: 0.3, Seed: 19})
	if err != nil {
		t.Fatal(err)
	}
	data := Take(g, 3000)
	var missing, rows int
	for _, x := range data {
		blanked := 0
		for _, v := range x {
			if math.IsNaN(v) {
				missing++
				blanked++
			}
		}
		if blanked == len(x) {
			t.Fatal("fully-blank record emitted")
		}
		rows++
	}
	frac := float64(missing) / float64(rows*3)
	if frac < 0.2 || frac > 0.35 {
		t.Fatalf("missing fraction = %v, want ≈0.3 (capped by the full-blank guard)", frac)
	}
	if _, err := NewSynthetic(SyntheticConfig{Dim: 1, K: 1, MissingFrac: 1}); err == nil {
		t.Fatal("MissingFrac=1 accepted")
	}
}

func TestAlternatingCycles(t *testing.T) {
	a := gaussian.MustMixture([]float64{1}, []*gaussian.Component{gaussian.Spherical(linalg.Vector{-100}, 1)})
	b := gaussian.MustMixture([]float64{1}, []*gaussian.Component{gaussian.Spherical(linalg.Vector{100}, 1)})
	g, err := NewAlternating([]*gaussian.Mixture{a, b}, 50, 1)
	if err != nil {
		t.Fatal(err)
	}
	data := Take(g, 200)
	for i, x := range data {
		wantNeg := (i/50)%2 == 0
		if wantNeg != (x[0] < 0) {
			t.Fatalf("record %d = %v on wrong side", i, x[0])
		}
	}
}

func TestAlternatingValidation(t *testing.T) {
	a := gaussian.MustMixture([]float64{1}, []*gaussian.Component{gaussian.Spherical(linalg.Vector{0}, 1)})
	b2d := gaussian.MustMixture([]float64{1}, []*gaussian.Component{gaussian.Spherical(linalg.Vector{0, 0}, 1)})
	if _, err := NewAlternating(nil, 10, 1); err == nil {
		t.Error("empty mixture list accepted")
	}
	if _, err := NewAlternating([]*gaussian.Mixture{a}, 0, 1); err == nil {
		t.Error("regimeLen 0 accepted")
	}
	if _, err := NewAlternating([]*gaussian.Mixture{a, b2d}, 10, 1); err == nil {
		t.Error("dim mismatch accepted")
	}
}

func TestNFDShapeAndRange(t *testing.T) {
	g, err := NewNFD(NFDConfig{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if g.Dim() != NFDDim {
		t.Fatalf("Dim = %d", g.Dim())
	}
	data := Take(g, 5000)
	for i, x := range data {
		if len(x) != 6 {
			t.Fatalf("record %d has dim %d", i, len(x))
		}
		for a, v := range x {
			if v < 0 || v > 1 || math.IsNaN(v) {
				t.Fatalf("record %d attr %d = %v outside [0,1]", i, a, v)
			}
		}
	}
}

func TestNFDHeavyTailedVolumes(t *testing.T) {
	g, _ := NewNFD(NFDConfig{Seed: 2, Pd: 0})
	data := Take(g, 20000)
	// The raw packet counts (inverting the log1p normalization of
	// attribute 4) must be Pareto-tailed: mean well above median, and a
	// max orders of magnitude above it.
	const maxPackets = 1e6
	raw := make([]float64, len(data))
	var mean, max float64
	for i, x := range data {
		raw[i] = math.Expm1(x[4] * math.Log1p(maxPackets))
		mean += raw[i]
		if raw[i] > max {
			max = raw[i]
		}
	}
	mean /= float64(len(raw))
	var below int
	for _, v := range raw {
		if v < mean {
			below++
		}
	}
	if below <= len(raw)*55/100 {
		t.Fatalf("raw volumes not right-skewed: %d/%d below mean", below, len(raw))
	}
	if max < 20*mean {
		t.Fatalf("tail too light: max %v vs mean %v", max, mean)
	}
}

func TestNFDRegimeShiftsMoveDistribution(t *testing.T) {
	g, _ := NewNFD(NFDConfig{Seed: 3, Pd: 1, RegimeLen: 5000})
	first := Take(g, 5000)
	_ = Take(g, 5000) // let several regimes pass
	_ = Take(g, 5000)
	later := Take(g, 5000)
	if g.Regimes() < 2 {
		t.Fatalf("regimes = %d", g.Regimes())
	}
	// Mean destination-port attribute should move across regimes.
	meanAttr := func(data []linalg.Vector, i int) float64 {
		var s float64
		for _, x := range data {
			s += x[i]
		}
		return s / float64(len(data))
	}
	moved := false
	for _, i := range []int{1, 3, 4, 5} {
		if math.Abs(meanAttr(first, i)-meanAttr(later, i)) > 0.02 {
			moved = true
		}
	}
	if !moved {
		t.Fatal("regime change left all attribute means unchanged")
	}
}

func TestNFDValidation(t *testing.T) {
	if _, err := NewNFD(NFDConfig{Pd: 2}); err == nil {
		t.Fatal("Pd=2 accepted")
	}
}

func TestParetoTail(t *testing.T) {
	rng := newTestRand(5)
	var max, sum float64
	const n = 100000
	for i := 0; i < n; i++ {
		v := pareto(rng, 1.5, 1)
		if v < 1 {
			t.Fatalf("pareto below min: %v", v)
		}
		sum += v
		if v > max {
			max = v
		}
	}
	// E[X] = α/(α-1) = 3 for α=1.5, min=1. Sample mean is noisy but
	// should land in a broad band; the max must be far out in the tail.
	mean := sum / n
	if mean < 2 || mean > 5 {
		t.Fatalf("pareto mean = %v, want ≈3", mean)
	}
	if max < 100 {
		t.Fatalf("pareto max = %v, tail too light", max)
	}
}

func TestCSVRoundTrip(t *testing.T) {
	data := []linalg.Vector{{1.5, -2.25}, {0, 3e-9}, {math.Pi, -math.E}}
	var buf bytes.Buffer
	if err := WriteCSV(&buf, data); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(data) {
		t.Fatalf("read %d rows", len(got))
	}
	for i := range data {
		if !got[i].Equal(data[i], 0) {
			t.Fatalf("row %d: %v != %v", i, got[i], data[i])
		}
	}
}

func TestCSVErrors(t *testing.T) {
	if _, err := ReadCSV(strings.NewReader("1,2\n3\n")); err == nil {
		t.Error("ragged CSV accepted")
	}
	if _, err := ReadCSV(strings.NewReader("1,abc\n")); err == nil {
		t.Error("non-numeric CSV accepted")
	}
	got, err := ReadCSV(strings.NewReader("\n\n1,2\n\n"))
	if err != nil || len(got) != 1 {
		t.Errorf("blank-line handling: %v %v", got, err)
	}
}
