package em

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"cludistream/internal/gaussian"
	"cludistream/internal/linalg"
)

// maskOut replaces each attribute with NaN independently with probability
// frac, never blanking an entire record.
func maskOut(rng *rand.Rand, data []linalg.Vector, frac float64) []linalg.Vector {
	out := make([]linalg.Vector, len(data))
	for i, x := range data {
		y := x.Clone()
		blanked := 0
		for a := range y {
			if rng.Float64() < frac && blanked < len(y)-1 {
				y[a] = math.NaN()
				blanked++
			}
		}
		out[i] = y
	}
	return out
}

func TestFitIncompleteMatchesFitOnCompleteData(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	data, _ := genMixtureData(rng, []linalg.Vector{{-5, 0}, {5, 0}}, 1, 800)
	full, err := Fit(data, Config{K: 2, Seed: 1, MaxIter: 60, Tol: 1e-5})
	if err != nil {
		t.Fatal(err)
	}
	inc, err := FitIncomplete(data, Config{K: 2, Seed: 1, MaxIter: 60, Tol: 1e-5})
	if err != nil {
		t.Fatal(err)
	}
	// Identical inputs and seeds: the two paths must find the same modes.
	fullMeans := []float64{full.Mixture.Component(0).Mean()[0], full.Mixture.Component(1).Mean()[0]}
	incMeans := []float64{inc.Mixture.Component(0).Mean()[0], inc.Mixture.Component(1).Mean()[0]}
	sort.Float64s(fullMeans)
	sort.Float64s(incMeans)
	for i := range fullMeans {
		if math.Abs(fullMeans[i]-incMeans[i]) > 0.1 {
			t.Fatalf("complete-data paths diverge: %v vs %v", incMeans, fullMeans)
		}
	}
}

func TestFitIncompleteRecovers20PctMissing(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	truthMeans := []linalg.Vector{{-5, 3}, {5, -3}}
	data, _ := genMixtureData(rng, truthMeans, 1, 1500)
	holey := maskOut(rng, data, 0.2)
	res, err := FitIncomplete(holey, Config{K: 2, Seed: 1, MaxIter: 80, Tol: 1e-5})
	if err != nil {
		t.Fatal(err)
	}
	for _, mu := range truthMeans {
		best := math.Inf(1)
		for j := 0; j < 2; j++ {
			if d := mu.DistSq(res.Mixture.Component(j).Mean()); d < best {
				best = d
			}
		}
		if best > 0.25 {
			t.Errorf("mean %v not recovered with 20%% missing (dist² %v)", mu, best)
		}
	}
	// Variances should stay near 1, not blow up from imputation.
	for j := 0; j < 2; j++ {
		for a := 0; a < 2; a++ {
			v := res.Mixture.Component(j).Cov().At(a, a)
			if v < 0.5 || v > 2 {
				t.Errorf("component %d var[%d] = %v, want ≈1", j, a, v)
			}
		}
	}
}

func TestFitIncompleteCorrelatedImputation(t *testing.T) {
	// Strongly correlated attributes: conditional imputation must exploit
	// the correlation (mean imputation would not). Verify the fitted
	// covariance keeps the correlation despite 30% missing entries.
	rng := rand.New(rand.NewSource(43))
	cov := linalg.NewSymFrom(2, []float64{1, 0.9, 0.9, 1})
	truth := gaussian.MustComponent(linalg.Vector{0, 0}, cov)
	data := make([]linalg.Vector, 2000)
	for i := range data {
		data[i] = truth.Sample(rng)
	}
	holey := maskOut(rng, data, 0.3)
	res, err := FitIncomplete(holey, Config{K: 1, Seed: 1, MaxIter: 80, Tol: 1e-6})
	if err != nil {
		t.Fatal(err)
	}
	got := res.Mixture.Component(0).Cov()
	corr := got.At(0, 1) / math.Sqrt(got.At(0, 0)*got.At(1, 1))
	if corr < 0.8 {
		t.Fatalf("correlation washed out by missing data: %v, want ≈0.9", corr)
	}
}

func TestFitIncompleteMonotoneLikelihood(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	data, _ := genMixtureData(rng, []linalg.Vector{{-4}, {4}}, 1, 600)
	holey := maskOut(rng, data, 0.1)
	prev := math.Inf(-1)
	for iters := 2; iters <= 20; iters += 3 {
		res, err := FitIncomplete(holey, Config{K: 2, Seed: 5, MaxIter: iters, Tol: 1e-15})
		if err != nil {
			t.Fatal(err)
		}
		if res.AvgLogLikelihood < prev-1e-6 {
			t.Fatalf("observed-data likelihood decreased: %v -> %v at %d iters", prev, res.AvgLogLikelihood, iters)
		}
		prev = res.AvgLogLikelihood
	}
}

func TestFitIncompleteValidation(t *testing.T) {
	nan := math.NaN()
	if _, err := FitIncomplete([]linalg.Vector{{nan, nan}}, Config{K: 1}); err == nil {
		t.Fatal("all-missing record accepted")
	}
	if _, err := FitIncomplete([]linalg.Vector{{1, 2}}, Config{K: 0}); err == nil {
		t.Fatal("K=0 accepted")
	}
	if _, err := FitIncomplete([]linalg.Vector{{1}}, Config{K: 3}); err != ErrNotEnoughData {
		t.Fatal("too-few records accepted")
	}
	if _, err := FitIncomplete([]linalg.Vector{{1}, {2, 3}}, Config{K: 1}); err == nil {
		t.Fatal("ragged data accepted")
	}
	if _, err := FitIncomplete([]linalg.Vector{{math.Inf(1), 1}, {0, 1}}, Config{K: 1}); err == nil {
		t.Fatal("infinite attribute accepted")
	}
}

func TestFitIncompleteBeatsMeanImputation(t *testing.T) {
	// The headline: proper missing-data EM should model held-out complete
	// data better than naive mean-impute-then-EM when attributes are
	// correlated.
	rng := rand.New(rand.NewSource(45))
	cov := linalg.NewSymFrom(2, []float64{1, 0.85, 0.85, 1})
	truth := gaussian.MustComponent(linalg.Vector{2, -1}, cov)
	train := make([]linalg.Vector, 1500)
	for i := range train {
		train[i] = truth.Sample(rng)
	}
	holey := maskOut(rng, train, 0.35)
	test := make([]linalg.Vector, 800)
	for i := range test {
		test[i] = truth.Sample(rng)
	}

	proper, err := FitIncomplete(holey, Config{K: 1, Seed: 1, MaxIter: 80, Tol: 1e-6})
	if err != nil {
		t.Fatal(err)
	}
	masks := make([]uint64, len(holey))
	for i, x := range holey {
		for a, v := range x {
			if !math.IsNaN(v) {
				masks[i] |= 1 << a
			}
		}
	}
	naiveData := meanImpute(holey, masks)
	naive, err := Fit(naiveData, Config{K: 1, Seed: 1, MaxIter: 80, Tol: 1e-6})
	if err != nil {
		t.Fatal(err)
	}
	properLL := proper.Mixture.AvgLogLikelihood(test)
	naiveLL := naive.Mixture.AvgLogLikelihood(test)
	if properLL <= naiveLL {
		t.Fatalf("missing-data EM (%v) did not beat mean imputation (%v)", properLL, naiveLL)
	}
}
