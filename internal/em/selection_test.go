package em

import (
	"math"
	"math/rand"
	"testing"

	"cludistream/internal/linalg"
)

func TestNumParams(t *testing.T) {
	// K=5, d=4, full: 4 + 20 + 5·10 = 74.
	if got := NumParams(5, 4, FullCov); got != 74 {
		t.Fatalf("NumParams full = %d, want 74", got)
	}
	// Diagonal: 4 + 20 + 20 = 44.
	if got := NumParams(5, 4, DiagCov); got != 44 {
		t.Fatalf("NumParams diag = %d, want 44", got)
	}
	if NumParams(1, 1, FullCov) != 2 {
		t.Fatal("K=1 d=1 should have 2 params (mean + var)")
	}
}

func TestBICAICPenalizeComplexity(t *testing.T) {
	// Same likelihood, more components → worse (higher) score.
	const n, d = 1000, 2
	ll := -3.0
	if BIC(ll, n, 2, d, FullCov) >= BIC(ll, n, 5, d, FullCov) {
		t.Fatal("BIC did not penalize extra components")
	}
	// BIC penalizes harder than AIC (−2·logL + 2·p) for n > e².
	gapBIC := BIC(ll, n, 5, d, FullCov) - BIC(ll, n, 2, d, FullCov)
	gapAIC := 2 * float64(NumParams(5, d, FullCov)-NumParams(2, d, FullCov))
	if gapBIC <= gapAIC {
		t.Fatalf("BIC gap %v should exceed AIC gap %v at n=%d", gapBIC, gapAIC, n)
	}
}

func TestFitBestKRecoversTrueK(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	// Three very well separated clusters.
	data, _ := genMixtureData(rng, []linalg.Vector{{-20}, {0}, {20}}, 1, 1200)
	sel, err := FitBestK(data, 1, 6, Config{Seed: 1, MaxIter: 60, Tol: 1e-4})
	if err != nil {
		t.Fatal(err)
	}
	if sel.BestK != 3 {
		t.Fatalf("BestK = %d, want 3 (scores: %v)", sel.BestK, sel.Scores)
	}
	if sel.Best == nil || sel.Best.Mixture.K() != 3 {
		t.Fatal("Best result inconsistent with BestK")
	}
	if len(sel.Scores) != 6 {
		t.Fatalf("scored %d values of K", len(sel.Scores))
	}
	// The score curve should dip at 3.
	if sel.Scores[3] >= sel.Scores[1] || sel.Scores[3] >= sel.Scores[6] {
		t.Fatalf("no dip at K=3: %v", sel.Scores)
	}
}

func TestFitBestKSingleCluster(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	data, _ := genMixtureData(rng, []linalg.Vector{{0, 0}}, 1, 600)
	sel, err := FitBestK(data, 1, 4, Config{Seed: 1, MaxIter: 60, Tol: 1e-4})
	if err != nil {
		t.Fatal(err)
	}
	if sel.BestK != 1 {
		t.Fatalf("BestK = %d on unimodal data (scores: %v)", sel.BestK, sel.Scores)
	}
}

func TestFitBestKSkipsInfeasible(t *testing.T) {
	// Only 3 records: K=4,5 must be skipped, not fail the sweep.
	data := []linalg.Vector{{0}, {10}, {20}}
	sel, err := FitBestK(data, 1, 5, Config{Seed: 1, MinVar: 1e-3})
	if err != nil {
		t.Fatal(err)
	}
	if sel.BestK > 3 {
		t.Fatalf("BestK = %d with 3 records", sel.BestK)
	}
	for k := 4; k <= 5; k++ {
		if _, ok := sel.Scores[k]; ok {
			t.Fatalf("infeasible K=%d scored", k)
		}
	}
}

func TestFitBestKErrors(t *testing.T) {
	if _, err := FitBestK(nil, 1, 3, Config{}); err == nil {
		t.Fatal("empty data accepted")
	}
	data := []linalg.Vector{{0}}
	if _, err := FitBestK(data, 0, 3, Config{}); err == nil {
		t.Fatal("kMin=0 accepted")
	}
	if _, err := FitBestK(data, 3, 1, Config{}); err == nil {
		t.Fatal("inverted range accepted")
	}
	if _, err := FitBestK(data, 5, 9, Config{}); err == nil {
		t.Fatal("all-infeasible range should error")
	}
}

func TestBICConsistentWithLikelihood(t *testing.T) {
	// For fixed K, higher likelihood ⇒ lower BIC.
	a := BIC(-2.0, 500, 3, 2, FullCov)
	b := BIC(-3.0, 500, 3, 2, FullCov)
	if a >= b {
		t.Fatalf("BIC(-2)=%v should beat BIC(-3)=%v", a, b)
	}
	if math.IsNaN(a) || math.IsInf(a, 0) {
		t.Fatal("BIC not finite")
	}
}
