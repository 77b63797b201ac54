package gaussian

import (
	"math"
	"math/rand"
	"testing"

	"cludistream/internal/linalg"
	"cludistream/internal/simplex"
)

func TestMomentMergeIdenticalComponents(t *testing.T) {
	c := Spherical(linalg.Vector{1, 2}, 2)
	w, mean, cov := MomentMerge(0.3, c, 0.7, c)
	if math.Abs(w-1) > 1e-15 {
		t.Fatalf("w = %v", w)
	}
	if !mean.Equal(linalg.Vector{1, 2}, 1e-12) {
		t.Fatalf("mean = %v", mean)
	}
	if !cov.Equal(c.Cov(), 1e-12) {
		t.Fatalf("cov diag = %v", cov.Diag())
	}
}

func TestMomentMergeKnown1D(t *testing.T) {
	// Equal weights, unit variances, means ±1: merged μ=0,
	// σ² = 1 + 1 = mean of (σ²+μ²) − μ̄² = (1+1+1+1)/2 − 0 = 2.
	a := Spherical(linalg.Vector{-1}, 1)
	b := Spherical(linalg.Vector{1}, 1)
	w, mean, cov := MomentMerge(0.5, a, 0.5, b)
	if w != 1 || math.Abs(mean[0]) > 1e-15 {
		t.Fatalf("w=%v mean=%v", w, mean)
	}
	if math.Abs(cov.At(0, 0)-2) > 1e-12 {
		t.Fatalf("var = %v, want 2", cov.At(0, 0))
	}
}

func TestMomentMergeMatchesMixtureMoments(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	a, b := randComponent(rng, 3), randComponent(rng, 3)
	wi, wj := 0.3, 0.5
	_, mean, cov := MomentMerge(wi, a, wj, b)
	// Compare with Moments() of the normalized 2-component mixture.
	m := MustMixture([]float64{wi, wj}, []*Component{a, b})
	mMean, mCov := m.Moments()
	if !mean.Equal(mMean, 1e-12) {
		t.Fatalf("mean %v vs %v", mean, mMean)
	}
	if !cov.Equal(mCov, 1e-10) {
		t.Fatalf("cov mismatch")
	}
}

func TestL1LossZeroForPerfectMerge(t *testing.T) {
	// Merging a component with itself: the moment merge is exact, so the
	// L1 loss must be ~0.
	rng := rand.New(rand.NewSource(62))
	c := Spherical(linalg.Vector{0, 0}, 1)
	_, mean, cov := MomentMerge(0.5, c, 0.5, c)
	merged := MustComponent(mean, cov)
	loss := L1Loss(0.5, c, 0.5, c, merged, 512, rng)
	if loss > 1e-10 {
		t.Fatalf("L1 loss for identity merge = %v", loss)
	}
}

func TestL1LossPositiveForBadMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(63))
	a := Spherical(linalg.Vector{-4}, 1)
	b := Spherical(linalg.Vector{4}, 1)
	good := func() *Component {
		_, mean, cov := MomentMerge(0.5, a, 0.5, b)
		return MustComponent(mean, cov)
	}()
	bad := Spherical(linalg.Vector{50}, 1) // nowhere near the mass
	lGood := L1Loss(0.5, a, 0.5, b, good, 512, rng)
	lBad := L1Loss(0.5, a, 0.5, b, bad, 512, rand.New(rand.NewSource(63)))
	if lGood >= lBad {
		t.Fatalf("good merge loss %v should beat bad %v", lGood, lBad)
	}
	// Totally wrong merged density: |a − b| ≈ a everywhere mass lives, so
	// loss ≈ total weight = 1.
	if math.Abs(lBad-1) > 0.05 {
		t.Fatalf("bad merge loss = %v, want ≈ 1", lBad)
	}
}

func TestL1LossBounded(t *testing.T) {
	// l(x) = ∫|a−b| ≤ ∫a + ∫b = 2w. Monte-Carlo noise stays within ~10%.
	rng := rand.New(rand.NewSource(64))
	for i := 0; i < 10; i++ {
		a, b := randComponent(rng, 2), randComponent(rng, 2)
		merged := randComponent(rng, 2)
		loss := L1Loss(0.5, a, 0.5, b, merged, 512, rng)
		if loss < 0 || loss > 2.2 {
			t.Fatalf("loss out of bounds: %v", loss)
		}
	}
}

func TestFitMergeImprovesOrMatchesMoment(t *testing.T) {
	rng := rand.New(rand.NewSource(65))
	a := Spherical(linalg.Vector{-2, 0}, 1)
	b := Spherical(linalg.Vector{2, 0}, 1)
	w, fitted := FitMerge(0.5, a, 0.5, b, MergeOptions{Samples: 256, Seed: 7})
	if math.Abs(w-1) > 1e-12 {
		t.Fatalf("w = %v", w)
	}
	_, mean0, cov0 := MomentMerge(0.5, a, 0.5, b)
	base := MustComponent(mean0, cov0)
	crn := func(c *Component) float64 {
		return L1Loss(0.5, a, 0.5, b, c, 256, rand.New(rand.NewSource(7)))
	}
	if crn(fitted) > crn(base)+1e-12 {
		t.Fatalf("fitted loss %v worse than moment %v", crn(fitted), crn(base))
	}
	_ = rng
}

func TestFitMergeMomentOnly(t *testing.T) {
	a := Spherical(linalg.Vector{-1}, 1)
	b := Spherical(linalg.Vector{1}, 1)
	w, c := FitMerge(0.4, a, 0.6, b, MergeOptions{MomentOnly: true})
	_, mean, cov := MomentMerge(0.4, a, 0.6, b)
	want := MustComponent(mean, cov)
	if math.Abs(w-1) > 1e-12 || !c.Equal(want, 1e-12) {
		t.Fatal("MomentOnly did not return the moment merge")
	}
}

// TestFitMergeUnfactorableMomentMerge: parents whose means sit near
// overflow have a moment-merged covariance that is not finite. FitMerge
// must return the heavier parent (the first on a tie) with the summed
// weight, not panic.
func TestFitMergeUnfactorableMomentMerge(t *testing.T) {
	a := Spherical(linalg.Vector{1e300}, 1)
	b := Spherical(linalg.Vector{-1e300}, 2)
	for _, opt := range []MergeOptions{{}, {MomentOnly: true}} {
		for _, tc := range []struct {
			wi, wj float64
			want   *Component
		}{{1, 1, a}, {1, 3, b}, {3, 1, a}} {
			w, c := FitMerge(tc.wi, a, tc.wj, b, opt)
			if w != tc.wi+tc.wj || c != tc.want {
				t.Fatalf("FitMerge(%v, %v, %+v) = %v, %v; want %v and the heavier parent", tc.wi, tc.wj, opt, w, c.Mean(), tc.wi+tc.wj)
			}
		}
	}
}

func TestFitMergeDeterministic(t *testing.T) {
	a := Spherical(linalg.Vector{-2, 1}, 1.5)
	b := Spherical(linalg.Vector{2, -1}, 0.8)
	_, c1 := FitMerge(0.5, a, 0.5, b, MergeOptions{Samples: 128, Seed: 3})
	_, c2 := FitMerge(0.5, a, 0.5, b, MergeOptions{Samples: 128, Seed: 3})
	if !c1.Equal(c2, 0) {
		t.Fatal("FitMerge not deterministic for fixed seed")
	}
}

func TestFitMergePreservesTotalWeight(t *testing.T) {
	rng := rand.New(rand.NewSource(66))
	for i := 0; i < 5; i++ {
		a, b := randComponent(rng, 2), randComponent(rng, 2)
		wi, wj := rng.Float64()+0.1, rng.Float64()+0.1
		w, merged := FitMerge(wi, a, wj, b, MergeOptions{Samples: 64, Seed: int64(i + 1), MaxIter: 40})
		if math.Abs(w-(wi+wj)) > 1e-12 {
			t.Fatalf("weight not preserved: %v vs %v", w, wi+wj)
		}
		if merged.Dim() != 2 {
			t.Fatal("dimension changed")
		}
	}
}

// The reference estimator and search: FitMerge and L1Loss as they were
// before the common-random-numbers panel was hoisted out of the objective.
// Every evaluation re-seeds a source, re-draws the samples and re-evaluates
// both parents on them. Kept only as the oracle the kernel must match bit
// for bit.

func refL1Loss(wi float64, ci *Component, wj float64, cj *Component, merged *Component, nSamples int, rng *rand.Rand) float64 {
	if nSamples <= 0 {
		nSamples = 256
	}
	w := wi + wj
	pi := wi / w
	x := linalg.NewVector(ci.Dim())
	var acc float64
	for s := 0; s < nSamples; s++ {
		if rng.Float64() < pi {
			ci.SampleInto(rng, x)
		} else {
			cj.SampleInto(rng, x)
		}
		a := wi*ci.Prob(x) + wj*cj.Prob(x)
		b := w * merged.Prob(x)
		q := a / w
		if q <= 0 || math.IsInf(q, 0) || math.IsNaN(q) {
			continue
		}
		acc += math.Abs(a-b) / q
	}
	return acc / float64(nSamples)
}

// refObjective is the reference simplex objective for the pair; opt must
// have its defaults filled in.
func refObjective(wi float64, ci *Component, wj float64, cj *Component, cov0 *linalg.Sym, opt MergeOptions) func([]float64) float64 {
	d := ci.Dim()
	return func(p []float64) float64 {
		mean := linalg.Vector(p[:d])
		cov := linalg.NewSym(d)
		for a := 0; a < d; a++ {
			sa := math.Exp(p[d+a])
			if sa > 2 || sa < 0.5 {
				return math.Inf(1)
			}
			for b := 0; b <= a; b++ {
				sb := math.Exp(p[d+b])
				cov.Set(a, b, sa*sb*cov0.At(a, b))
			}
		}
		cand, err := NewComponent(mean, cov, 0)
		if err != nil {
			return math.Inf(1)
		}
		return refL1Loss(wi, ci, wj, cj, cand, opt.Samples, rand.New(rand.NewSource(opt.Seed)))
	}
}

func refFitMerge(wi float64, ci *Component, wj float64, cj *Component, opt MergeOptions) (float64, *Component) {
	w, mean0, cov0 := MomentMerge(wi, ci, wj, cj)
	base := MustComponent(mean0, cov0)
	if opt.Samples <= 0 {
		opt.Samples = 128
	}
	if opt.Seed == 0 {
		opt.Seed = 1
	}
	d := ci.Dim()
	if opt.MaxIter <= 0 {
		opt.MaxIter = 25 * d
	}
	p0 := make([]float64, 2*d)
	copy(p0, mean0)
	res, err := simplex.Minimize(refObjective(wi, ci, wj, cj, cov0, opt), p0, simplex.Options{MaxIter: opt.MaxIter, Step: 0.05, TolF: 1e-6, TolX: 1e-6})
	if err != nil {
		return w, base
	}
	baseLoss := refL1Loss(wi, ci, wj, cj, base, opt.Samples, rand.New(rand.NewSource(opt.Seed)))
	if res.F >= baseLoss {
		return w, base
	}
	mean := linalg.Vector(res.X[:d]).Clone()
	cov := linalg.NewSym(d)
	for a := 0; a < d; a++ {
		sa := math.Exp(res.X[d+a])
		for b := 0; b <= a; b++ {
			sb := math.Exp(res.X[d+b])
			cov.Set(a, b, sa*sb*cov0.At(a, b))
		}
	}
	merged, err2 := NewComponent(mean, cov, 0)
	if err2 != nil {
		return w, base
	}
	return w, merged
}

// sameBits reports whether two floats are the same double (any two NaNs
// count as the same).
func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

func sameComponentBits(a, b *Component) bool {
	for i := range a.mean {
		if !sameBits(a.mean[i], b.mean[i]) {
			return false
		}
	}
	pa, pb := a.cov.Packed(), b.cov.Packed()
	for i := range pa {
		if !sameBits(pa[i], pb[i]) {
			return false
		}
	}
	return true
}

// nearPair returns a random d-dimensional component and a second one close
// enough to be a merge candidate — the pairs the coordinator's M_merge gate
// lets through — with record-count weights.
func nearPair(rng *rand.Rand, d int) (float64, *Component, float64, *Component) {
	ci := randComponent(rng, d)
	mean := ci.Mean().Clone()
	for i := range mean {
		mean[i] += 0.8 * rng.NormFloat64()
	}
	cov := ci.Cov().Clone()
	cov.ScaleInPlace(0.6 + 0.9*rng.Float64())
	cov.AddOuterScaled(0.3, randVec(rng, d))
	cj := MustComponent(mean, cov)
	return float64(200 + rng.Intn(4000)), ci, float64(200 + rng.Intn(4000)), cj
}

// underflowPair returns a pair whose first parent is so diffuse that its
// density underflows to zero everywhere: samples drawn from it land where
// the second parent's density is zero too, so their q is zero and the
// estimator skips them, while samples drawn from the second parent count.
func underflowPair() (float64, *Component, float64, *Component) {
	return 900, Spherical(linalg.NewVector(6), 1e110), 1500, Spherical(linalg.Vector{1, 0, -1, 2, 0, 1}, 1.5)
}

func TestFitMergeBitIdenticalToReference(t *testing.T) {
	opts := []MergeOptions{
		{},
		{Seed: 7},
		{Samples: 64, Seed: 3, MaxIter: 40},
		{Samples: 200, Seed: 11},
		{Samples: 33, MaxIter: 300},
	}
	check := func(name string, wi float64, ci *Component, wj float64, cj *Component, opt MergeOptions) (refined bool) {
		t.Helper()
		wWant, want := refFitMerge(wi, ci, wj, cj, opt)
		wGot, got := FitMerge(wi, ci, wj, cj, opt)
		if !sameBits(wGot, wWant) || !sameComponentBits(got, want) {
			t.Fatalf("%s %+v: FitMerge = %v %v, reference %v %v", name, opt, wGot, got, wWant, want)
		}
		_, mean0, cov0 := MomentMerge(wi, ci, wj, cj)
		return !sameComponentBits(got, MustComponent(mean0, cov0))
	}
	rng := rand.New(rand.NewSource(67))
	pairs, refined := 0, 0
	for d := 1; d <= 6; d++ {
		for n := 0; n < 52; n++ {
			wi, ci, wj, cj := nearPair(rng, d)
			pairs++
			if check("near pair", wi, ci, wj, cj, opts[n%len(opts)]) {
				refined++
			}
		}
	}
	// The comparison is of the search, not of two moment merges.
	if pairs < 300 || refined < pairs*9/10 {
		t.Fatalf("%d of %d pairs refined past the moment merge", refined, pairs)
	}
	// Unrelated pairs, whatever the search makes of them.
	for n := 0; n < 12; n++ {
		d := 1 + n%6
		check("far pair", float64(100+rng.Intn(900)), randComponent(rng, d), float64(100+rng.Intn(900)), randComponent(rng, d), opts[n%len(opts)])
	}
	wi, ci, wj, cj := underflowPair()
	for _, opt := range opts {
		check("underflow pair", wi, ci, wj, cj, opt)
	}
}

func TestL1LossBitIdenticalToReference(t *testing.T) {
	rng := rand.New(rand.NewSource(68))
	check := func(name string, wi float64, ci *Component, wj float64, cj, merged *Component, n int) {
		t.Helper()
		seed := rng.Int63()
		a, b := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
		want := refL1Loss(wi, ci, wj, cj, merged, n, a)
		if got := L1Loss(wi, ci, wj, cj, merged, n, b); !sameBits(got, want) {
			t.Fatalf("%s n=%d: L1Loss = %v, reference %v", name, n, got, want)
		}
		// Callers go on drawing from the source they passed.
		if a.Int63() != b.Int63() {
			t.Fatalf("%s n=%d: L1Loss left the source elsewhere than the reference", name, n)
		}
	}
	for d := 1; d <= 6; d++ {
		for n := 0; n < 50; n++ {
			wi, ci, wj, cj := nearPair(rng, d)
			merged := randComponent(rng, d)
			if n%2 == 0 {
				_, mean0, cov0 := MomentMerge(wi, ci, wj, cj)
				merged = MustComponent(mean0, cov0)
			}
			check("near pair", wi, ci, wj, cj, merged, []int{0, 1, 64, 128, 257}[n%5])
		}
	}
	wi, ci, wj, cj := underflowPair()
	check("underflow pair", wi, ci, wj, cj, cj, 128)
	// The underflow pair does reach the estimator's skip branch, and not
	// for every sample.
	p := newLossPanel(wi, ci, wj, cj, 128, rand.New(rand.NewSource(1)))
	if len(p.xs) == 0 || len(p.xs) == p.n {
		t.Fatalf("underflow pair kept %d of %d samples, want some but not all skipped", len(p.xs), p.n)
	}
}

// mergeObjectiveFixture returns the objective FitMerge would search for a
// daemon-shaped pair, the reference objective for it, and the search's
// starting point.
func mergeObjectiveFixture() (*mergeObjective, func([]float64) float64, []float64) {
	rng := rand.New(rand.NewSource(69))
	wi, ci, wj, cj := nearPair(rng, 4)
	_, mean0, cov0 := MomentMerge(wi, ci, wj, cj)
	opt := MergeOptions{Samples: 128, Seed: 1}
	obj := newMergeObjective(cov0, newLossPanel(wi, ci, wj, cj, opt.Samples, rand.New(rand.NewSource(opt.Seed))))
	p0 := make([]float64, 8)
	copy(p0, mean0)
	return obj, refObjective(wi, ci, wj, cj, cov0, opt), p0
}

func TestMergeObjectiveBitIdenticalToReference(t *testing.T) {
	obj, ref, p0 := mergeObjectiveFixture()
	rng := rand.New(rand.NewSource(70))
	try := func(name string, p []float64, wantInf bool) {
		t.Helper()
		want := ref(p)
		if got := obj.eval(p); !sameBits(got, want) {
			t.Fatalf("%s: objective = %v, reference %v", name, got, want)
		}
		if wantInf != math.IsInf(want, 1) {
			t.Fatalf("%s: reference objective = %v, want +Inf: %v", name, want, wantInf)
		}
	}
	try("moment merge", p0, false)
	for n := 0; n < 100; n++ {
		p := append([]float64(nil), p0...)
		for i := 0; i < 4; i++ {
			p[i] += 0.2 * rng.NormFloat64()
			p[4+i] += 0.6*rng.Float64() - 0.3 // inside the scale bounds
		}
		try("perturbed", p, false)
	}
	// The scale bounds reject on either side, in any coordinate.
	for i := 4; i < 8; i++ {
		for _, logScale := range []float64{0.7, -0.7, 800, -800} {
			p := append([]float64(nil), p0...)
			p[i] = logScale
			try("scale out of bounds", p, true)
		}
	}
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		p := append([]float64(nil), p0...)
		p[1] = bad
		try("non-finite mean", p, true)
		p = append([]float64(nil), p0...)
		p[5] = bad
		try("non-finite scale", p, true)
	}
	// A rejection leaves no state behind that the next evaluation sees.
	try("moment merge again", p0, false)
}

// TestMergeObjectiveRepairsSingularCovariance drives the evaluation down
// NewComponent's RepairPSD path: a moment covariance that is not positive
// definite cannot be factored in scratch.
func TestMergeObjectiveRepairsSingularCovariance(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	wi, ci, wj, cj := nearPair(rng, 3)
	_, mean0, _ := MomentMerge(wi, ci, wj, cj)
	cov0 := linalg.NewSym(3)
	cov0.AddOuterScaled(1, linalg.Vector{1, 2, -1}) // rank one
	opt := MergeOptions{Samples: 64, Seed: 5}
	obj := newMergeObjective(cov0, newLossPanel(wi, ci, wj, cj, opt.Samples, rand.New(rand.NewSource(opt.Seed))))
	ref := refObjective(wi, ci, wj, cj, cov0, opt)
	p := make([]float64, 6)
	copy(p, mean0)
	for n := 0; n < 5; n++ {
		want := ref(p)
		if got := obj.eval(p); !sameBits(got, want) || math.IsInf(want, 0) {
			t.Fatalf("objective on a singular covariance = %v, reference %v", got, want)
		}
		if _, err := linalg.CholeskyDecompose(obj.cov); n == 0 && err == nil {
			t.Fatal("the candidate covariance factors: the repair path was not taken")
		}
		p[n] += 0.1
		p[3+n%3] -= 0.05
	}
}

func TestMergeObjectiveDoesNotAllocate(t *testing.T) {
	obj, _, p0 := mergeObjectiveFixture()
	var sink float64
	if allocs := testing.AllocsPerRun(200, func() { sink += obj.eval(p0) }); allocs != 0 {
		t.Fatalf("one objective evaluation allocates %v times, want 0", allocs)
	}
	if math.IsInf(sink, 0) || math.IsNaN(sink) {
		t.Fatalf("objective at the moment merge = %v", sink)
	}
}

// TestFitMergeAllocs bounds the allocations of one whole re-fit of a
// daemon-shaped pair (d = 4, record-count weights, the coordinator's
// default options): the panel, the simplex's vertices and the result, none
// per objective evaluation or per simplex iteration.
func TestFitMergeAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(69))
	wi, ci, wj, cj := nearPair(rng, 4)
	opt := MergeOptions{Seed: 1}
	_, mean0, cov0 := MomentMerge(wi, ci, wj, cj)
	if _, c := FitMerge(wi, ci, wj, cj, opt); sameComponentBits(c, MustComponent(mean0, cov0)) {
		t.Fatal("the pair is not refined past the moment merge: the search is not measured")
	}
	allocs := testing.AllocsPerRun(50, func() { FitMerge(wi, ci, wj, cj, opt) })
	if allocs > 50 {
		t.Fatalf("one FitMerge allocates %v times, want at most 50", allocs)
	}
	t.Logf("%v allocations per FitMerge", allocs)
}
