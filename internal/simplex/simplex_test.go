package simplex

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

func TestMinimizeQuadratic1D(t *testing.T) {
	f := func(x []float64) float64 { return (x[0] - 3) * (x[0] - 3) }
	res, err := Minimize(f, []float64{0}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.X[0]-3) > 1e-5 {
		t.Fatalf("x = %v, want 3", res.X[0])
	}
	if !res.Converged {
		t.Error("did not converge")
	}
}

func TestMinimizeSphereND(t *testing.T) {
	for _, d := range []int{2, 4, 8} {
		f := func(x []float64) float64 {
			var s float64
			for i, v := range x {
				c := float64(i + 1)
				s += (v - c) * (v - c)
			}
			return s
		}
		x0 := make([]float64, d)
		res, err := Minimize(f, x0, Options{MaxIter: 5000})
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range res.X {
			if math.Abs(v-float64(i+1)) > 1e-4 {
				t.Fatalf("d=%d x[%d] = %v, want %d (f=%v)", d, i, v, i+1, res.F)
			}
		}
	}
}

func TestMinimizeRosenbrock(t *testing.T) {
	f := func(x []float64) float64 {
		a := 1 - x[0]
		b := x[1] - x[0]*x[0]
		return a*a + 100*b*b
	}
	res, err := Minimize(f, []float64{-1.2, 1}, Options{MaxIter: 10000, TolF: 1e-14, TolX: 1e-9})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.X[0]-1) > 1e-3 || math.Abs(res.X[1]-1) > 1e-3 {
		t.Fatalf("x = %v, want (1,1); f=%v", res.X, res.F)
	}
}

func TestMinimizeNonSmoothAbs(t *testing.T) {
	// Nelder–Mead's selling point (and why the paper uses it for the L1
	// loss): it handles non-differentiable objectives.
	f := func(x []float64) float64 { return math.Abs(x[0]-2) + math.Abs(x[1]+1) }
	res, err := Minimize(f, []float64{10, 10}, Options{MaxIter: 5000})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.X[0]-2) > 1e-4 || math.Abs(res.X[1]+1) > 1e-4 {
		t.Fatalf("x = %v", res.X)
	}
}

func TestMinimizeWithInfConstraint(t *testing.T) {
	// +Inf outside x>0 encodes a positivity constraint.
	f := func(x []float64) float64 {
		if x[0] <= 0 {
			return math.Inf(1)
		}
		return x[0] + 1/x[0] // minimum at x=1, f=2
	}
	res, err := Minimize(f, []float64{5}, Options{MaxIter: 2000})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.X[0]-1) > 1e-4 {
		t.Fatalf("x = %v, want 1", res.X[0])
	}
}

func TestMinimizeBadStart(t *testing.T) {
	f := func(x []float64) float64 { return math.Inf(1) }
	if _, err := Minimize(f, []float64{0}, Options{}); err != ErrBadStart {
		t.Fatalf("err = %v, want ErrBadStart", err)
	}
}

func TestMinimizeNaNTreatedAsInf(t *testing.T) {
	f := func(x []float64) float64 {
		if x[0] < 0 {
			return math.NaN()
		}
		return (x[0] - 1) * (x[0] - 1)
	}
	res, err := Minimize(f, []float64{3}, Options{MaxIter: 2000})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.X[0]-1) > 1e-4 {
		t.Fatalf("x = %v", res.X[0])
	}
}

func TestMinimizeZeroDim(t *testing.T) {
	res, err := Minimize(func(x []float64) float64 { return 42 }, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.F != 42 || !res.Converged {
		t.Fatalf("res = %+v", res)
	}
}

func TestMinimizeMaxIterRespected(t *testing.T) {
	evals := 0
	f := func(x []float64) float64 {
		evals++
		return x[0] * x[0]
	}
	res, _ := Minimize(f, []float64{100}, Options{MaxIter: 5})
	if res.Iterations > 5 {
		t.Fatalf("iterations = %d > 5", res.Iterations)
	}
	if res.Evals != evals {
		t.Fatalf("Evals = %d, counted %d", res.Evals, evals)
	}
}

func TestMinimizeRandomQuadratics(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 15; trial++ {
		d := rng.Intn(5) + 1
		target := make([]float64, d)
		for i := range target {
			target[i] = rng.NormFloat64() * 5
		}
		f := func(x []float64) float64 {
			var s float64
			for i := range x {
				dd := x[i] - target[i]
				s += dd * dd * float64(i+1)
			}
			return s
		}
		x0 := make([]float64, d)
		res, err := Minimize(f, x0, Options{MaxIter: 8000})
		if err != nil {
			t.Fatal(err)
		}
		for i := range target {
			if math.Abs(res.X[i]-target[i]) > 1e-3*(1+math.Abs(target[i])) {
				t.Fatalf("trial %d: x[%d]=%v want %v", trial, i, res.X[i], target[i])
			}
		}
	}
}

// minimizeRef is Minimize as it was when it sorted the simplex with
// sort.Slice, kept as the oracle for the order in which the sort leaves
// vertices of equal value: that order picks the best, worst and
// next-to-worst vertex, so it steers the whole search.
func minimizeRef(f func([]float64) float64, x0 []float64, opt Options) (Result, error) {
	n := len(x0)
	if n == 0 {
		return Result{X: nil, F: f(nil), Evals: 1, Converged: true}, nil
	}
	if opt.MaxIter <= 0 {
		opt.MaxIter = 200 * n
	}
	if opt.TolF <= 0 {
		opt.TolF = 1e-10
	}
	if opt.TolX <= 0 {
		opt.TolX = 1e-10
	}
	if opt.Step <= 0 {
		opt.Step = 0.1
	}
	alpha, gamma, rho, sigma := 1.0, 2.0, 0.5, 0.5
	if opt.Reflection > 0 {
		alpha = opt.Reflection
	}
	if opt.Expansion > 0 {
		gamma = opt.Expansion
	}
	if opt.Contraction > 0 {
		rho = opt.Contraction
	}
	if opt.Shrink > 0 {
		sigma = opt.Shrink
	}

	evals := 0
	eval := func(x []float64) float64 {
		evals++
		v := f(x)
		if math.IsNaN(v) {
			return math.Inf(1)
		}
		return v
	}

	// Initial simplex: x0 plus per-coordinate perturbations.
	verts := make([]vertex, n+1)
	verts[0] = vertex{x: append([]float64(nil), x0...), f: eval(x0)}
	if math.IsInf(verts[0].f, 0) {
		return Result{}, ErrBadStart
	}
	for i := 0; i < n; i++ {
		x := append([]float64(nil), x0...)
		h := opt.Step * math.Abs(x[i])
		if h == 0 {
			h = opt.Step
		}
		x[i] += h
		verts[i+1] = vertex{x: x, f: eval(x)}
	}

	centroid := make([]float64, n)
	xr := make([]float64, n)
	xe := make([]float64, n)
	xc := make([]float64, n)

	var iter int
	converged := false
	for iter = 0; iter < opt.MaxIter; iter++ {
		sort.Slice(verts, func(a, b int) bool { return verts[a].f < verts[b].f })
		best, worst := verts[0], verts[n]

		// Convergence: function spread and simplex diameter.
		if math.Abs(worst.f-best.f) <= opt.TolF*(math.Abs(best.f)+opt.TolF) {
			maxd := 0.0
			for i := 1; i <= n; i++ {
				for j := 0; j < n; j++ {
					if d := math.Abs(verts[i].x[j] - best.x[j]); d > maxd {
						maxd = d
					}
				}
			}
			if maxd <= opt.TolX {
				converged = true
				break
			}
		}

		// Centroid of all but the worst vertex.
		for j := 0; j < n; j++ {
			centroid[j] = 0
		}
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				centroid[j] += verts[i].x[j]
			}
		}
		for j := 0; j < n; j++ {
			centroid[j] /= float64(n)
		}

		// Reflection.
		for j := 0; j < n; j++ {
			xr[j] = centroid[j] + alpha*(centroid[j]-worst.x[j])
		}
		fr := eval(xr)
		switch {
		case fr < best.f:
			// Expansion.
			for j := 0; j < n; j++ {
				xe[j] = centroid[j] + gamma*(xr[j]-centroid[j])
			}
			fe := eval(xe)
			if fe < fr {
				copy(verts[n].x, xe)
				verts[n].f = fe
			} else {
				copy(verts[n].x, xr)
				verts[n].f = fr
			}
		case fr < verts[n-1].f:
			// Accept reflection.
			copy(verts[n].x, xr)
			verts[n].f = fr
		default:
			// Contraction (outside if the reflected point improved on the
			// worst, inside otherwise).
			if fr < worst.f {
				for j := 0; j < n; j++ {
					xc[j] = centroid[j] + rho*(xr[j]-centroid[j])
				}
			} else {
				for j := 0; j < n; j++ {
					xc[j] = centroid[j] + rho*(worst.x[j]-centroid[j])
				}
			}
			fc := eval(xc)
			if fc < math.Min(fr, worst.f) {
				copy(verts[n].x, xc)
				verts[n].f = fc
			} else {
				// Shrink toward the best vertex.
				for i := 1; i <= n; i++ {
					for j := 0; j < n; j++ {
						verts[i].x[j] = best.x[j] + sigma*(verts[i].x[j]-best.x[j])
					}
					verts[i].f = eval(verts[i].x)
				}
			}
		}
	}

	sort.Slice(verts, func(a, b int) bool { return verts[a].f < verts[b].f })
	return Result{
		X:          verts[0].x,
		F:          verts[0].f,
		Iterations: iter,
		Evals:      evals,
		Converged:  converged,
	}, nil
}

// tieObjective returns a seeded objective on n coordinates and a starting
// point where it is finite. The kinds mix what decides a vertex order: a
// smooth quadratic (distinct values), an integer-valued staircase (ties at
// every sort) and either of them inside a box outside which the objective
// is +Inf, like the merge objective's out-of-bounds scales — after which
// several vertices share +Inf.
func tieObjective(rng *rand.Rand, n int) (func([]float64) float64, []float64) {
	kind := rng.Intn(4)
	center := make([]float64, n)
	weight := make([]float64, n)
	x0 := make([]float64, n)
	for i := range center {
		center[i] = 4 * rng.NormFloat64()
		weight[i] = 0.1 + 3*rng.Float64()
		x0[i] = center[i] + 3*rng.NormFloat64()
	}
	step := 0.05 + rng.Float64()
	smooth := func(x []float64) float64 {
		var s float64
		for i, v := range x {
			d := v - center[i]
			s += weight[i] * d * d
		}
		return s
	}
	stairs := func(x []float64) float64 {
		var s float64
		for i, v := range x {
			s += math.Floor(weight[i] * math.Abs(v-center[i]) / step)
		}
		return s
	}
	f := smooth
	if kind%2 == 1 {
		f = stairs
	}
	if kind < 2 {
		return f, x0
	}
	// The box holds x0 and ends 0.02 to 1.02 past it on each side, so the
	// search soon steps out of it.
	lo, hi := make([]float64, n), make([]float64, n)
	for i, v := range x0 {
		lo[i] = v - 0.02 - rng.Float64()
		hi[i] = v + 0.02 + rng.Float64()
	}
	return func(x []float64) float64 {
		for i, v := range x {
			if v < lo[i] || v > hi[i] {
				return math.Inf(1)
			}
		}
		return f(x)
	}, x0
}

// TestMinimizeMatchesSortSliceOrder pins the vertex order: Minimize must
// return the oracle's result bit for bit on objectives full of ties and
// +Inf vertices. A sort that orders ties any other way moves X, F or the
// iteration count on many of them. pdqsort sorts fewer than 12 elements by
// insertion, which is stable, so a stable sort only shows at n ≥ 11 — on
// about a third of those objectives.
func TestMinimizeMatchesSortSliceOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	const objectives = 12000
	converged := 0
	for k := 0; k < objectives; k++ {
		n := 1 + k%12
		f, x0 := tieObjective(rng, n)
		opt := Options{MaxIter: 1 + rng.Intn(30*n), Step: []float64{0, 0.05, 0.5}[rng.Intn(3)]}
		if rng.Intn(2) == 0 {
			opt.TolF, opt.TolX = 1e-3, 1e-3
		}
		want, wantErr := minimizeRef(f, x0, opt)
		got, err := Minimize(f, x0, opt)
		if err != wantErr {
			t.Fatalf("objective %d (n=%d): err %v, oracle %v", k, n, err, wantErr)
		}
		same := math.Float64bits(got.F) == math.Float64bits(want.F) && got.Iterations == want.Iterations &&
			got.Evals == want.Evals && got.Converged == want.Converged && len(got.X) == len(want.X)
		for i := 0; same && i < len(got.X); i++ {
			same = math.Float64bits(got.X[i]) == math.Float64bits(want.X[i])
		}
		if !same {
			t.Fatalf("objective %d (n=%d, %+v): Minimize = %+v, oracle %+v", k, n, opt, got, want)
		}
		if got.Converged {
			converged++
		}
	}
	// Both exits are compared, not only the iteration cap.
	if converged < objectives/10 || converged > objectives*9/10 {
		t.Fatalf("%d of %d searches converged", converged, objectives)
	}
}
