// Package simplex implements the Nelder–Mead downhill simplex method for
// unconstrained multidimensional minimization (Nelder & Mead, The Computer
// Journal 7(4), 1965 — reference [19] of the paper).
//
// CluDistream's coordinator uses it to fit the parameters of a merged
// Gaussian component by minimizing the L1 accuracy-loss l(x) between the
// merged density and the sum of its two parents (Section 5.2.1). The paper
// picked downhill simplex precisely because l(x) has no usable derivatives;
// this implementation follows the standard reflection / expansion /
// contraction / shrink scheme with the conventional coefficients.
package simplex

import (
	"cmp"
	"errors"
	"math"
	"slices"
)

// Options configures a Minimize run. The zero value selects sensible
// defaults (standard Nelder–Mead coefficients, 200·dim iterations).
type Options struct {
	// MaxIter caps the number of iterations (default 200·dim).
	MaxIter int
	// TolF stops when the spread of function values across the simplex
	// falls below TolF (default 1e-10).
	TolF float64
	// TolX stops when the simplex diameter falls below TolX (default 1e-10).
	TolX float64
	// Step is the initial perturbation applied per coordinate to build the
	// starting simplex (default 0.1·|x_i| or 0.1 when x_i == 0).
	Step float64

	// Reflection, Expansion, Contraction, Shrink override the standard
	// coefficients (1, 2, 0.5, 0.5) when non-zero.
	Reflection  float64
	Expansion   float64
	Contraction float64
	Shrink      float64
}

// Result reports the outcome of a minimization.
type Result struct {
	X          []float64 // best point found
	F          float64   // objective at X
	Iterations int       // iterations performed
	Evals      int       // objective evaluations
	Converged  bool      // true if a tolerance was met before MaxIter
}

// ErrBadStart is returned when the initial point has non-finite objective.
var ErrBadStart = errors.New("simplex: objective not finite at starting point")

type vertex struct {
	x []float64
	f float64
}

// byF orders vertices by objective value. f is never NaN (eval maps NaN to
// +Inf), so byF(a, b) < 0 exactly when a.f < b.f, and slices.SortFunc —
// the same pdqsort as sort.Slice — leaves ties where sort.Slice would.
func byF(a, b vertex) int { return cmp.Compare(a.f, b.f) }

// Minimize runs Nelder–Mead on f starting from x0 and returns the best
// point found. f must be defined (finite) at x0; elsewhere it may return
// +Inf to encode constraints (the simplex simply moves away).
func Minimize(f func([]float64) float64, x0 []float64, opt Options) (Result, error) {
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
		slices.SortFunc(verts, byF)
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

	slices.SortFunc(verts, byF)
	return Result{
		X:          verts[0].x,
		F:          verts[0].f,
		Iterations: iter,
		Evals:      evals,
		Converged:  converged,
	}, nil
}
