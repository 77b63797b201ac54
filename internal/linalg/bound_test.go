package linalg

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// spdWithCond returns an order-n SPD matrix with eigenvalues spread
// log-evenly over [1/cond, 1]. With rotate set its eigenvectors are a
// random orthonormal basis, so the ill-conditioning reaches the Cholesky
// factor; without, the matrix is a diagonal scaling of a well-conditioned
// correlation, which the Skeel condition of the factor does not see.
func spdWithCond(rng *rand.Rand, n int, cond float64, rotate bool) *Sym {
	s := NewSym(n)
	if !rotate {
		corr := randSPD(rng, n)
		scale := NewVector(n)
		for i := range scale {
			scale[i] = math.Pow(cond, -0.5*float64(i)/math.Max(1, float64(n-1)))
			scale[i] /= math.Sqrt(corr.At(i, i))
		}
		for i := 0; i < n; i++ {
			for j := 0; j <= i; j++ {
				s.Set(i, j, scale[i]*scale[j]*corr.At(i, j))
			}
		}
		return s
	}
	// Gram–Schmidt on a random Gaussian matrix gives the basis.
	q := make([]Vector, n)
	for i := range q {
		q[i] = randVec(rng, n)
		for j := 0; j < i; j++ {
			q[i].AXPYInPlace(-q[i].Dot(q[j]), q[j])
		}
		q[i].ScaleInPlace(1 / math.Sqrt(q[i].Dot(q[i])))
	}
	for k := 0; k < n; k++ {
		lambda := math.Pow(cond, -float64(k)/math.Max(1, float64(n-1)))
		s.AddOuterScaled(lambda, q[k])
	}
	return s
}

// TestQuadFormRowsBoundWithinAllowance compares the bound kernel with the
// exact one at orders 1..8 (order 4 is the register loop, the rest the
// panel path) on factors with condition numbers up to 1e12 and on records
// near the mean, at ±1e150 and with adversarial coordinates. On a factor
// that takes the division-free loop every value is within half the
// allowance the J_fit interval uses; a factor too ill-conditioned for it,
// or refactored by CholeskyDecomposeInto, takes the exact kernel, bit for
// bit. Well-conditioned and merely badly
// scaled factors must take the division-free loop, and rotated ones at 1e8
// and beyond must not.
func TestQuadFormRowsBoundWithinAllowance(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for n := 1; n <= 8; n++ {
		for _, cond := range []float64{1, 1e2, 1e4, 1e8, 1e12} {
			for _, rotate := range []bool{false, true} {
				a := spdWithCond(rng, n, cond, rotate)
				c, err := CholeskyDecompose(a)
				if err != nil {
					t.Fatalf("order %d cond %g rotate %v: %v", n, cond, rotate, err)
				}
				what := fmt.Sprintf("order %d cond %g rotate %v", n, cond, rotate)
				// The reuse variant skips the condition estimate, and a
				// factor it overwrites loses an earlier verdict.
				reused := *c
				if err := CholeskyDecomposeInto(a, &reused); err != nil || reused.bound {
					t.Fatalf("%s: CholeskyDecomposeInto left the division-free loop on (err %v)", what, err)
				}
				switch {
				case (!rotate || cond == 1 || n == 1) && !c.bound:
					t.Errorf("%s: well-conditioned factor took the exact kernel", what)
				case rotate && cond >= 1e8 && n > 1 && c.bound:
					t.Errorf("%s: ill-conditioned factor took the division-free loop", what)
				}
				mean := randVec(rng, n)
				var xs []Vector
				for p := 0; p < 300; p++ {
					x := NewVector(n)
					for i := range x {
						switch p % 3 {
						case 0:
							x[i] = mean[i] + rng.NormFloat64()*math.Sqrt(c.at(i, i))*3
						case 1:
							x[i] = math.Copysign(1e150, rng.NormFloat64())
						default:
							x[i] = adversarialCoord(rng)
						}
					}
					xs = append(xs, x)
				}
				checkBoundKernel(t, what, c, xs, mean)
			}
		}
	}
}

func checkBoundKernel(t *testing.T, what string, c *Cholesky, xs []Vector, mean Vector) {
	t.Helper()
	n := c.Order()
	panel := make([]float64, n*len(xs))
	exact := make([]float64, len(xs))
	got := make([]float64, len(xs))
	c.QuadFormRows(xs, mean, panel, exact)
	c.QuadFormRowsBound(xs, mean, panel, got)
	for p, qe := range exact {
		q := got[p]
		if !c.bound {
			if math.Float64bits(q) != math.Float64bits(qe) {
				t.Fatalf("%s record %d: exact-kernel factor gave %v, QuadFormRows %v", what, p, q, qe)
			}
			continue
		}
		if math.IsInf(q, 1) && math.IsInf(qe, 1) {
			continue
		}
		if !(math.Abs(qe-q) <= QuadFormBoundRel/2*q+QuadFormBoundAbs) {
			t.Fatalf("%s record %d: bound kernel %v, exact %v: outside the allowance", what, p, q, qe)
		}
	}
}

// BenchmarkQuadFormRows is the linalg rung of the scoring ladder: one
// Mahalanobis pass over a block of 128 records, exact kernel against the
// bound kernel, at order 4 and the panel order 6, and at order 4 the Go
// loop (exact-go) beside QuadFormRows (exact, the four-record kernel on
// AVX2). It asserts 0 allocations before timing.
func BenchmarkQuadFormRows(b *testing.B) {
	for _, kernel := range []string{"exact", "exact-go", "bound"} {
		for _, n := range []int{4, 6} {
			if kernel == "exact-go" && n != 4 {
				continue
			}
			b.Run(fmt.Sprintf("%s/d=%d", kernel, n), func(b *testing.B) {
				rng := rand.New(rand.NewSource(int64(n)))
				c, err := CholeskyDecompose(randSPD(rng, n))
				if err != nil {
					b.Fatal(err)
				}
				if !c.bound {
					b.Fatal("the benchmark factor takes the exact kernel")
				}
				mean := randVec(rng, n)
				xs := make([]Vector, 128)
				for p := range xs {
					xs[p] = randVec(rng, n)
				}
				panel := make([]float64, n*len(xs))
				dst := make([]float64, len(xs))
				run := func() { c.QuadFormRows(xs, mean, panel, dst) }
				switch kernel {
				case "exact-go":
					run = func() { c.quadFormRows4(xs, mean, dst) }
				case "bound":
					run = func() { c.QuadFormRowsBound(xs, mean, panel, dst) }
				}
				if allocs := testing.AllocsPerRun(10, run); allocs != 0 {
					b.Fatalf("%s kernel allocates %v times per block, want 0", kernel, allocs)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					run()
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(xs)), "ns/record")
			})
		}
	}
}
