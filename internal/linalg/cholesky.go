package linalg

import (
	"errors"
	"math"
)

// ErrNotPositiveDefinite is returned when a Cholesky factorization is
// attempted on a matrix that is not (numerically) positive definite.
var ErrNotPositiveDefinite = errors.New("linalg: matrix not positive definite")

// Cholesky is the lower-triangular factor L of a symmetric positive
// definite matrix A = L Lᵀ, stored packed like Sym. It is the workhorse of
// Gaussian log-densities: solves, log-determinants and Mahalanobis
// distances all go through the factor rather than an explicit inverse,
// which is both faster and far better conditioned.
type Cholesky struct {
	n     int
	l     []float64 // packed lower triangular, same layout as Sym
	bound bool      // QuadFormRowsBound may take its division-free loop
}

// CholeskyDecompose factors a into L·Lᵀ. It returns
// ErrNotPositiveDefinite if a pivot is not strictly positive. It also
// decides, once, whether QuadFormRowsBound may take its division-free loop
// on the factor (an O(n³) condition estimate).
func CholeskyDecompose(a *Sym) (*Cholesky, error) {
	c := &Cholesky{}
	if err := CholeskyDecomposeInto(a, c); err != nil {
		return nil, err
	}
	c.bound = c.boundEligible()
	return c, nil
}

// CholeskyDecomposeInto is CholeskyDecompose into a caller-owned factor,
// for loops that factor one candidate matrix after another: c's storage is
// reused once it has a's order (the zero Cholesky is a valid first
// argument). When it returns an error, c holds no usable factor. It skips
// the condition estimate, so QuadFormRowsBound on c is the exact kernel.
func CholeskyDecomposeInto(a *Sym, c *Cholesky) error {
	n := a.n
	if c.n != n {
		c.n, c.l = n, make([]float64, len(a.data))
	}
	copy(c.l, a.data)
	c.bound = false
	for j := 0; j < n; j++ {
		// Diagonal pivot: l[j][j] = sqrt(a[j][j] - sum_k l[j][k]^2).
		d := c.at(j, j)
		for k := 0; k < j; k++ {
			ljk := c.at(j, k)
			d -= ljk * ljk
		}
		if d <= 0 || math.IsNaN(d) {
			return ErrNotPositiveDefinite
		}
		d = math.Sqrt(d)
		c.set(j, j, d)
		// Column below the pivot.
		for i := j + 1; i < n; i++ {
			v := c.at(i, j)
			for k := 0; k < j; k++ {
				v -= c.at(i, k) * c.at(j, k)
			}
			c.set(i, j, v/d)
		}
	}
	return nil
}

func (c *Cholesky) at(i, j int) float64     { return c.l[i*(i+1)/2+j] }
func (c *Cholesky) set(i, j int, v float64) { c.l[i*(i+1)/2+j] = v }

// Order returns the matrix order.
func (c *Cholesky) Order() int { return c.n }

// LogDet returns log|A| = 2·Σ log L[i][i].
func (c *Cholesky) LogDet() float64 {
	var s float64
	for i := 0; i < c.n; i++ {
		s += math.Log(c.at(i, i))
	}
	return 2 * s
}

// SolveInto solves A x = b, writing x into dst. b and dst may alias.
func (c *Cholesky) SolveInto(b, dst Vector) {
	if len(b) != c.n || len(dst) != c.n {
		panic("linalg: Cholesky solve dimension mismatch")
	}
	// Forward: L y = b.
	for i := 0; i < c.n; i++ {
		v := b[i]
		for k := 0; k < i; k++ {
			v -= c.at(i, k) * dst[k]
		}
		dst[i] = v / c.at(i, i)
	}
	// Backward: Lᵀ x = y.
	for i := c.n - 1; i >= 0; i-- {
		v := dst[i]
		for k := i + 1; k < c.n; k++ {
			v -= c.at(k, i) * dst[k]
		}
		dst[i] = v / c.at(i, i)
	}
}

// Solve solves A x = b and returns a fresh x.
func (c *Cholesky) Solve(b Vector) Vector {
	x := NewVector(c.n)
	c.SolveInto(b, x)
	return x
}

// HalfSolveInto solves the triangular system L y = b, writing y into dst.
// Since (x-μ)ᵀ A⁻¹ (x-μ) = ‖L⁻¹(x-μ)‖², this is all a Mahalanobis distance
// needs — half the work of a full solve.
func (c *Cholesky) HalfSolveInto(b, dst Vector) {
	if len(b) != c.n || len(dst) != c.n {
		panic("linalg: Cholesky half-solve dimension mismatch")
	}
	for i := 0; i < c.n; i++ {
		v := b[i]
		for k := 0; k < i; k++ {
			v -= c.at(i, k) * dst[k]
		}
		dst[i] = v / c.at(i, i)
	}
}

// HalfSolvePanel runs the forward solve L·y = b simultaneously for count
// right-hand sides held dimension-major in panel (panel[i*stride+p] is
// coordinate i of right-hand side p), in place. The k-loop order and the
// final division match HalfSolveInto exactly, so each column's result is
// bit-identical to a scalar half-solve of that column; the win is purely
// structural — the inner loops stream contiguously across the panel
// instead of re-walking the factor per record.
func (c *Cholesky) HalfSolvePanel(panel []float64, stride, count int) {
	if count == 0 {
		return
	}
	if stride < count || len(panel) < c.n*stride {
		panic("linalg: Cholesky panel solve shape mismatch")
	}
	for i := 0; i < c.n; i++ {
		row := panel[i*stride : i*stride+count]
		for k := 0; k < i; k++ {
			lik := c.at(i, k)
			prev := panel[k*stride : k*stride+count]
			for p := range row {
				row[p] -= lik * prev[p]
			}
		}
		dii := c.at(i, i)
		for p := range row {
			row[p] /= dii
		}
	}
}

// QuadFormPanel computes dst[p] = bₚᵀ A⁻¹ bₚ for the count right-hand
// sides held dimension-major in panel, destroying the panel (it becomes
// the half-solved L⁻¹b). Each dst[p] is bit-identical to QuadForm on the
// corresponding column.
func (c *Cholesky) QuadFormPanel(panel []float64, stride, count int, dst []float64) {
	c.HalfSolvePanel(panel, stride, count)
	SumSqPanel(panel, stride, count, c.n, dst)
}

// QuadFormRows computes dst[p] = (xs[p]−mean)ᵀ A⁻¹ (xs[p]−mean) for every
// record of xs, each bit-identical to QuadForm on xs[p].Sub(mean).
// It is the one Mahalanobis kernel behind every batched scorer. At order 4
// the records go through quadFormQuads, four at a time, on amd64 CPUs with
// AVX2; quadFormRows4 scores whatever it hands back (a tail of fewer than
// four records, a quad holding a record whose length is not 4) and every
// record on other CPUs and architectures. Every other order goes through
// SubRowsInto and QuadFormPanel on panel, which needs Order()·len(xs)
// floats (it is not touched at order 4).
func (c *Cholesky) QuadFormRows(xs []Vector, mean Vector, panel, dst []float64) {
	count := len(xs)
	dst = dst[:count]
	if c.n != 4 {
		SubRowsInto(xs, mean, panel, count, count)
		c.QuadFormPanel(panel, count, count, dst)
		return
	}
	mean = mean[:4]
	if !avx2 {
		c.quadFormRows4(xs, mean, dst)
		return
	}
	l := c.l[:10]
	for p := 0; p < count; {
		p += quadFormQuads(&l[0], &mean[0], xs[p:], &dst[p])
		n := min(4, count-p)
		c.quadFormRows4(xs[p:p+n], mean, dst[p:p+n])
		p += n
	}
}

// quadFormRows4 is QuadFormRows at order 4 in Go, and quadFormQuads' test
// oracle: the ten factor entries and the mean stay in registers and each
// record is solved on its own, in HalfSolveInto's order: v = x_i−μ_i, then
// v −= l_ik·y_k for k ascending, then y_i = v/l_ii, then the squares summed
// from 0 like Vector.Dot.
func (c *Cholesky) quadFormRows4(xs []Vector, mean Vector, dst []float64) {
	l := c.l[:10]
	l00, l10, l11, l20, l21, l22, l30, l31, l32, l33 := l[0], l[1], l[2], l[3], l[4], l[5], l[6], l[7], l[8], l[9]
	mean = mean[:4]
	m0, m1, m2, m3 := mean[0], mean[1], mean[2], mean[3]
	dst = dst[:len(xs)]
	for p, x := range xs {
		x = x[:4]
		y0 := (x[0] - m0) / l00
		v := x[1] - m1
		v -= l10 * y0
		y1 := v / l11
		v = x[2] - m2
		v -= l20 * y0
		v -= l21 * y1
		y2 := v / l22
		v = x[3] - m3
		v -= l30 * y0
		v -= l31 * y1
		v -= l32 * y2
		y3 := v / l33
		var q float64
		q += y0 * y0
		q += y1 * y1
		q += y2 * y2
		q += y3 * y3
		dst[p] = q
	}
}

// QuadForm returns the quadratic form bᵀ A⁻¹ b using the factor, allocating
// one scratch vector. It is the scalar form the batched kernels above are
// pinned to.
func (c *Cholesky) QuadForm(b Vector) float64 {
	y := NewVector(c.n)
	c.HalfSolveInto(b, y)
	return y.Dot(y)
}

// Inverse returns A⁻¹ as a symmetric matrix. CluDistream's merge criteria
// (Eq. 5–6) need explicit Σ⁻¹ sums, so this is a first-class operation.
func (c *Cholesky) Inverse() *Sym {
	inv := NewSym(c.n)
	e := NewVector(c.n)
	col := NewVector(c.n)
	for j := 0; j < c.n; j++ {
		for i := range e {
			e[i] = 0
		}
		e[j] = 1
		c.SolveInto(e, col)
		for i := j; i < c.n; i++ {
			inv.Set(i, j, col[i])
		}
	}
	return inv
}

// MulLVecInto computes dst = L · v, used when sampling from a Gaussian
// (x = μ + L z with z standard normal). dst may alias v: rows are written
// from the last one up, and row i reads only v[0..i].
func (c *Cholesky) MulLVecInto(v, dst Vector) {
	if len(v) != c.n || len(dst) != c.n {
		panic("linalg: Cholesky MulLVec dimension mismatch")
	}
	for i := c.n - 1; i >= 0; i-- {
		var acc float64
		for j := 0; j <= i; j++ {
			acc += c.at(i, j) * v[j]
		}
		dst[i] = acc
	}
}
