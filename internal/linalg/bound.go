package linalg

import "math"

// QuadFormBoundRel is the rounding allowance of QuadFormRowsBound: on
// every factor, the value q_e that QuadFormRows computes for a record and
// the value q that QuadFormRowsBound computes for it satisfy
//
//	|q_e − q| ≤ (QuadFormBoundRel/2)·q + QuadFormBoundAbs,
//
// leaving the caller the other half of QuadFormBoundRel for the rounding
// of its own arithmetic on q.
//
// Derivation. Both kernels solve L·y = b for the same b = fl(x − μ) by
// forward substitution; the exact one divides by l_ii, the bound one
// multiplies by fl(1/l_ii), which adds one rounding per row. By the
// standard backward error analysis of substitution (Higham, Accuracy and
// Stability of Numerical Algorithms, Thm 8.5) each computed ŷ satisfies
// (L + ΔL)·ŷ = b with |ΔL| ≤ γ_{n+1}·|L|, γ_m = m·u/(1 − m·u), u = 2⁻⁵³,
// whatever order the inner sums take and whether or not the compiler fuses
// a − l·y into one FMA (GOAMD64=v3): fusing only removes roundings. So
// ‖y − ŷ‖₂ ≤ r·‖ŷ‖₂ with r = γ_{n+1}·κ, κ ≥ ‖|L⁻¹|·|L|‖₂ (the Skeel
// condition of L, bounded by √(‖W‖₁·‖W‖∞) for W = |L⁻¹|·|L|). The sum of
// squares adds a factor within [1 − γ_n, 1 + γ_n]. Hence both kernels'
// values lie in q_true·[(1 − γ_n)/(1 + r)², (1 + γ_n)/(1 − r)²], an
// interval whose ends differ by the factor 1 + δ,
// δ = (1 + γ_n)(1 + r)²/((1 − γ_n)(1 − r)²) − 1 ≈ 2γ_n + 4r. A factor takes
// the division-free loop only when δ ≤ QuadFormBoundRel/2 (at order 4: every
// factor with κ ≤ 50; an identity factor has κ = 1). QuadFormBoundAbs
// covers gradual underflow, which the relative analysis ignores: the
// diagonal of an eligible factor lies in [2⁻²⁰⁰, 2²⁰⁰], so an underflowed
// partial result moves q by far less. Any other factor — too
// ill-conditioned, of order above maxBoundOrder, or with an extreme
// diagonal — takes the exact kernel, and q = q_e.
const (
	QuadFormBoundRel = 0x1p-42 // ≈ 2.3e-13
	QuadFormBoundAbs = 0x1p-900
)

// maxBoundOrder is the largest order the division-free loop serves; the
// eligibility test and the reciprocals live in arrays of this size.
const maxBoundOrder = 16

// boundEligible reports whether the division-free loop's value stays within
// half the QuadFormBoundRel allowance of the exact kernel's on this factor
// (see QuadFormBoundRel). CholeskyDecompose runs it once per factor, in
// O(n³).
func (c *Cholesky) boundEligible() bool {
	n := c.n
	if n == 0 || n > maxBoundOrder {
		return false
	}
	// rowAbs[k] = Σ_j |l_kj|; column k of L⁻¹ (z = L⁻¹·e_k) then adds
	// |z_i|·rowAbs[k] to row i of W's row sums and Σ_i |z_i| to colInv[k],
	// so ‖W‖∞ = max_i wRow[i] and ‖W‖₁ = max_j Σ_k colInv[k]·|l_kj|.
	var rowAbs, colInv, wRow, z [maxBoundOrder]float64
	for i := 0; i < n; i++ {
		if d := c.at(i, i); !(d >= 0x1p-200 && d <= 0x1p200) {
			return false
		}
		for j := 0; j <= i; j++ {
			rowAbs[i] += math.Abs(c.at(i, j))
		}
	}
	for k := 0; k < n; k++ {
		z[k] = 1 / c.at(k, k)
		for i := k + 1; i < n; i++ {
			var v float64
			for m := k; m < i; m++ {
				v -= c.at(i, m) * z[m]
			}
			z[i] = v / c.at(i, i)
		}
		for i := k; i < n; i++ {
			a := math.Abs(z[i])
			colInv[k] += a
			wRow[i] += a * rowAbs[k]
		}
	}
	var wInf, w1 float64
	for i := 0; i < n; i++ {
		wInf = math.Max(wInf, wRow[i])
	}
	for j := 0; j < n; j++ {
		var col float64
		for k := j; k < n; k++ {
			col += colInv[k] * math.Abs(c.at(k, j))
		}
		w1 = math.Max(w1, col)
	}
	const u = 0x1p-53
	gamma := func(m int) float64 { return float64(m) * u / (1 - float64(m)*u) }
	gn := gamma(n)
	r := gamma(n+1) * math.Sqrt(w1*wInf)
	delta := (1+gn)*(1+r)*(1+r)/((1-gn)*(1-r)*(1-r)) - 1
	return r < 1 && delta <= QuadFormBoundRel/2 // false on NaN
}

// QuadFormRowsBound computes dst[p] ≈ (xs[p]−mean)ᵀ A⁻¹ (xs[p]−mean) for
// every record of xs, within the QuadFormBoundRel allowance of
// QuadFormRows' value: the same forward substitution with each division by
// l_ii replaced by a multiply with 1/l_ii, computed once per call. It is for
// decisions that only need bounds (the J_fit interval). A factor too
// ill-conditioned for the allowance takes QuadFormRows itself. panel needs
// Order()·len(xs) floats except at order 4.
func (c *Cholesky) QuadFormRowsBound(xs []Vector, mean Vector, panel, dst []float64) {
	count := len(xs)
	dst = dst[:count]
	switch {
	case !c.bound:
		c.QuadFormRows(xs, mean, panel, dst)
	case c.n == 4:
		c.quadFormRows4Recip(xs, mean, dst)
	default:
		SubRowsInto(xs, mean, panel, count, count)
		c.halfSolvePanelRecip(panel, count)
		SumSqPanel(panel, count, count, c.n, dst)
	}
}

// Bound4 returns the constants of QuadFormRowsBound's order-4 loop — the
// below-diagonal entries l10, l20, l21, l30, l31, l32, then the reciprocals
// 1/l00, 1/l11, 1/l22, 1/l33 — and ok = true when QuadFormRowsBound takes
// that loop on c, so a caller that runs the same substitution elsewhere
// (the J_fit interval's two-record kernel) gets every constant bit for bit.
func (c *Cholesky) Bound4() (k [10]float64, ok bool) {
	if !c.bound || c.n != 4 {
		return k, false
	}
	l := c.l[:10]
	return [10]float64{l[1], l[3], l[4], l[6], l[7], l[8], 1 / l[0], 1 / l[2], 1 / l[5], 1 / l[9]}, true
}

// quadFormRows4Recip is QuadFormRows' order-4 register loop with each
// division by l_ii replaced by a multiply with its reciprocal.
func (c *Cholesky) quadFormRows4Recip(xs []Vector, mean Vector, dst []float64) {
	k, _ := c.Bound4()
	l10, l20, l21, l30, l31, l32 := k[0], k[1], k[2], k[3], k[4], k[5]
	r0, r1, r2, r3 := k[6], k[7], k[8], k[9]
	mean = mean[:4]
	m0, m1, m2, m3 := mean[0], mean[1], mean[2], mean[3]
	for p, x := range xs {
		x = x[:4]
		y0 := (x[0] - m0) * r0
		y1 := (x[1] - m1 - l10*y0) * r1
		y2 := (x[2] - m2 - l20*y0 - l21*y1) * r2
		y3 := (x[3] - m3 - l30*y0 - l31*y1 - l32*y2) * r3
		dst[p] = y0*y0 + y1*y1 + y2*y2 + y3*y3
	}
}

// halfSolvePanelRecip is HalfSolvePanel on a panel of stride count, with
// each division by l_ii replaced by a multiply with its reciprocal.
func (c *Cholesky) halfSolvePanelRecip(panel []float64, count int) {
	var recip [maxBoundOrder]float64
	for i := 0; i < c.n; i++ {
		recip[i] = 1 / c.at(i, i)
	}
	for i := 0; i < c.n; i++ {
		row := panel[i*count : i*count+count]
		for k := 0; k < i; k++ {
			lik := c.at(i, k)
			prev := panel[k*count : k*count+count]
			for p := range row {
				row[p] -= lik * prev[p]
			}
		}
		ri := recip[i]
		for p := range row {
			row[p] *= ri
		}
	}
}
