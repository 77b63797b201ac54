package linalg

import (
	"math"
	"math/rand"
	"testing"
)

func TestMatrixBasics(t *testing.T) {
	m := NewMatrix(3, 2)
	if m.Rows() != 3 || m.cols != 2 {
		t.Fatalf("shape = %d×%d", m.Rows(), m.cols)
	}
	m.Set(2, 1, 7)
	if m.At(2, 1) != 7 || m.Row(2)[1] != 7 {
		t.Fatal("Set/At/Row disagree")
	}
	m.CopyRow(0, Vector{1, 2})
	if m.Data()[0] != 1 || m.Data()[1] != 2 {
		t.Fatalf("CopyRow wrote %v", m.Data()[:2])
	}
}

func TestMatrixResetReuse(t *testing.T) {
	m := NewMatrix(4, 4)
	m.Set(0, 0, 5)
	base := &m.Data()[0]
	m.Reset(2, 3) // smaller: must reuse and zero
	if m.Rows() != 2 || m.cols != 3 {
		t.Fatalf("shape after Reset = %d×%d", m.Rows(), m.cols)
	}
	if &m.Data()[0] != base {
		t.Fatal("Reset to a smaller shape reallocated")
	}
	for _, v := range m.Data() {
		if v != 0 {
			t.Fatalf("Reset left stale value %v", v)
		}
	}
	m.Reset(10, 10) // larger: must grow
	if len(m.Data()) != 100 {
		t.Fatalf("grown len = %d", len(m.Data()))
	}
}

func TestSubRowsIntoMatchesSubInto(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	const d, n, stride = 5, 7, 16
	xs := make([]Vector, n)
	for i := range xs {
		xs[i] = NewVector(d)
		for j := range xs[i] {
			xs[i][j] = rng.NormFloat64()
		}
	}
	mean := NewVector(d)
	for j := range mean {
		mean[j] = rng.NormFloat64()
	}
	panel := make([]float64, d*stride)
	SubRowsInto(xs, mean, panel, stride, n)
	diff := NewVector(d)
	for p, x := range xs {
		x.SubInto(mean, diff)
		for i := 0; i < d; i++ {
			if math.Float64bits(panel[i*stride+p]) != math.Float64bits(diff[i]) {
				t.Fatalf("record %d coord %d: panel %v, scalar %v", p, i, panel[i*stride+p], diff[i])
			}
		}
	}
}

// TestHalfSolvePanelBitIdentical pins the blocked forward solve to the
// scalar HalfSolveInto column by column — the property the batched
// Mahalanobis kernels rely on.
func TestHalfSolvePanelBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	for _, d := range []int{1, 2, 5, 12} {
		chol, err := CholeskyDecompose(randSPD(rng, d))
		if err != nil {
			t.Fatal(err)
		}
		const n, stride = 9, 11
		panel := make([]float64, d*stride)
		cols := make([]Vector, n)
		for p := 0; p < n; p++ {
			cols[p] = NewVector(d)
			for i := 0; i < d; i++ {
				cols[p][i] = rng.NormFloat64()
				panel[i*stride+p] = cols[p][i]
			}
		}
		chol.HalfSolvePanel(panel, stride, n)
		y := NewVector(d)
		for p := 0; p < n; p++ {
			chol.HalfSolveInto(cols[p], y)
			for i := 0; i < d; i++ {
				if math.Float64bits(panel[i*stride+p]) != math.Float64bits(y[i]) {
					t.Fatalf("d=%d rhs %d coord %d: panel %v, scalar %v", d, p, i, panel[i*stride+p], y[i])
				}
			}
		}
	}
}

// TestQuadFormPanelBitIdentical pins the fused panel quadratic form to the
// scalar QuadForm.
func TestQuadFormPanelBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	d := 6
	chol, err := CholeskyDecompose(randSPD(rng, d))
	if err != nil {
		t.Fatal(err)
	}
	const n = 13
	panel := make([]float64, d*n)
	cols := make([]Vector, n)
	for p := 0; p < n; p++ {
		cols[p] = NewVector(d)
		for i := 0; i < d; i++ {
			cols[p][i] = rng.NormFloat64()
			panel[i*n+p] = cols[p][i]
		}
	}
	dst := make([]float64, n)
	chol.QuadFormPanel(panel, n, n, dst)
	for p := 0; p < n; p++ {
		if want := chol.QuadForm(cols[p]); math.Float64bits(dst[p]) != math.Float64bits(want) {
			t.Fatalf("rhs %d: panel %v, scalar %v", p, dst[p], want)
		}
	}
}

func TestSumSqPanel(t *testing.T) {
	// 2 dims, stride 4, 3 columns: dst[p] = panel[0*4+p]² + panel[1*4+p]².
	panel := []float64{1, 2, 3, 99, 4, 5, 6, 99}
	dst := make([]float64, 3)
	SumSqPanel(panel, 4, 3, 2, dst)
	want := []float64{17, 29, 45}
	for p := range want {
		if dst[p] != want[p] {
			t.Fatalf("dst = %v, want %v", dst, want)
		}
	}
}
