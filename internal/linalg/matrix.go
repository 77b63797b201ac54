package linalg

import "fmt"

// Matrix is a dense row-major matrix backed by one flat []float64. It is
// the batching substrate for the hot scoring paths: a chunk of records
// packed as rows is one contiguous block, so the batched kernels stream
// through memory instead of chasing per-record slice headers the way
// []Vector does. The zero value is an empty matrix; Reset grows the
// backing array on demand so one Matrix can be reused across chunks.
type Matrix struct {
	rows, cols int
	data       []float64
}

// NewMatrix returns a zero rows×cols matrix.
func NewMatrix(rows, cols int) *Matrix {
	m := &Matrix{}
	m.Reset(rows, cols)
	return m
}

// Reset reshapes m to rows×cols, zeroing the content. The backing array is
// reused when large enough, so hot loops can Reset instead of reallocating.
func (m *Matrix) Reset(rows, cols int) {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("linalg: negative matrix shape %d×%d", rows, cols))
	}
	n := rows * cols
	if cap(m.data) < n {
		m.data = make([]float64, n)
	} else {
		m.data = m.data[:n]
		for i := range m.data {
			m.data[i] = 0
		}
	}
	m.rows, m.cols = rows, cols
}

// Rows returns the row count.
func (m *Matrix) Rows() int { return m.rows }

// Row returns row i as a Vector aliasing the backing array (no copy).
func (m *Matrix) Row(i int) Vector {
	return Vector(m.data[i*m.cols : (i+1)*m.cols])
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float64 { return m.data[i*m.cols+j] }

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.data[i*m.cols+j] = v }

// Data returns the flat row-major backing slice (aliased, not copied).
func (m *Matrix) Data() []float64 { return m.data }

// CopyRow copies x into row i. It panics on dimension mismatch.
func (m *Matrix) CopyRow(i int, x Vector) {
	mustSameDim(m.cols, len(x))
	copy(m.data[i*m.cols:(i+1)*m.cols], x)
}

// SubRowsInto writes (xs[p] - mean) for p in [0, count) into panel in
// dimension-major order: panel[i*stride+p] holds coordinate i of record p.
// That transposed layout is what the blocked triangular solve wants — the
// per-dimension inner loops walk contiguous memory across records. Each
// element is the same single subtraction Vector.SubInto performs, so the
// panel is bit-identical to per-record diffs.
func SubRowsInto(xs []Vector, mean Vector, panel []float64, stride, count int) {
	d := len(mean)
	for i := 0; i < d; i++ {
		mi := mean[i]
		row := panel[i*stride : i*stride+count]
		for p := 0; p < count; p++ {
			row[p] = xs[p][i] - mi
		}
	}
}

// SumSqPanel writes dst[p] = Σ_i panel[i*stride+p]² for p in [0, count),
// accumulating over i ascending — the same order Vector.Dot(self) uses, so
// each result is bit-identical to the scalar squared norm.
func SumSqPanel(panel []float64, stride, count, n int, dst []float64) {
	for p := 0; p < count; p++ {
		dst[p] = 0
	}
	for i := 0; i < n; i++ {
		row := panel[i*stride : i*stride+count]
		for p := 0; p < count; p++ {
			dst[p] += row[p] * row[p]
		}
	}
}
