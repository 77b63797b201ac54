package metrics

import (
	"math"
	"testing"

	"cludistream/internal/chunk"
	"cludistream/internal/linalg"
)

func TestHistogramBasic(t *testing.T) {
	data := []linalg.Vector{{0.1}, {0.2}, {0.6}, {0.9}, {0.95}}
	h := Histogram(data, 0, 2, 0, 1)
	if h[0] != 2 || h[1] != 3 {
		t.Fatalf("histogram = %v", h)
	}
}

func TestHistogramClampsOutliers(t *testing.T) {
	data := []linalg.Vector{{-5}, {0.5}, {99}}
	h := Histogram(data, 0, 3, 0, 1)
	if h[0] != 1 || h[1] != 1 || h[2] != 1 {
		t.Fatalf("histogram = %v", h)
	}
	var total int
	for _, c := range h {
		total += c
	}
	if total != len(data) {
		t.Fatal("mass lost")
	}
}

func TestHistogramMultiAttr(t *testing.T) {
	data := []linalg.Vector{{0, 0.9}, {0, 0.1}}
	h := Histogram(data, 1, 2, 0, 1)
	if h[0] != 1 || h[1] != 1 {
		t.Fatalf("attr-1 histogram = %v", h)
	}
}

func TestHistogramPanics(t *testing.T) {
	for _, fn := range []func(){
		func() { Histogram(nil, 0, 0, 0, 1) },
		func() { Histogram(nil, 0, 2, 1, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}

// Theorem3Bytes evaluates the paper's per-site memory bound
// O(M + B·K·(d²+d+1)) in bytes (float64 entries): the chunk buffer of
// chunk.Size records plus B models of K components each.
func Theorem3Bytes(d, k, b int, epsilon, delta float64) int {
	m := chunk.Size(d, epsilon, delta)
	return 8 * (m*d + b*k*(d*d+d+1))
}

func TestTheorem3Bytes(t *testing.T) {
	// Paper defaults: d=4, K=5, ε=0.02, δ=0.01 → M=1567.
	// One model (B=1): 8·(1567·4 + 1·5·(16+4+1)) = 8·(6268+105) = 50984.
	if got := Theorem3Bytes(4, 5, 1, 0.02, 0.01); got != 50984 {
		t.Fatalf("Theorem3Bytes = %d, want 50984", got)
	}
	// Linear in B.
	b1 := Theorem3Bytes(4, 5, 1, 0.02, 0.01)
	b3 := Theorem3Bytes(4, 5, 3, 0.02, 0.01)
	m := chunk.Size(4, 0.02, 0.01)
	if b3-b1 != 2*8*5*(16+4+1) {
		t.Fatalf("B scaling wrong: %d vs %d (M=%d)", b1, b3, m)
	}
}

func TestMean(t *testing.T) {
	if Mean(nil) != 0 {
		t.Fatal("Mean(nil)")
	}
	if got := Mean([]float64{1, 2, 3}); got != 2 {
		t.Fatalf("Mean = %v", got)
	}
}

func TestMinMax(t *testing.T) {
	lo, hi := MinMax([]float64{3, -1, 7, 2})
	if lo != -1 || hi != 7 {
		t.Fatalf("MinMax = %v %v", lo, hi)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("empty MinMax did not panic")
		}
	}()
	MinMax(nil)
}

func TestSpearman(t *testing.T) {
	// Any monotone transform preserves rank correlation perfectly.
	a := []float64{1, 2, 3, 4, 5}
	b := []float64{1, 8, 27, 64, 125} // a³ — nonlinear but monotone
	if got := Spearman(a, b); math.Abs(got-1) > 1e-12 {
		t.Fatalf("Spearman(monotone) = %v, want 1", got)
	}
	if got := Spearman(a, []float64{5, 4, 3, 2, 1}); math.Abs(got+1) > 1e-12 {
		t.Fatalf("Spearman(reversed) = %v, want -1", got)
	}
	// Spearman is robust to one extreme outlier where Pearson is not.
	c := []float64{1, 2, 3, 4, 1e9}
	if p, s := Pearson(a, c), Spearman(a, c); s < p {
		t.Fatalf("Spearman %v should dominate Pearson %v under an outlier", s, p)
	}
}

func TestPearson(t *testing.T) {
	a := []float64{1, 2, 3, 4}
	if got := Pearson(a, []float64{2, 4, 6, 8}); math.Abs(got-1) > 1e-12 {
		t.Fatalf("perfect correlation = %v", got)
	}
	if got := Pearson(a, []float64{8, 6, 4, 2}); math.Abs(got+1) > 1e-12 {
		t.Fatalf("perfect anticorrelation = %v", got)
	}
	if got := Pearson(a, []float64{5, 5, 5, 5}); got != 0 {
		t.Fatalf("constant series correlation = %v", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched Pearson did not panic")
		}
	}()
	Pearson(a, []float64{1})
}

func TestHistogramExactBoundaries(t *testing.T) {
	// x = lo lands in the first bucket; x = hi is outside the half-open
	// [lo, hi) range and must clamp into the last bucket, not vanish.
	data := []linalg.Vector{{0}, {1}}
	h := Histogram(data, 0, 4, 0, 1)
	if h[0] != 1 {
		t.Fatalf("x = lo landed in %v, want bucket 0", h)
	}
	if h[3] != 1 {
		t.Fatalf("x = hi landed in %v, want clamped into bucket 3", h)
	}
	// An interior bucket edge belongs to the bucket it opens.
	h = Histogram([]linalg.Vector{{0.5}}, 0, 2, 0, 1)
	if h[1] != 1 {
		t.Fatalf("x = midpoint landed in %v, want bucket 1", h)
	}
}

func TestTheorem3BytesHandComputed(t *testing.T) {
	// Second hand-computed point away from the paper defaults:
	// d=2, ε=0.1, δ=0.05 → M = ⌈-2·2·ln(0.05·1.95)/0.1⌉ = ⌈93.12⌉ = 94;
	// then 8·(94·2 + 2·3·(4+2+1)) = 8·(188 + 42) = 1840 bytes.
	if m := chunk.Size(2, 0.1, 0.05); m != 94 {
		t.Fatalf("chunk.Size(2, 0.1, 0.05) = %d, want 94", m)
	}
	if got := Theorem3Bytes(2, 3, 2, 0.1, 0.05); got != 1840 {
		t.Fatalf("Theorem3Bytes(2,3,2) = %d, want 1840", got)
	}
}

func TestMeanSingleElement(t *testing.T) {
	if got := Mean([]float64{7.5}); got != 7.5 {
		t.Fatalf("Mean([7.5]) = %v", got)
	}
}

func TestMinMaxSingleElement(t *testing.T) {
	lo, hi := MinMax([]float64{-3.25})
	if lo != -3.25 || hi != -3.25 {
		t.Fatalf("MinMax([x]) = %v %v, want both -3.25", lo, hi)
	}
}

func TestMinMaxEmptyPanicsWithMessage(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("MinMax([]) did not panic")
		}
		if s, ok := r.(string); !ok || s != "metrics: MinMax of empty slice" {
			t.Fatalf("panic value = %v", r)
		}
	}()
	MinMax([]float64{})
}
