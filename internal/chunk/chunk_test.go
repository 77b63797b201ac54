package chunk

import (
	"math"
	"testing"
	"testing/quick"

	"cludistream/internal/linalg"
)

func TestSizePaperDefaults(t *testing.T) {
	// Paper defaults: d=4, δ=0.01, ε=0.02.
	// M = ⌈-2·4·ln(0.01·1.99)/0.02⌉ = ⌈1566.95...⌉ = 1567.
	if got := Size(4, 0.02, 0.01); got != 1567 {
		t.Fatalf("Size(4, 0.02, 0.01) = %d, want 1567", got)
	}
}

func TestSizeMonotonicity(t *testing.T) {
	// M grows with d, shrinks with ε, shrinks with δ.
	if Size(8, 0.02, 0.01) <= Size(4, 0.02, 0.01) {
		t.Error("M not increasing in d")
	}
	if Size(4, 0.04, 0.01) >= Size(4, 0.02, 0.01) {
		t.Error("M not decreasing in ε")
	}
	if Size(4, 0.02, 0.05) >= Size(4, 0.02, 0.01) {
		t.Error("M not decreasing in δ")
	}
}

func TestSizeExactDoubling(t *testing.T) {
	// M is linear in d and 1/ε.
	f := func(dRaw, eRaw uint8) bool {
		d := int(dRaw%20) + 1
		eps := 0.01 + float64(eRaw%50)/1000
		m1 := -2 * float64(d) * math.Log(0.01*1.99) / eps
		m2 := -2 * float64(2*d) * math.Log(0.01*1.99) / eps
		return math.Abs(m2-2*m1) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSizePanics(t *testing.T) {
	cases := []struct {
		name string
		fn   func()
	}{
		{"d=0", func() { Size(0, 0.02, 0.01) }},
		{"eps=0", func() { Size(4, 0, 0.01) }},
		{"delta=0", func() { Size(4, 0.02, 0) }},
		{"delta=1", func() { Size(4, 0.02, 1) }},
	}
	for _, tc := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", tc.name)
				}
			}()
			tc.fn()
		}()
	}
}

func TestChunkerEmitsExactChunks(t *testing.T) {
	c := NewChunker(3, 1)
	var chunks [][]linalg.Vector
	for i := 0; i < 10; i++ {
		got, err := c.Add(linalg.Vector{float64(i)})
		if err != nil {
			t.Fatal(err)
		}
		if got != nil {
			chunks = append(chunks, got)
		}
	}
	if len(chunks) != 3 {
		t.Fatalf("emitted %d chunks, want 3", len(chunks))
	}
	for i, ch := range chunks {
		if len(ch) != 3 {
			t.Fatalf("chunk %d has %d records", i, len(ch))
		}
	}
	if chunks[1][0][0] != 3 {
		t.Fatalf("chunk order wrong: %v", chunks[1][0])
	}
	if c.Pending() != 1 {
		t.Fatalf("pending = %d, want 1", c.Pending())
	}
}

func TestChunkerFlush(t *testing.T) {
	c := NewChunker(5, 2)
	_, _ = c.Add(linalg.Vector{1, 2})
	_, _ = c.Add(linalg.Vector{3, 4})
	rest := c.Flush()
	if len(rest) != 2 {
		t.Fatalf("flush returned %d records", len(rest))
	}
	if c.Pending() != 0 {
		t.Fatal("Pending after flush")
	}
	if got := c.Flush(); len(got) != 0 {
		t.Fatal("second flush not empty")
	}
}

func TestChunkerDimValidation(t *testing.T) {
	c := NewChunker(2, 3)
	if _, err := c.Add(linalg.Vector{1}); err == nil {
		t.Fatal("wrong-dim record accepted")
	}
}

// TestChunkerRejectsInfinity: a ±Inf attribute is refused, so the buffered
// records and the next chunk are exactly those of the stream without the
// bad record; NaN (a missing attribute) is kept.
func TestChunkerRejectsInfinity(t *testing.T) {
	c := NewChunker(3, 2)
	if _, err := c.Add(linalg.Vector{1, 2}); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []linalg.Vector{{math.Inf(1), 0}, {0, math.Inf(-1)}} {
		if full, err := c.Add(bad); err == nil || full != nil {
			t.Fatalf("Add(%v) = %v, %v; want an error and no chunk", bad, full, err)
		}
	}
	if c.Pending() != 1 {
		t.Fatalf("pending = %d after rejected records, want 1", c.Pending())
	}
	if _, err := c.Add(linalg.Vector{math.NaN(), 4}); err != nil {
		t.Fatalf("NaN (missing attribute) rejected: %v", err)
	}
	full, err := c.Add(linalg.Vector{5, 6})
	if err != nil {
		t.Fatal(err)
	}
	if len(full) != 3 || full[0][0] != 1 || !math.IsNaN(full[1][0]) || full[2][1] != 6 {
		t.Fatalf("chunk = %v, want [[1 2] [NaN 4] [5 6]]", full)
	}
}

func TestChunkerConstructorPanics(t *testing.T) {
	for _, fn := range []func(){
		func() { NewChunker(0, 1) },
		func() { NewChunker(1, 0) },
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

func TestChunkerNoAliasing(t *testing.T) {
	c := NewChunker(1, 1)
	first, _ := c.Add(linalg.Vector{1})
	second, _ := c.Add(linalg.Vector{2})
	if first[0][0] != 1 || second[0][0] != 2 {
		t.Fatal("returned chunks alias internal buffer")
	}
}

func TestChunkerAddCopies(t *testing.T) {
	// Add copies the record: mutating the caller's vector afterwards must
	// not change what the chunk holds.
	c := NewChunker(2, 1)
	x := linalg.Vector{7}
	c.Add(x)
	x[0] = -1
	full, _ := c.Add(linalg.Vector{8})
	if full[0][0] != 7 || full[1][0] != 8 {
		t.Fatalf("chunk = %v, want [[7] [8]]", full)
	}
}

func TestChunkerRecycleReusesStorage(t *testing.T) {
	c := NewChunker(2, 2)
	c.Add(linalg.Vector{1, 2})
	first, _ := c.Add(linalg.Vector{3, 4})
	c.Recycle(first)
	c.Add(linalg.Vector{5, 6})
	second, _ := c.Add(linalg.Vector{7, 8})
	c.Recycle(second)
	c.Add(linalg.Vector{9, 10})
	third, _ := c.Add(linalg.Vector{11, 12})
	// With a recycled buffer always available, the third chunk must be the
	// first one's storage coming back around (two-buffer steady state).
	if &third[0][0] != &first[0][0] {
		t.Fatal("recycled storage not reused")
	}
	if third[0][0] != 9 || third[1][1] != 12 {
		t.Fatalf("third chunk = %v", third)
	}
}

func TestChunkerRecycleRejectsWrongShape(t *testing.T) {
	c := NewChunker(2, 2)
	// Wrong length and wrong dim are silently dropped, never adopted.
	c.Recycle(make([]linalg.Vector, 3))
	c.Recycle([]linalg.Vector{{1}, {2}})
	c.Add(linalg.Vector{1, 2})
	full, err := c.Add(linalg.Vector{3, 4})
	if err != nil || len(full) != 2 || len(full[0]) != 2 {
		t.Fatalf("chunk after bad recycles = %v (%v)", full, err)
	}
}

func TestChunkerSteadyStateZeroAlloc(t *testing.T) {
	c := NewChunker(50, 4)
	x := make(linalg.Vector, 4)
	avg := testing.AllocsPerRun(200, func() {
		full, err := c.Add(x)
		if err != nil {
			t.Fatal(err)
		}
		if full != nil {
			c.Recycle(full)
		}
	})
	if avg != 0 {
		t.Fatalf("Add+Recycle allocates %v per record in steady state", avg)
	}
}

func TestChunkerFlushKeepsRecordsValid(t *testing.T) {
	// Flush transfers ownership: the flushed records must survive the
	// chunker filling (and emitting) subsequent chunks.
	c := NewChunker(2, 1)
	c.Add(linalg.Vector{1})
	got := c.Flush()
	for i := 0; i < 10; i++ {
		if full, _ := c.Add(linalg.Vector{float64(100 + i)}); full != nil {
			c.Recycle(full)
		}
	}
	if len(got) != 1 || got[0][0] != 1 {
		t.Fatalf("flushed records clobbered: %v", got)
	}
}

// TestChunkerRejectsNaNAndInf: a record with both a NaN and an infinite
// attribute is rejected like any infinite one: it is neither buffered nor
// counted as incomplete, and the chunk it arrived in is the stream's
// without it.
func TestChunkerRejectsNaNAndInf(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	c := NewChunker(2, 3)
	if _, err := c.Add(linalg.Vector{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []linalg.Vector{{nan, inf, 0}, {-inf, 0, nan}, {nan, nan, inf}} {
		if full, err := c.Add(bad); err == nil || full != nil {
			t.Fatalf("Add(%v) = %v, %v; want an error and no chunk", bad, full, err)
		}
	}
	if c.Pending() != 1 {
		t.Fatalf("pending = %d after rejected records, want 1", c.Pending())
	}
	full, err := c.Add(linalg.Vector{4, 5, 6})
	if err != nil {
		t.Fatal(err)
	}
	if len(full) != 2 || full[0][2] != 3 || full[1][0] != 4 || full[1][2] != 6 {
		t.Fatalf("chunk = %v, want [[1 2 3] [4 5 6]]", full)
	}
	if n := c.Incomplete(); n != 0 {
		t.Fatalf("Incomplete() = %d, want 0", n)
	}
}

// TestChunkerIncompleteMatchesScan: per emitted chunk, Incomplete counts
// the records with a NaN attribute, and the scan view a site binds from it
// (ResetComplete at 0, else Reset) equals CompleteInto's, for chunks with
// no, one, some and only incomplete records. ±0, subnormals and
// ±MaxFloat64 are finite and accepted as complete.
func TestChunkerIncompleteMatchesScan(t *testing.T) {
	nan := math.NaN()
	finite := []float64{0, math.Copysign(0, -1), math.SmallestNonzeroFloat64, -0x1p-1070, math.MaxFloat64, -math.MaxFloat64, 1.5}
	const size, dim = 5, 3
	c := NewChunker(size, dim)
	var s Scan
	var buf []linalg.Vector
	for _, nanRows := range [][]int{{}, {2}, {0, 4}, {0, 1, 2, 3, 4}, {}, {4}} {
		var full []linalg.Vector
		for i := 0; i < size; i++ {
			x := make(linalg.Vector, dim)
			for j := range x {
				x[j] = finite[(i*dim+j)%len(finite)]
			}
			for _, r := range nanRows {
				if r == i {
					x[i%dim] = nan
				}
			}
			got, err := c.Add(x)
			if err != nil {
				t.Fatalf("Add(%v): %v", x, err)
			}
			full = got
		}
		if full == nil {
			t.Fatalf("no chunk after %d records", size)
		}
		if n := c.Incomplete(); n != len(nanRows) {
			t.Fatalf("NaN rows %v: Incomplete() = %d", nanRows, n)
		}
		if c.Incomplete() == 0 {
			s.ResetComplete(full)
		} else {
			s.Reset(full)
		}
		view, want := s.Complete(), CompleteInto(full, &buf)
		if len(view) != len(want) || len(view) != size-len(nanRows) {
			t.Fatalf("NaN rows %v: scan view has %d records, CompleteInto %d", nanRows, len(view), len(want))
		}
		for i := range view {
			if &view[i][0] != &want[i][0] {
				t.Fatalf("NaN rows %v: scan view record %d differs from CompleteInto's", nanRows, i)
			}
		}
		c.Recycle(full)
	}
}

// BenchmarkChunkerAdd is the chunker's rung at the daemons' shape (d = 4,
// M = 1567), with every chunk recycled: ns per record at 0 allocations.
func BenchmarkChunkerAdd(b *testing.B) {
	const size, dim = 1567, 4
	data := make([]linalg.Vector, size)
	for i := range data {
		data[i] = linalg.Vector{float64(i), -1.5, 0.25 * float64(i%7), 3}
	}
	c := NewChunker(size, dim)
	add := func() {
		for _, x := range data {
			full, err := c.Add(x)
			if err != nil {
				b.Fatal(err)
			}
			if full != nil {
				c.Recycle(full)
			}
		}
	}
	add()
	if allocs := testing.AllocsPerRun(10, add); allocs != 0 {
		b.Fatalf("%.1f allocations per chunk, want 0", allocs)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		add()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*size), "ns/record")
}
