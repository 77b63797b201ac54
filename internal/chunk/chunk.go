// Package chunk implements the chunking layer of CluDistream's remote-site
// processing: the Theorem-1 chunk size M(d, ε, δ) and a Chunker that cuts
// an arriving stream into consecutive chunks of that size.
package chunk

import (
	"fmt"
	"math"

	"cludistream/internal/linalg"
)

// Size returns the Theorem-1 chunk size
//
//	M = ⌈ -2·d·ln(δ·(2-δ)) / ε ⌉
//
// which guarantees that the squared Mahalanobis distance between a chunk's
// sample mean and the distribution mean is below ε with probability at
// least 1-δ. It panics on out-of-range parameters — they are configuration
// constants, not data.
func Size(d int, epsilon, delta float64) int {
	if d < 1 {
		panic(fmt.Sprintf("chunk: dimension %d < 1", d))
	}
	if epsilon <= 0 {
		panic(fmt.Sprintf("chunk: epsilon %v must be positive", epsilon))
	}
	if delta <= 0 || delta >= 1 {
		panic(fmt.Sprintf("chunk: delta %v must be in (0,1)", delta))
	}
	m := -2 * float64(d) * math.Log(delta*(2-delta)) / epsilon
	return int(math.Ceil(m))
}

// Chunker accumulates records and emits full chunks. It owns the single
// per-site data buffer that Theorem 3 charges M records of memory for.
//
// Records are stored in a flat row-major slab — one contiguous
// size×dim float64 block per chunk, with the emitted []linalg.Vector
// acting as row headers into it — so chunk scoring streams through
// memory in order. Add copies the record into the slab; the caller
// keeps ownership of (and may freely reuse) the vector it passed in.
//
// Emitted chunks follow a two-buffer recycle protocol: the Chunker fills
// one buffer while the previously emitted chunk is being processed, and
// Recycle hands a processed chunk's storage back for the buffer after
// that. A caller that recycles every chunk it receives (the site does)
// runs with exactly two chunk buffers and zero allocations per record in
// steady state; a caller that never calls Recycle simply costs one slab
// allocation per chunk, matching the pre-recycle behaviour.
type Chunker struct {
	size       int
	dim        int
	buf        []linalg.Vector // size row headers into one flat slab
	fill       int             // records currently in buf
	nan        int             // records in buf with a NaN attribute
	incomplete int             // records with a NaN attribute in the chunk last emitted
	spare      []linalg.Vector // recycled buffer awaiting reuse (nil if none)
}

// NewChunker returns a Chunker producing chunks of exactly size records of
// dimension dim.
func NewChunker(size, dim int) *Chunker {
	if size < 1 {
		panic(fmt.Sprintf("chunk: size %d < 1", size))
	}
	if dim < 1 {
		panic(fmt.Sprintf("chunk: dim %d < 1", dim))
	}
	c := &Chunker{size: size, dim: dim}
	c.buf = c.newBuf()
	return c
}

// newBuf allocates one chunk buffer: a flat slab plus its row headers.
func (c *Chunker) newBuf() []linalg.Vector {
	slab := make([]float64, c.size*c.dim)
	buf := make([]linalg.Vector, c.size)
	for i := range buf {
		buf[i] = slab[i*c.dim : (i+1)*c.dim : (i+1)*c.dim]
	}
	return buf
}

// Size returns the chunk size.
func (c *Chunker) Size() int { return c.size }

// Add copies one record into the buffer. When the buffer reaches the chunk
// size, the full chunk is returned (valid until the caller recycles it)
// and filling switches to the spare buffer; otherwise Add returns nil.
// Records of the wrong dimension and records with an infinite attribute are
// rejected with an error; a rejected record leaves Pending() and every
// chunk unchanged. NaN is accepted: it marks a missing attribute (see
// em.FitIncomplete), and Incomplete counts such records per chunk.
func (c *Chunker) Add(x linalg.Vector) ([]linalg.Vector, error) {
	if len(x) != c.dim {
		return nil, fmt.Errorf("chunk: record dim %d, want %d", len(x), c.dim)
	}
	// One pass copies the record into the next free row and sums v − v,
	// which is +0 when every attribute is finite and NaN when one is NaN
	// or ±Inf. The row counts only once fill moves past it.
	row := c.buf[c.fill][:len(x)]
	var z float64
	for j, v := range x {
		row[j] = v
		z += v - v
	}
	if z != 0 {
		for j, v := range x {
			if math.IsInf(v, 0) {
				return nil, fmt.Errorf("chunk: record attribute %d is %v", j, v)
			}
		}
		c.nan++
	}
	c.fill++
	if c.fill < c.size {
		return nil, nil
	}
	out := c.buf
	c.incomplete = c.nan
	c.next()
	return out, nil
}

// Incomplete returns how many records of the chunk Add last returned have a
// NaN attribute; 0 means chunk.Scan need not filter it (Scan.ResetComplete).
func (c *Chunker) Incomplete() int { return c.incomplete }

// next switches filling to the spare buffer, or to a new one.
func (c *Chunker) next() {
	c.buf, c.spare = c.spare, nil
	if c.buf == nil {
		c.buf = c.newBuf()
	}
	c.fill, c.nan = 0, 0
}

// Recycle returns a chunk previously emitted by Add to the Chunker for
// reuse, after the caller is completely done with it (no references to the
// chunk or its records may be retained). Chunks of the wrong shape and
// surplus buffers beyond the one spare slot are dropped, so Recycle never
// needs an error path.
func (c *Chunker) Recycle(chunk []linalg.Vector) {
	if c.spare != nil || len(chunk) != c.size || c.size == 0 || len(chunk[0]) != c.dim {
		return
	}
	c.spare = chunk
}

// Pending returns the number of buffered records not yet forming a chunk.
func (c *Chunker) Pending() int { return c.fill }

// Flush returns the partial buffer (possibly empty) and resets it. Used at
// stream end or when a window query must account for in-flight records.
// Ownership of the returned records transfers to the caller; the flushed
// buffer is replaced rather than reused, so the records stay valid.
func (c *Chunker) Flush() []linalg.Vector {
	if c.fill == 0 {
		return nil
	}
	out := c.buf[:c.fill]
	c.next()
	return out
}
