package chunk

import (
	"math"

	"cludistream/internal/linalg"
)

// Scan is the shared per-chunk scoring workspace: the complete-records
// view of a chunk, computed once and reused by every model test the chunk
// undergoes (the site's multi-test probes up to c_max models against the
// same records, and previously re-filtered the chunk per probe).
//
// The filtered view is backed by a buffer owned by the Scan, so a site
// that resets the same Scan per chunk runs the whole multi-test without
// allocating — the companion of the Chunker's two-buffer recycle protocol
// on the scoring side.
type Scan struct {
	data     []linalg.Vector // the chunk this scan is bound to
	complete []linalg.Vector // filtered view (nil until computed)
	done     bool
	buf      []linalg.Vector // reused backing for the filtered view
}

// Reset binds the scan to a new chunk, dropping any cached state.
func (s *Scan) Reset(data []linalg.Vector) {
	s.data = data
	s.complete = nil
	s.done = false
}

// ResetComplete binds the scan to a chunk known to hold no incomplete
// record (Chunker.Incomplete is 0): Complete returns it without a scan.
func (s *Scan) ResetComplete(data []linalg.Vector) {
	s.data = data
	s.complete = data
	s.done = true
}

// Data returns the chunk the scan is bound to, incomplete records included.
func (s *Scan) Data() []linalg.Vector { return s.data }

// Complete returns the chunk's records with every incomplete (NaN-bearing)
// record removed, computing the filter on first call and serving the
// cached view afterwards. When all records are complete — the common case
// — the chunk slice itself is returned and nothing is copied.
func (s *Scan) Complete() []linalg.Vector {
	if s.done {
		return s.complete
	}
	s.complete = CompleteInto(s.data, &s.buf)
	s.done = true
	return s.complete
}

// CompleteInto filters out records with missing (NaN) attributes. It
// returns the input unchanged (no copy) when every record is complete;
// otherwise the filtered view is built in *buf, which is grown as needed
// and reused across calls.
func CompleteInto(data []linalg.Vector, buf *[]linalg.Vector) []linalg.Vector {
	for i, x := range data {
		if hasNaN(x) {
			out := (*buf)[:0]
			if cap(out) < len(data) {
				out = make([]linalg.Vector, 0, len(data))
			}
			out = append(out, data[:i]...)
			for _, y := range data[i+1:] {
				if !hasNaN(y) {
					out = append(out, y)
				}
			}
			*buf = out
			return out
		}
	}
	return data
}

func hasNaN(x linalg.Vector) bool {
	for _, v := range x {
		if math.IsNaN(v) {
			return true
		}
	}
	return false
}
