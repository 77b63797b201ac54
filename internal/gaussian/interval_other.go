//go:build !amd64

package gaussian

import "cludistream/internal/linalg"

// intervalKernel reports whether intervalQuads scores records on this
// architecture.
const intervalKernel = false

// intervalQuads scores no record here; intervalTable never builds a table
// for it to read.
func intervalQuads(tab *float64, k int, xs []linalg.Vector, sums *[2]float64) int { return 0 }
