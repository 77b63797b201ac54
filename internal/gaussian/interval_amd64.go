package gaussian

import "cludistream/internal/linalg"

// intervalKernel reports whether intervalPairs scores records on this
// architecture.
const intervalKernel = true

// intervalPairs runs AvgLogLikelihoodInterval's per-record step on the
// records of xs two at a time, records p and p+1 in the two lanes of SSE2
// registers, with the constants intervalTable laid out at tab for a
// k-component mixture. It adds each record's lower and upper bound to
// sums[0] and sums[1] in record order, with the Go path's arithmetic in the
// Go path's order, so the sums are bit-identical to it. It returns how many
// records it scored: it stops before the odd tail record, and before the
// first pair in which a record is not 4 long (it reads no record that is
// not) or either record's allowance e is above 1 or NaN.
//
//go:noescape
func intervalPairs(tab *float64, k int, xs []linalg.Vector, sums *[2]float64) int
