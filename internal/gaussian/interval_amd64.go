package gaussian

import "cludistream/internal/linalg"

// intervalKernel reports whether intervalQuads scores records here: on an
// amd64 CPU with AVX2 whose operating system saves the YMM registers, by
// linalg's one CPUID check.
var intervalKernel = linalg.HasAVX2()

// intervalQuads runs AvgLogLikelihoodInterval's per-record step on the
// records of xs four at a time, records p…p+3 in the four lanes of AVX2
// registers, with the constants intervalTable laid out at tab for a
// k-component mixture. It adds each record's lower and upper bound to
// sums[0] and sums[1] in record order, with the Go path's arithmetic in the
// Go path's order and no fused multiply-add, so the sums are bit-identical
// to it. It returns how many records it scored: it stops before a tail of
// fewer than four records, and before the first quad in which a record is
// not 4 long (it reads no record that is not) or any record's allowance e
// is above 1 or NaN.
//
//go:noescape
func intervalQuads(tab *float64, k int, xs []linalg.Vector, sums *[2]float64) int
