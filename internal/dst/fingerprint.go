package dst

import (
	"bytes"
	"encoding/binary"
	"hash/fnv"
	"math"
	"sort"

	"cludistream/internal/gaussian"
)

// Fingerprint canonicalizes a mixture to a 64-bit hash: every component is
// serialized as its exact float64 bits (weight, mean, packed covariance),
// the serializations are sorted, and the concatenation is FNV-1a hashed.
// Sorting makes the fingerprint independent of component order, so two
// coordinators that converged to the same model under different delivery
// schedules fingerprint identically — and any numeric drift, however
// small, does not ("recovered" means bit-identical, not merely close).
func Fingerprint(m *gaussian.Mixture) uint64 {
	if m == nil {
		return 0
	}
	return fingerprintModel(m.K(), m.Weight, m.Component)
}

// fingerprintModel is the accessor-based core of Fingerprint, shared with
// the query tier's snapshot fingerprinting (a query.Snapshot exposes the
// same (weight, component) accessors without materializing a Mixture —
// and rebuilding one would renormalize the weights, perturbing last-ulp
// bits and defeating the bit-identity the invariant pins).
func fingerprintModel(k int, weight func(int) float64, comp func(int) *gaussian.Component) uint64 {
	// One buffer holds every record; recs slices it per component.
	var buf []byte
	ends := make([]int, k)
	for j := 0; j < k; j++ {
		c := comp(j)
		buf = appendBits(buf, weight(j))
		for _, v := range c.Mean() {
			buf = appendBits(buf, v)
		}
		// Packed is the lower triangle row by row: (0,0), (1,0), (1,1), …
		for _, v := range c.Cov().Packed() {
			buf = appendBits(buf, v)
		}
		ends[j] = len(buf)
	}
	recs := make([][]byte, k)
	for j, start := 0, 0; j < k; j++ {
		recs[j], start = buf[start:ends[j]], ends[j]
	}
	sort.Slice(recs, func(a, b int) bool { return bytes.Compare(recs[a], recs[b]) < 0 })
	h := fnv.New64a()
	for _, r := range recs {
		h.Write(r)
	}
	return h.Sum64()
}

func appendBits(b []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
}
