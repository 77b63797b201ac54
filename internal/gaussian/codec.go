package gaussian

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"slices"

	"cludistream/internal/linalg"
)

// maxShape caps the K and d a decoded mixture header may announce.
const maxShape = 1 << 20

// floatsPerComponent is the number of float64s one d-dimensional component
// takes on the wire: its weight, its mean and its packed covariance.
func floatsPerComponent(d int) int { return 1 + d + linalg.PackedLen(d) }

// AppendMixture appends m's encoding to buf and returns the extended
// buffer. It is the one byte layout of a mixture: the body of a NewModel
// wire frame (and so of a WAL record), of every model in a site archive
// and of every model in a coordinator checkpoint. All little-endian:
//
//	K u32 | d u32 | K weights | K means of d | K covariances of d(d+1)/2
//
// where every number after the header is a float64's IEEE 754 bits and a
// covariance is its packed lower triangle. ParseMixture reads it back.
func AppendMixture(buf []byte, m *Mixture) []byte {
	k, d := m.K(), m.Dim()
	buf = slices.Grow(buf, 8+8*k*floatsPerComponent(d))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(k))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(d))
	for _, w := range m.weights {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(w))
	}
	for _, c := range m.comps {
		for _, v := range c.mean {
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
		}
	}
	for _, c := range m.comps {
		for _, v := range c.cov.Packed() {
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
		}
	}
	return buf
}

// ParseMixture reads one mixture that AppendMixture wrote from the front
// of b. It returns the weights and components as written and the bytes
// after them.
//
// It allocates nothing before it knows the input holds the mixture: a K
// or d outside [1, 2²⁰] is refused, and so is a b shorter than the
// K·(1 + d + d(d+1)/2) floats the header announces, with an error
// wrapping io.ErrUnexpectedEOF. Every component must have finite
// parameters and a covariance that factors as written — none is repaired
// — so what parses re-encodes to exactly the bytes it was read from.
//
// The weights are not checked: the caller's constructor does that.
// NewMixture renormalizes them; NewNormalizedMixture keeps them bit for
// bit.
func ParseMixture(b []byte) (weights []float64, comps []*Component, rest []byte, err error) {
	if len(b) < 8 {
		return nil, nil, nil, fmt.Errorf("gaussian: mixture header: %w", io.ErrUnexpectedEOF)
	}
	k := int(binary.LittleEndian.Uint32(b))
	d := int(binary.LittleEndian.Uint32(b[4:]))
	b = b[8:]
	if k < 1 || d < 1 || k > maxShape || d > maxShape {
		return nil, nil, nil, fmt.Errorf("gaussian: implausible mixture K=%d d=%d", k, d)
	}
	n := uint64(k) * uint64(floatsPerComponent(d))
	if uint64(len(b))/8 < n {
		return nil, nil, nil, fmt.Errorf("gaussian: K=%d d=%d mixture needs %d floats, %d bytes left: %w",
			k, d, n, len(b), io.ErrUnexpectedEOF)
	}
	// One backing array holds every float; the weights, means and
	// covariances are views of it.
	f := make([]float64, n)
	for i := range f {
		f[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
	}
	rest = b[8*n:]
	weights, f = f[:k:k], f[k:]
	means, covs := f[:k*d], f[k*d:]
	p := linalg.PackedLen(d)
	comps = make([]*Component, k)
	for j := range comps {
		mean := linalg.Vector(means[j*d : (j+1)*d : (j+1)*d])
		cov := linalg.SymFromPacked(d, covs[j*p:(j+1)*p:(j+1)*p])
		if !mean.IsFinite() || !cov.IsFinite() {
			return nil, nil, nil, fmt.Errorf("gaussian: component %d: non-finite parameters", j)
		}
		chol, err := linalg.CholeskyDecompose(cov)
		if err != nil {
			return nil, nil, nil, fmt.Errorf("gaussian: component %d: %w", j, ErrSingular)
		}
		comps[j] = &Component{mean: mean, cov: cov, chol: chol, logNorm: logNormOf(chol)}
	}
	return weights, comps, rest, nil
}
