package gaussian

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math/rand"
	"testing"

	"cludistream/internal/linalg"
)

// codecMixture draws a k-component d-dimensional mixture with a full
// covariance per component.
func codecMixture(rng *rand.Rand, k, d int) *Mixture {
	weights := make([]float64, k)
	comps := make([]*Component, k)
	for j := range comps {
		weights[j] = rng.Float64() + 0.1
		mean := linalg.NewVector(d)
		for i := range mean {
			mean[i] = rng.NormFloat64() * 5
		}
		cov := linalg.NewSym(d)
		for i := 0; i < d; i++ {
			cov.Set(i, i, 1+rng.Float64())
			for l := 0; l < i; l++ {
				cov.Set(i, l, (rng.Float64()-0.5)*0.3)
			}
		}
		comps[j] = MustComponent(mean, cov)
	}
	return MustMixture(weights, comps)
}

// TestMixtureCodec: a parse hands back the encoded mixture bit for bit
// and the bytes after it; every cut of the body is io.ErrUnexpectedEOF;
// an implausible shape and a covariance that does not factor are refused.
func TestMixtureCodec(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	m := codecMixture(rng, 3, 4)
	enc := AppendMixture([]byte("head"), m)[4:]
	weights, comps, rest, err := ParseMixture(append(enc, "tail"...))
	if err != nil {
		t.Fatal(err)
	}
	if string(rest) != "tail" {
		t.Fatalf("rest = %q, want %q", rest, "tail")
	}
	if got := AppendMixture(nil, newMixture(weights, comps)); !bytes.Equal(got, enc) {
		t.Fatal("re-encoding a parsed mixture changed its bytes")
	}
	for j, c := range comps {
		if c.LogDet() != m.Component(j).LogDet() || weights[j] != m.Weight(j) {
			t.Fatalf("component %d decoded differently", j)
		}
	}
	for cut := 0; cut < len(enc); cut++ {
		if _, _, _, err := ParseMixture(enc[:cut]); !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("cut at %d of %d: err = %v, want io.ErrUnexpectedEOF", cut, len(enc), err)
		}
	}
	for _, shape := range [][2]uint32{{0, 1}, {1, 0}, {1<<20 + 1, 1}, {1, 1<<20 + 1}} {
		b := binary.LittleEndian.AppendUint32(nil, shape[0])
		b = binary.LittleEndian.AppendUint32(b, shape[1])
		if _, _, _, err := ParseMixture(b); err == nil || errors.Is(err, io.ErrUnexpectedEOF) {
			t.Errorf("K=%d d=%d: err = %v, want an implausible-shape error", shape[0], shape[1], err)
		}
	}
	singular := append([]byte(nil), enc...)
	copy(singular[len(enc)-8*linalg.PackedLen(4):], make([]byte, 8*linalg.PackedLen(4))) // last covariance = 0
	if _, _, _, err := ParseMixture(singular); !errors.Is(err, ErrSingular) {
		t.Errorf("zero covariance: err = %v, want ErrSingular", err)
	}
}

// FuzzMixtureCodec: whenever ParseMixture accepts its input, re-encoding
// what it returned gives back exactly the bytes it consumed, so no format
// that carries a mixture can drift a bit in a round trip.
func FuzzMixtureCodec(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	for _, shape := range [][2]int{{1, 1}, {2, 3}, {5, 4}} {
		enc := AppendMixture(nil, codecMixture(rng, shape[0], shape[1]))
		f.Add(enc)
		f.Add(enc[:len(enc)-1])
		f.Add(append(enc, 1, 2, 3))
	}
	f.Add([]byte{})
	f.Add([]byte{1, 0, 0, 0, 0, 8, 0, 0}) // K = 1, d = 2048, no body

	f.Fuzz(func(t *testing.T, b []byte) {
		weights, comps, rest, err := ParseMixture(b)
		if err != nil {
			return
		}
		consumed := b[:len(b)-len(rest)]
		if got := AppendMixture(nil, newMixture(weights, comps)); !bytes.Equal(got, consumed) {
			t.Fatalf("parse of %d bytes re-encodes to %d different bytes", len(consumed), len(got))
		}
	})
}
