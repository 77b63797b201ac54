package persist

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"cludistream/internal/events"
	"cludistream/internal/gaussian"
	"cludistream/internal/linalg"
	"cludistream/internal/site"
)

// randomMixture builds a mixture whose serialization is a fixed point of
// Save/Load. Weights are dyadic rationals n/2^20 summing to exactly 2^20
// numerator total, so every weight and every partial sum is exact in
// float64 and NewMixture's normalization divides by exactly 1.0 (the
// loader itself keeps weights verbatim). Covariances are strictly diagonally dominant, so the Cholesky in
// NewComponent succeeds and the matrix is stored verbatim, never repaired.
func randomMixture(rng *rand.Rand, d int) *gaussian.Mixture {
	const denom = 1 << 20
	k := 1 + rng.Intn(3)
	weights := make([]float64, k)
	rem := denom
	for j := 0; j < k; j++ {
		n := rem
		if j < k-1 {
			n = rng.Intn(rem + 1)
			rem -= n
		}
		weights[j] = float64(n) / denom
	}
	comps := make([]*gaussian.Component, k)
	for j := range comps {
		mean := linalg.NewVector(d)
		for i := range mean {
			mean[i] = rng.NormFloat64() * 100
		}
		cov := linalg.NewSym(d)
		for i := 0; i < d; i++ {
			cov.Set(i, i, 1+rng.Float64()*4)
			for l := 0; l < i; l++ {
				cov.Set(i, l, (rng.Float64()-0.5)*0.2)
			}
		}
		comps[j] = gaussian.MustComponent(mean, cov)
	}
	return gaussian.MustMixture(weights, comps)
}

// randomArchive builds an arbitrary but valid SiteArchive.
func randomArchive(rng *rand.Rand) *SiteArchive {
	d := 1 + rng.Intn(3)
	a := &SiteArchive{SiteID: 1 + rng.Intn(100), Dim: d}
	a.ChunkSize = 50 + rng.Intn(500)
	a.ChunksSeen = rng.Intn(1000)
	nModels := 1 + rng.Intn(4)
	for id := 1; id <= nModels; id++ {
		a.Models = append(a.Models, site.Model{
			ID:       id,
			RefAvgLL: rng.NormFloat64() * 10,
			Counter:  rng.Intn(1 << 20),
			Mixture:  randomMixture(rng, d),
		})
	}
	start := 1
	for i, n := 0, rng.Intn(5); i < n; i++ {
		end := start + rng.Intn(10)
		if err := a.Events.Append(events.Entry{ModelID: 1 + rng.Intn(nModels), StartChunk: start, EndChunk: end}); err != nil {
			panic(err)
		}
		start = end + 1
	}
	// Load refuses a span past the chunks seen.
	a.ChunksSeen = max(a.ChunksSeen, start-1)
	return a
}

// TestQuickSaveLoadRoundTrip: for random archives, Save → Load → Save is
// bit-identical — the loaded archive serializes to the very bytes it was
// read from, so nothing is lost or perturbed by a round trip.
func TestQuickSaveLoadRoundTrip(t *testing.T) {
	property := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := randomArchive(rng)
		var first bytes.Buffer
		if err := Save(&first, a); err != nil {
			t.Logf("seed %d: save: %v", seed, err)
			return false
		}
		got, err := Load(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Logf("seed %d: load: %v", seed, err)
			return false
		}
		var second bytes.Buffer
		if err := Save(&second, got); err != nil {
			t.Logf("seed %d: re-save: %v", seed, err)
			return false
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Logf("seed %d: round trip changed %d bytes", seed, len(first.Bytes()))
			return false
		}
		return true
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickTruncationIsBadFormat: every strict prefix of a valid archive
// must be rejected with an ErrBadFormat-wrapped error — in-memory input
// has no genuine I/O failures, so nothing else may surface.
func TestQuickTruncationIsBadFormat(t *testing.T) {
	property := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var buf bytes.Buffer
		if err := Save(&buf, randomArchive(rng)); err != nil {
			t.Logf("seed %d: save: %v", seed, err)
			return false
		}
		cut := rng.Intn(buf.Len())
		_, err := Load(bytes.NewReader(buf.Bytes()[:cut]))
		if !errors.Is(err, ErrBadFormat) {
			t.Logf("seed %d: cut at %d/%d: error %v, want ErrBadFormat", seed, cut, buf.Len(), err)
			return false
		}
		return true
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
