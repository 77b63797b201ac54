package persist

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"math"
	"math/rand"
	"testing"

	"cludistream/internal/coordinator"
	"cludistream/internal/events"
	"cludistream/internal/gaussian"
	"cludistream/internal/linalg"
	"cludistream/internal/site"
	"cludistream/internal/transport"
)

// goldenMixture draws a k-component d-dimensional mixture from rng with
// arbitrary (not dyadic) weights, so the normalized weights carry the
// rounding a real fit leaves, and diagonally dominant covariances, which
// factor without repair. The float64 conversion keeps a multiply-add from
// fusing, so the bytes do not depend on GOAMD64.
func goldenMixture(rng *rand.Rand, k, d int) *gaussian.Mixture {
	weights := make([]float64, k)
	comps := make([]*gaussian.Component, k)
	for j := range comps {
		weights[j] = 0.1 + rng.Float64()
		mean := linalg.NewVector(d)
		for i := range mean {
			mean[i] = (rng.Float64() - 0.5) * 20
		}
		cov := linalg.NewSym(d)
		for i := 0; i < d; i++ {
			cov.Set(i, i, 1+float64(rng.Float64()*4))
			for l := 0; l < i; l++ {
				cov.Set(i, l, (rng.Float64()-0.5)*0.4)
			}
		}
		comps[j] = gaussian.MustComponent(mean, cov)
	}
	return gaussian.MustMixture(weights, comps)
}

// TestFormatGolden pins the bytes of the three formats a mixture is
// written in: a NewModel wire frame (and so a WAL record), a site archive
// and a coordinator checkpoint, all built from one seeded state. The
// round-trip tests only compare each format against itself; this one
// fails when the layout drifts. The hashes were taken before the formats
// shared one mixture codec and must not be edited to make a change pass.
func TestFormatGolden(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	const d = 3
	mixes := []*gaussian.Mixture{goldenMixture(rng, 3, d), goldenMixture(rng, 2, d), goldenMixture(rng, 1, d)}

	frame := transport.Encode(transport.Message{
		Kind: transport.MsgNewModel, SiteID: 2, ModelID: 3, Count: 500,
		Epoch: 1, Seq: 7, TraceID: 11, SpanID: 13, Mixture: mixes[0],
	})

	a := &SiteArchive{SiteID: 2, Dim: d, History: site.History{ChunkSize: 500, ChunksSeen: 9}}
	for i, m := range mixes[:2] {
		a.Models = append(a.Models, site.Model{ID: i + 1, RefAvgLL: -4.25 - rng.Float64(), Counter: 1000 * (i + 1), Mixture: m})
	}
	for _, e := range []events.Entry{{ModelID: 1, StartChunk: 1, EndChunk: 4}, {ModelID: 2, StartChunk: 5, EndChunk: 9}} {
		if err := a.Events.Append(e); err != nil {
			t.Fatal(err)
		}
	}
	var archive bytes.Buffer
	if err := Save(&archive, a); err != nil {
		t.Fatal(err)
	}

	snap := &coordinator.Snapshot{
		Dim: d, NextGroupID: 3,
		Stats: coordinator.Stats{UpdatesHandled: 40, NewModels: 3, WeightUpdates: 30, Deletions: 7, Splits: 1, Remerges: 2, GroupsCreated: 4, GroupsRemoved: 2, SiteResets: 1},
	}
	for i, m := range mixes {
		snap.Models = append(snap.Models, coordinator.SnapshotModel{SiteID: 1 + i%2, ModelID: i + 1, Counter: 700 + i, Mixture: m})
	}
	g1 := coordinator.SnapshotGroup{ID: 1}
	g2 := coordinator.SnapshotGroup{ID: 2}
	for _, m := range snap.Models {
		for c := 0; c < m.Mixture.K(); c++ {
			key := coordinator.MemberKey{SiteID: m.SiteID, ModelID: m.ModelID, Comp: c}
			if c == 0 {
				g1.Members = append(g1.Members, coordinator.SnapshotMember{Key: key, MRemergeAtJoin: 1 + rng.Float64()})
			} else {
				g2.Members = append(g2.Members, coordinator.SnapshotMember{Key: key, MRemergeAtJoin: math.Inf(1)})
			}
		}
	}
	snap.Groups = []coordinator.SnapshotGroup{g1, g2}
	st := &CoordinatorState{Applied: 40, Snapshot: snap, Dedupe: []DedupeEntry{{SiteID: 1, Epoch: 2, MaxSeq: 19}, {SiteID: 2, Epoch: 1, MaxSeq: 21}}}
	var checkpoint bytes.Buffer
	if err := SaveCoordinatorState(&checkpoint, st); err != nil {
		t.Fatal(err)
	}

	for _, c := range []struct {
		name string
		data []byte
		want string
	}{
		{"NewModel frame", frame, "511c12ea2d5e9f780e630200a41d39db4753f8769afd5536b94a152785c249c5"},
		{"site archive", archive.Bytes(), "e096b1ad68a733a4319a564d46007f828f8963698fe7d76b0030a4b9f1253c2f"},
		{"coordinator checkpoint", checkpoint.Bytes(), "1921f0cd40d9ae4c7c8b7c1c6d73a101997a2a31a7ac8aabfcfb0e5b952197ca"},
	} {
		sum := sha256.Sum256(c.data)
		if got := hex.EncodeToString(sum[:]); got != c.want {
			t.Errorf("%s (%d bytes): sha256 %s, want %s", c.name, len(c.data), got, c.want)
		}
	}
}
