package persist

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"cludistream/internal/coordinator"
	"cludistream/internal/gaussian"
	"cludistream/internal/linalg"
)

// randomCoordState builds an arbitrary but format-valid coordinator
// checkpoint. Mixtures come from randomMixture, so every float in the
// state is a Save/Load fixed point; group membership mirrors the models
// so FromSnapshot-style structural checks would also pass, though the
// format layer never requires that.
func randomCoordState(rng *rand.Rand) *CoordinatorState {
	d := 1 + rng.Intn(3)
	snap := &coordinator.Snapshot{
		Dim:         d,
		NextGroupID: 1,
		Stats: coordinator.Stats{
			UpdatesHandled: rng.Intn(10000),
			NewModels:      rng.Intn(100),
			WeightUpdates:  rng.Intn(1000),
			Deletions:      rng.Intn(50),
			Splits:         rng.Intn(20),
			Remerges:       rng.Intn(20),
			GroupsCreated:  rng.Intn(100),
			GroupsRemoved:  rng.Intn(50),
			SiteResets:     rng.Intn(5),
		},
	}
	nModels := 1 + rng.Intn(3)
	for id := 1; id <= nModels; id++ {
		snap.Models = append(snap.Models, coordinator.SnapshotModel{
			SiteID:  1 + rng.Intn(4),
			ModelID: id,
			Counter: 1 + rng.Intn(1<<16),
			Mixture: randomMixture(rng, d),
		})
	}
	for _, m := range snap.Models {
		g := coordinator.SnapshotGroup{ID: snap.NextGroupID}
		snap.NextGroupID++
		for c := 0; c < m.Mixture.K(); c++ {
			// +Inf marks a group-seeding leaf; finite joins carry the
			// Algorithm-2 reference frozen at join time.
			mr := math.Inf(1)
			if rng.Intn(2) == 0 {
				mr = 1 + rng.Float64()*10
			}
			g.Members = append(g.Members, coordinator.SnapshotMember{
				Key:            coordinator.MemberKey{SiteID: m.SiteID, ModelID: m.ModelID, Comp: c},
				MRemergeAtJoin: mr,
			})
		}
		snap.Groups = append(snap.Groups, g)
	}
	st := &CoordinatorState{Applied: rng.Uint64() >> 16, Snapshot: snap}
	site := int32(rng.Intn(3))
	for i, n := 0, rng.Intn(5); i < n; i++ {
		site += 1 + int32(rng.Intn(4)) // strictly ascending, as the format requires
		st.Dedupe = append(st.Dedupe, DedupeEntry{
			SiteID: site,
			Epoch:  1 + uint32(rng.Intn(5)),
			MaxSeq: uint64(rng.Intn(1 << 20)),
		})
	}
	return st
}

// TestQuickCoordStateRoundTrip: Save → Load → Save is bit-identical for
// random checkpoint states — recovery reads back exactly the state the
// crashed coordinator persisted, floats and counters untouched.
func TestQuickCoordStateRoundTrip(t *testing.T) {
	property := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		st := randomCoordState(rng)
		var first bytes.Buffer
		if err := SaveCoordinatorState(&first, st); err != nil {
			t.Logf("seed %d: save: %v", seed, err)
			return false
		}
		got, err := LoadCoordinatorState(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Logf("seed %d: load: %v", seed, err)
			return false
		}
		var second bytes.Buffer
		if err := SaveCoordinatorState(&second, got); err != nil {
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

// TestQuickCoordStateTruncationIsBadFormat: every strict prefix of a
// valid checkpoint — the file a crash mid-checkpoint-write could leave if
// the tmp+rename protocol were broken — must be rejected with an
// ErrBadFormat-wrapped error, never loaded as a shorter state.
func TestQuickCoordStateTruncationIsBadFormat(t *testing.T) {
	property := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var buf bytes.Buffer
		if err := SaveCoordinatorState(&buf, randomCoordState(rng)); err != nil {
			t.Logf("seed %d: save: %v", seed, err)
			return false
		}
		cut := rng.Intn(buf.Len())
		_, err := LoadCoordinatorState(bytes.NewReader(buf.Bytes()[:cut]))
		if err == nil {
			t.Logf("seed %d: %d-byte prefix of %d accepted", seed, cut, buf.Len())
			return false
		}
		if !errors.Is(err, ErrBadFormat) {
			t.Logf("seed %d: prefix rejected with %v, want ErrBadFormat", seed, err)
			return false
		}
		return true
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickCoordStateBitFlipIsBadFormat: the whole-file CRC trailer means
// any single flipped bit — wherever it lands, including in the trailer
// itself — surfaces as ErrBadFormat rather than silently perturbing the
// recovered model.
func TestQuickCoordStateBitFlipIsBadFormat(t *testing.T) {
	property := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var buf bytes.Buffer
		if err := SaveCoordinatorState(&buf, randomCoordState(rng)); err != nil {
			t.Logf("seed %d: save: %v", seed, err)
			return false
		}
		data := append([]byte(nil), buf.Bytes()...)
		pos := rng.Intn(len(data))
		data[pos] ^= 1 << rng.Intn(8)
		_, err := LoadCoordinatorState(bytes.NewReader(data))
		if err == nil {
			t.Logf("seed %d: bit flip at byte %d of %d accepted", seed, pos, len(data))
			return false
		}
		if !errors.Is(err, ErrBadFormat) {
			t.Logf("seed %d: bit flip rejected with %v, want ErrBadFormat", seed, err)
			return false
		}
		return true
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// FuzzLoadCoordinatorState feeds arbitrary bytes to the checkpoint
// loader: it must never panic or over-allocate, every rejection must wrap
// ErrBadFormat, and accepted states must round-trip.
func FuzzLoadCoordinatorState(f *testing.F) {
	var buf bytes.Buffer
	if err := SaveCoordinatorState(&buf, randomCoordState(rand.New(rand.NewSource(1)))); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(valid)
	f.Add([]byte{})
	f.Add([]byte("CLUC"))
	f.Add(valid[:len(valid)/2])
	flipped := append([]byte(nil), valid...)
	flipped[9] ^= 0xFF
	f.Add(flipped)
	for _, d := range []int{2048, 4096} {
		_, checkpoint := cutAfterMeans(d)
		f.Add(checkpoint)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := LoadCoordinatorState(bytes.NewReader(data))
		if err != nil {
			if !errors.Is(err, ErrBadFormat) {
				t.Fatalf("corrupted input rejected with %v, want an ErrBadFormat-wrapped error", err)
			}
			return
		}
		var out bytes.Buffer
		if err := SaveCoordinatorState(&out, got); err != nil {
			t.Fatalf("accepted state failed to save: %v", err)
		}
		if _, err := LoadCoordinatorState(&out); err != nil {
			t.Fatalf("re-load failed: %v", err)
		}
	})
}

// offNormalMixture returns a mixture whose normalized weights sum to
// 1 − 2⁻⁵³ and change when divided by that sum once more: the case in
// which a loader that re-normalizes hands back a different mixture.
func offNormalMixture(t *testing.T) *gaussian.Mixture {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	comps := []*gaussian.Component{
		gaussian.Spherical(linalg.Vector{-1, 0}, 1),
		gaussian.Spherical(linalg.Vector{0, 2}, 0.5),
		gaussian.Spherical(linalg.Vector{3, 1}, 2),
	}
	for try := 0; try < 10000; try++ {
		raw := []float64{rng.Float64(), rng.Float64(), rng.Float64()}
		m := gaussian.MustMixture(raw, comps)
		var sum float64
		for _, w := range m.Weights() {
			sum += w
		}
		if sum != math.Nextafter(1, 0) {
			continue
		}
		for _, w := range m.Weights() {
			if w/sum != w {
				return m
			}
		}
	}
	t.Fatal("no weight vector summing to Nextafter(1, 0) found")
	return nil
}

// TestCoordStateKeepsOffNormalWeights: a checkpoint load must hand back
// the mixture weights bit for bit even when they sum to 1 − 2⁻⁵³, or the
// recovered coordinator is an ulp away from the one that crashed.
func TestCoordStateKeepsOffNormalWeights(t *testing.T) {
	mix := offNormalMixture(t)
	st := &CoordinatorState{Applied: 3, Snapshot: &coordinator.Snapshot{
		Dim:         2,
		NextGroupID: 2,
		Models:      []coordinator.SnapshotModel{{SiteID: 1, ModelID: 1, Counter: 1000, Mixture: mix}},
		Groups: []coordinator.SnapshotGroup{{ID: 1, Members: []coordinator.SnapshotMember{
			{Key: coordinator.MemberKey{SiteID: 1, ModelID: 1, Comp: 0}, MRemergeAtJoin: math.Inf(1)},
			{Key: coordinator.MemberKey{SiteID: 1, ModelID: 1, Comp: 1}, MRemergeAtJoin: 2},
			{Key: coordinator.MemberKey{SiteID: 1, ModelID: 1, Comp: 2}, MRemergeAtJoin: 3},
		}}},
	}}
	var first bytes.Buffer
	if err := SaveCoordinatorState(&first, st); err != nil {
		t.Fatal(err)
	}
	got, err := LoadCoordinatorState(bytes.NewReader(first.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	loaded := got.Snapshot.Models[0].Mixture
	for j := 0; j < mix.K(); j++ {
		if math.Float64bits(loaded.Weight(j)) != math.Float64bits(mix.Weight(j)) {
			t.Fatalf("weight %d: loaded %x, saved %x", j, math.Float64bits(loaded.Weight(j)), math.Float64bits(mix.Weight(j)))
		}
	}
	var second bytes.Buffer
	if err := SaveCoordinatorState(&second, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Fatal("checkpoint round trip is not byte-identical")
	}
}

// TestReadMixtureRejectsBadWeights: weights are loaded verbatim, so the
// reader itself must refuse what normalization used to refuse or repair.
func TestReadMixtureRejectsBadWeights(t *testing.T) {
	read := func(w0, w1 float64) error {
		buf := appendU32(appendU32(nil, 2), 1) // K, d
		for _, v := range []float64{w0, w1, -1, 1, 1, 1} {
			buf = appendF64(buf, v) // weights, means, variances
		}
		_, err := (&decoder{b: buf}).mixture()
		return err
	}
	if err := read(0.25, 0.75); err != nil {
		t.Fatalf("valid mixture rejected: %v", err)
	}
	for name, w := range map[string][2]float64{
		"negative":     {-0.5, 1.5},
		"NaN":          {math.NaN(), 1},
		"zero sum":     {0, 0},
		"infinite":     {math.Inf(1), 0},
		"unnormalized": {1, 1},
	} {
		if err := read(w[0], w[1]); !errors.Is(err, ErrBadFormat) {
			t.Errorf("%s weights: err = %v, want ErrBadFormat", name, err)
		}
	}
}
