package coordinator_test

import (
	"bytes"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"

	"cludistream/internal/coordinator"
	"cludistream/internal/gaussian"
	"cludistream/internal/linalg"
	"cludistream/internal/persist"
	"cludistream/internal/site"
)

// The rest of this package's tests (and durable's, netio's, tree's) build
// their coordinators with MergeOptions{MomentOnly: true}. This one runs
// the merge the daemons run — coordinator.Config{Dim: 4}, simplex-fitted
// L1 merge — over a scripted two-site sequence and pins the resulting
// state, so that a change to the merge kernel that moves any bit of any
// fitted representative shows here.

// Golden fingerprints of daemonScript's end state, recorded before the
// merge kernel drew its sample panel once per FitMerge.
const (
	goldenDaemonSnapshot = 0xf84df8c727ac5b3c // FNV-64a of the checkpoint encoding of Snapshot()
	goldenDaemonGlobal   = 0x7b15f17b1bcb0653 // FNV-64a of GlobalMixture()'s weights, means, covariances
)

// sitePalette returns one site's fit of a 3-regime palette shared by both
// sites: the same three 4-d clusters per regime, each seen through the
// site's own small estimation error, so that every cluster becomes a
// two-member group at the coordinator.
func sitePalette(siteID int) []*gaussian.Mixture {
	const d, k, regimes = 4, 3, 3
	truth := rand.New(rand.NewSource(1))                   // the palette, same for both sites
	noise := rand.New(rand.NewSource(int64(100 + siteID))) // the site's estimation error
	out := make([]*gaussian.Mixture, regimes)
	for r := range out {
		ws := make([]float64, k)
		comps := make([]*gaussian.Component, k)
		for j := range comps {
			mean := linalg.NewVector(d)
			for i := range mean {
				mean[i] = 20*truth.Float64() - 10 + 0.05*noise.NormFloat64()
			}
			cov := linalg.NewSym(d)
			for n := 0; n < d+2; n++ {
				v := linalg.NewVector(d)
				for i := range v {
					v[i] = 0.5 * truth.NormFloat64()
				}
				cov.AddOuterScaled(1, v)
			}
			scale := 1 + 0.05*noise.NormFloat64()
			for a := 0; a < d; a++ {
				for b := 0; b <= a; b++ {
					cov.Set(a, b, scale*cov.At(a, b))
				}
				cov.Add(a, a, 0.2)
			}
			comps[j] = gaussian.MustComponent(mean, cov)
			ws[j] = 1 + truth.Float64() + 0.05*noise.Float64()
		}
		out[r] = gaussian.MustMixture(ws, comps)
	}
	return out
}

// daemonScript drives c through new models, weight updates and deletions
// down to drained models, the way two sliding-window sites would.
func daemonScript(t *testing.T, c *coordinator.Coordinator) {
	t.Helper()
	p1, p2 := sitePalette(1), sitePalette(2)
	newModel := func(siteID, modelID int, m *gaussian.Mixture, count int) {
		t.Helper()
		if err := c.HandleUpdate(site.Update{SiteID: siteID, ModelID: modelID, Kind: site.NewModel, Mixture: m, Count: count}); err != nil {
			t.Fatal(err)
		}
	}
	weight := func(siteID, modelID, count int) {
		t.Helper()
		if err := c.HandleUpdate(site.Update{SiteID: siteID, ModelID: modelID, Kind: site.WeightUpdate, Count: count}); err != nil {
			t.Fatal(err)
		}
	}
	deletion := func(siteID, modelID, count int) {
		t.Helper()
		if err := c.HandleDeletion(siteID, modelID, count); err != nil {
			t.Fatal(err)
		}
	}
	newModel(1, 1, p1[0], 256)
	newModel(2, 1, p2[0], 256)
	weight(1, 1, 256)
	weight(2, 1, 512)
	newModel(1, 2, p1[1], 256)
	weight(1, 1, 256)
	newModel(2, 2, p2[1], 256)
	weight(2, 2, 768)
	deletion(1, 1, 256)
	newModel(2, 3, p2[2], 256)
	newModel(1, 3, p1[2], 256)
	deletion(1, 1, 256)
	weight(1, 3, 1024)
	deletion(2, 1, 512)
	deletion(1, 1, 256) // site 1's model 1 is drained and leaves the tree
	weight(2, 3, 256)
	deletion(2, 1, 256) // and site 2's
	deletion(1, 2, 128)
}

func fnv64(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}

func snapshotBytes(t *testing.T, c *coordinator.Coordinator) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := persist.SaveCoordinatorState(&buf, &persist.CoordinatorState{Snapshot: c.Snapshot()}); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func globalBytes(c *coordinator.Coordinator) []byte {
	var buf bytes.Buffer
	put := func(v float64) {
		bits := math.Float64bits(v)
		for i := 0; i < 8; i++ {
			buf.WriteByte(byte(bits >> (8 * i)))
		}
	}
	gm := c.GlobalMixture()
	if gm == nil {
		return nil
	}
	for j := 0; j < gm.K(); j++ {
		put(gm.Weight(j))
		for _, v := range gm.Component(j).Mean() {
			put(v)
		}
		for _, v := range gm.Component(j).Cov().Packed() {
			put(v)
		}
	}
	return buf.Bytes()
}

func TestDaemonConfigGoldenFingerprint(t *testing.T) {
	c, err := coordinator.New(coordinator.Config{Dim: 4})
	if err != nil {
		t.Fatal(err)
	}
	daemonScript(t, c)
	if got := c.NumModels(); got != 4 {
		t.Fatalf("models = %d, want 4 after two drained", got)
	}
	multi := 0
	for _, g := range c.Groups() {
		if g.Size() > 1 {
			multi++
		}
	}
	if multi == 0 {
		t.Fatal("no multi-member group: the script never ran a merge")
	}
	if got := fnv64(snapshotBytes(t, c)); got != goldenDaemonSnapshot {
		t.Errorf("Snapshot() fingerprint = %#x, golden %#x", got, uint64(goldenDaemonSnapshot))
	}
	if got := fnv64(globalBytes(c)); got != goldenDaemonGlobal {
		t.Errorf("GlobalMixture() fingerprint = %#x, golden %#x", got, uint64(goldenDaemonGlobal))
	}

	// The fingerprints pin the simplex path only if it fitted something the
	// moment merge would not have.
	m, err := coordinator.New(coordinator.Config{Dim: 4, Merge: gaussian.MergeOptions{MomentOnly: true}})
	if err != nil {
		t.Fatal(err)
	}
	daemonScript(t, m)
	if bytes.Equal(globalBytes(m), globalBytes(c)) {
		t.Fatal("simplex-fitted representatives equal the moment merges")
	}
}
