package coordinator

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"cludistream/internal/gaussian"
	"cludistream/internal/linalg"
	"cludistream/internal/site"
)

// TestInvariantsUnderRandomOpSequences applies random sequences of
// NewModel / WeightUpdate / Deletion operations and asserts the tree's
// structural invariants after every operation:
//
//   - every leaf's location resolves to a live group containing it;
//   - group weights equal the sum of their members' weights;
//   - total leaf weight equals Σ over live models of counter (weights are
//     conserved through merges, splits and re-merges);
//   - no empty group survives.
func TestInvariantsUnderRandomOpSequences(t *testing.T) {
	f := func(seed int64, opsRaw []uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		c, err := New(Config{Dim: 1, Merge: gaussian.MergeOptions{MomentOnly: true}})
		if err != nil {
			return false
		}
		// Exercise the indexed path early.
		c.SetIndexMinGroups(4)
		nextModel := map[int]int{} // siteID → next model id
		var models []liveModel

		ops := opsRaw
		if len(ops) > 40 {
			ops = ops[:40]
		}
		for _, op := range ops {
			switch {
			case op%4 <= 1 || len(models) == 0: // new model (50%)
				siteID := int(op%3) + 1
				nextModel[siteID]++
				k := rng.Intn(3) + 1
				comps := make([]*gaussian.Component, k)
				ws := make([]float64, k)
				for j := range comps {
					comps[j] = gaussian.Spherical(linalg.Vector{rng.NormFloat64() * 40}, 0.5+rng.Float64())
					ws[j] = rng.Float64() + 0.2
				}
				count := rng.Intn(500) + 50
				u := site.Update{
					SiteID:  siteID,
					ModelID: nextModel[siteID],
					Kind:    site.NewModel,
					Mixture: gaussian.MustMixture(ws, comps),
					Count:   count,
				}
				if err := c.HandleUpdate(u); err != nil {
					t.Logf("new model: %v", err)
					return false
				}
				models = append(models, liveModel{siteID, nextModel[siteID], count})
			case op%4 == 2: // weight update
				i := int(op) % len(models)
				add := rng.Intn(300) + 1
				u := site.Update{SiteID: models[i].siteID, ModelID: models[i].modelID, Kind: site.WeightUpdate, Count: add}
				if err := c.HandleUpdate(u); err != nil {
					t.Logf("weight update: %v", err)
					return false
				}
				models[i].counter += add
			default: // deletion
				i := int(op) % len(models)
				del := rng.Intn(models[i].counter + 100) // may kill the model
				if del == 0 {
					del = 1
				}
				if err := c.HandleDeletion(models[i].siteID, models[i].modelID, del); err != nil {
					t.Logf("deletion: %v", err)
					return false
				}
				models[i].counter -= del
				if models[i].counter <= 0 {
					models = append(models[:i], models[i+1:]...)
				}
			}
			if !invariantsHold(t, c, models) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// liveModel tracks the expected state of one registered model.
type liveModel struct{ siteID, modelID, counter int }

func invariantsHold(t *testing.T, c *Coordinator, models []liveModel) bool {
	t.Helper()
	var leafWeight float64
	leaves := 0
	for _, g := range c.Groups() {
		if g.Size() == 0 {
			t.Log("empty group survived")
			return false
		}
		var gw float64
		for _, k := range g.MemberKeys() {
			got := c.groupOf(k)
			if got == nil || got.ID() != g.ID() {
				t.Logf("leaf %v misplaced", k)
				return false
			}
			i := g.find(k)
			gw += g.members[i].weight
		}
		if math.Abs(gw-g.Weight()) > 1e-6*(1+gw) {
			t.Logf("group %d weight %v != member sum %v", g.ID(), g.Weight(), gw)
			return false
		}
		leafWeight += gw
		leaves += g.Size()
	}
	if leaves != c.NumLeaves() {
		t.Logf("leaf count %d != location map %d", leaves, c.NumLeaves())
		return false
	}
	var want float64
	for _, m := range models {
		want += float64(m.counter)
	}
	if math.Abs(leafWeight-want) > 1e-6*(1+want) {
		t.Logf("total leaf weight %v != model mass %v", leafWeight, want)
		return false
	}
	return true
}
