package coordinator

import (
	"math"
	"testing"

	"cludistream/internal/gaussian"
	"cludistream/internal/linalg"
	"cludistream/internal/site"
)

// MemberKeys returns the member keys in deterministic order.
func (g *Group) MemberKeys() []MemberKey {
	out := make([]MemberKey, len(g.members))
	for i, m := range g.members {
		out[i] = m.key
	}
	return out
}

// mix1d builds a 1-d mixture from (mean, weight) pairs with unit variance.
func mix1d(means ...float64) *gaussian.Mixture {
	comps := make([]*gaussian.Component, len(means))
	ws := make([]float64, len(means))
	for i, m := range means {
		comps[i] = gaussian.Spherical(linalg.Vector{m}, 1)
		ws[i] = 1
	}
	return gaussian.MustMixture(ws, comps)
}

func newModelUpdate(siteID, modelID int, m *gaussian.Mixture, count int) site.Update {
	return site.Update{SiteID: siteID, ModelID: modelID, Kind: site.NewModel, Mixture: m, Count: count}
}

func mustNew(t *testing.T) *Coordinator {
	t.Helper()
	c, err := New(Config{Dim: 1, Merge: gaussian.MergeOptions{MomentOnly: true}})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{Dim: 0}); err == nil {
		t.Fatal("Dim=0 accepted")
	}
}

func TestSingleModelPlacement(t *testing.T) {
	c := mustNew(t)
	if err := c.HandleUpdate(newModelUpdate(1, 1, mix1d(-5, 5), 100)); err != nil {
		t.Fatal(err)
	}
	// Components at ±5 (unit variance) are far apart: two groups.
	if got := len(c.Groups()); got != 2 {
		t.Fatalf("groups = %d, want 2", got)
	}
	if c.NumLeaves() != 2 {
		t.Fatalf("leaves = %d", c.NumLeaves())
	}
	gm := c.GlobalMixture()
	if gm == nil || gm.K() != 2 {
		t.Fatalf("global mixture = %v", gm)
	}
}

func TestCrossSiteMergeSharedClusters(t *testing.T) {
	// Two sites observe the same two clusters: the coordinator must merge
	// matching components rather than keep 4 groups.
	c := mustNew(t)
	if err := c.HandleUpdate(newModelUpdate(1, 1, mix1d(-5, 5), 100)); err != nil {
		t.Fatal(err)
	}
	if err := c.HandleUpdate(newModelUpdate(2, 1, mix1d(-5.1, 5.1), 100)); err != nil {
		t.Fatal(err)
	}
	if got := len(c.Groups()); got != 2 {
		t.Fatalf("groups = %d, want 2 after cross-site merge", got)
	}
	for _, g := range c.Groups() {
		if g.Size() != 2 {
			t.Fatalf("group %d has %d members, want 2", g.ID(), g.Size())
		}
		// Representative mean near ±5.
		mu := g.Representative().Mean()[0]
		if math.Abs(math.Abs(mu)-5.05) > 0.2 {
			t.Fatalf("representative mean = %v", mu)
		}
	}
}

func TestDistinctSiteDistributionsStaySeparate(t *testing.T) {
	// The paper explicitly allows different distributions per site (unlike
	// DEM): distinct clusters must not be merged.
	c := mustNew(t)
	_ = c.HandleUpdate(newModelUpdate(1, 1, mix1d(0), 100))
	_ = c.HandleUpdate(newModelUpdate(2, 1, mix1d(100), 100))
	if got := len(c.Groups()); got != 2 {
		t.Fatalf("groups = %d, want 2 for disjoint sites", got)
	}
}

func TestWeightUpdateShiftsMass(t *testing.T) {
	c := mustNew(t)
	_ = c.HandleUpdate(newModelUpdate(1, 1, mix1d(-5, 5), 100))
	before := c.GlobalMixture().Weights()
	if err := c.HandleUpdate(site.Update{SiteID: 1, ModelID: 1, Kind: site.WeightUpdate, Count: 300}); err != nil {
		t.Fatal(err)
	}
	// Equal components scale equally: normalized weights unchanged, but
	// total group mass must quadruple.
	var total float64
	for _, g := range c.Groups() {
		total += g.Weight()
	}
	if math.Abs(total-400) > 1e-9 {
		t.Fatalf("total mass = %v, want 400", total)
	}
	after := c.GlobalMixture().Weights()
	for i := range before {
		if math.Abs(before[i]-after[i]) > 1e-9 {
			t.Fatalf("normalized weights changed: %v -> %v", before, after)
		}
	}
}

func TestWeightUpdateUnknownModel(t *testing.T) {
	c := mustNew(t)
	if err := c.HandleUpdate(site.Update{SiteID: 9, ModelID: 9, Kind: site.WeightUpdate, Count: 10}); err == nil {
		t.Fatal("unknown model accepted")
	}
}

func TestDuplicateModelRejected(t *testing.T) {
	c := mustNew(t)
	_ = c.HandleUpdate(newModelUpdate(1, 1, mix1d(0), 100))
	if err := c.HandleUpdate(newModelUpdate(1, 1, mix1d(1), 100)); err == nil {
		t.Fatal("duplicate model accepted")
	}
}

func TestNewModelValidation(t *testing.T) {
	c := mustNew(t)
	u := newModelUpdate(1, 1, nil, 100)
	if err := c.HandleUpdate(u); err == nil {
		t.Fatal("nil mixture accepted")
	}
	m2d := gaussian.MustMixture([]float64{1}, []*gaussian.Component{gaussian.Spherical(linalg.Vector{0, 0}, 1)})
	if err := c.HandleUpdate(newModelUpdate(1, 2, m2d, 100)); err == nil {
		t.Fatal("wrong-dim mixture accepted")
	}
}

func TestDeletionRemovesExpiredModel(t *testing.T) {
	c := mustNew(t)
	_ = c.HandleUpdate(newModelUpdate(1, 1, mix1d(-5, 5), 100))
	_ = c.HandleUpdate(newModelUpdate(1, 2, mix1d(-5, 5), 100))
	if c.NumModels() != 2 {
		t.Fatalf("models = %d", c.NumModels())
	}
	if err := c.HandleDeletion(1, 1, 100); err != nil {
		t.Fatal(err)
	}
	if c.NumModels() != 1 {
		t.Fatalf("models after deletion = %d", c.NumModels())
	}
	if c.NumLeaves() != 2 {
		t.Fatalf("leaves after deletion = %d, want 2", c.NumLeaves())
	}
	// Partial deletion just reduces mass.
	if err := c.HandleDeletion(1, 2, 40); err != nil {
		t.Fatal(err)
	}
	var total float64
	for _, g := range c.Groups() {
		total += g.Weight()
	}
	if math.Abs(total-60) > 1e-9 {
		t.Fatalf("mass after partial deletion = %v, want 60", total)
	}
	if err := c.HandleDeletion(1, 99, 1); err == nil {
		t.Fatal("deletion for unknown model accepted")
	}
}

func TestSplitOnDrift(t *testing.T) {
	// Site 2's model is replaced by one far from the group it joined;
	// Algorithm 2 must split the stale member's replacement... modelled
	// here directly: join close, then weight-shift triggers the check with
	// a representative that moved.
	c := mustNew(t)
	// Two nearby components from different sites merge into one group.
	_ = c.HandleUpdate(newModelUpdate(1, 1, mix1d(0), 100))
	_ = c.HandleUpdate(newModelUpdate(2, 1, mix1d(1.0), 100))
	if len(c.Groups()) != 1 {
		t.Fatalf("setup: groups = %d, want 1", len(c.Groups()))
	}
	// A heavy third component drags the representative far away; the next
	// Algorithm-2 check on site 1's model must split it out.
	_ = c.HandleUpdate(newModelUpdate(3, 1, mix1d(2.0), 5000))
	splitsBefore := c.Stats().Splits
	_ = c.HandleUpdate(site.Update{SiteID: 1, ModelID: 1, Kind: site.WeightUpdate, Count: 1})
	if c.Stats().Splits <= splitsBefore {
		t.Log("no split triggered; acceptable if representative stayed close")
	}
	// Whatever happened, invariants must hold: every leaf located, groups
	// non-empty, global mixture valid.
	checkInvariants(t, c)
}

func TestGlobalMixtureQuality(t *testing.T) {
	// The merged model should explain data from all sites' clusters.
	c := mustNew(t)
	_ = c.HandleUpdate(newModelUpdate(1, 1, mix1d(-10, 0), 100))
	_ = c.HandleUpdate(newModelUpdate(2, 1, mix1d(0.5, 10), 100))
	gm := c.GlobalMixture()
	eval := []linalg.Vector{{-10}, {0}, {0.5}, {10}}
	if ll := gm.AvgLogLikelihood(eval); ll < -4 {
		t.Fatalf("global mixture LL = %v", ll)
	}
	// Flat mixture has every leaf.
	if c.FlatMixture().K() != 4 {
		t.Fatalf("flat K = %d", c.FlatMixture().K())
	}
	// Merged tree is no larger than the flat union.
	if gm.K() > 4 {
		t.Fatalf("global K = %d > flat", gm.K())
	}
}

func TestEmptyCoordinator(t *testing.T) {
	c := mustNew(t)
	if c.GlobalMixture() != nil || c.FlatMixture() != nil {
		t.Fatal("empty coordinator returned a mixture")
	}
	if c.NumLeaves() != 0 || c.NumModels() != 0 || c.MemoryBytes() != 0 {
		t.Fatal("empty coordinator has state")
	}
}

func TestMemoryBytesScalesWithLeaves(t *testing.T) {
	c := mustNew(t)
	_ = c.HandleUpdate(newModelUpdate(1, 1, mix1d(-5, 5), 100))
	m1 := c.MemoryBytes()
	_ = c.HandleUpdate(newModelUpdate(2, 1, mix1d(-50, 50), 100))
	m2 := c.MemoryBytes()
	if m2 <= m1 {
		t.Fatalf("memory did not grow: %d -> %d", m1, m2)
	}
}

func TestManySitesScalableGroups(t *testing.T) {
	// 20 sites, same two clusters: group count must stay 2 (not 40) — the
	// scalability argument of Section 5.2 against the naive union.
	c := mustNew(t)
	for s := 1; s <= 20; s++ {
		if err := c.HandleUpdate(newModelUpdate(s, 1, mix1d(-5, 5), 100)); err != nil {
			t.Fatal(err)
		}
	}
	if got := len(c.Groups()); got != 2 {
		t.Fatalf("groups = %d, want 2 with 20 identical sites", got)
	}
	if c.NumLeaves() != 40 {
		t.Fatalf("leaves = %d, want 40", c.NumLeaves())
	}
	checkInvariants(t, c)
}

func TestDeterministicAcrossRuns(t *testing.T) {
	run := func() []float64 {
		c := mustNew(t)
		_ = c.HandleUpdate(newModelUpdate(1, 1, mix1d(-5, 0, 5), 100))
		_ = c.HandleUpdate(newModelUpdate(2, 1, mix1d(-4.8, 0.3, 9), 50))
		var out []float64
		for _, g := range c.Groups() {
			out = append(out, g.Representative().Mean()[0], g.Weight())
		}
		return out
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatal("different group structure")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("non-deterministic: %v vs %v", a, b)
		}
	}
}

func TestIndexedPlacementMatchesExhaustive(t *testing.T) {
	// Well above the index threshold: the k-d accelerated coordinator must
	// build the same group structure as the exhaustive one.
	build := func(exhaustive bool) *Coordinator {
		c, err := New(Config{Dim: 1, Merge: gaussian.MergeOptions{MomentOnly: true}})
		if err != nil {
			t.Fatal(err)
		}
		c.SetIndexMinGroups(8)
		if exhaustive {
			c.UseExhaustivePlacement()
		}
		// 60 well-separated cluster centers across 3 sites: 20 per site.
		for s := 1; s <= 3; s++ {
			var means []float64
			for k := 0; k < 20; k++ {
				means = append(means, float64(k)*25) // same centers per site
			}
			if err := c.HandleUpdate(newModelUpdate(s, 1, mix1d(means...), 100)); err != nil {
				t.Fatal(err)
			}
		}
		return c
	}
	fast := build(false)
	slow := build(true)
	if len(fast.Groups()) != len(slow.Groups()) {
		t.Fatalf("group counts differ: indexed %d vs exhaustive %d", len(fast.Groups()), len(slow.Groups()))
	}
	if len(fast.Groups()) != 20 {
		t.Fatalf("groups = %d, want 20 (one per shared center)", len(fast.Groups()))
	}
	for i, g := range fast.Groups() {
		sg := slow.Groups()[i]
		if g.Size() != sg.Size() {
			t.Fatalf("group %d sizes differ: %d vs %d", i, g.Size(), sg.Size())
		}
		if g.Representative().Mean()[0] != sg.Representative().Mean()[0] {
			t.Fatalf("group %d means differ", i)
		}
	}
	checkInvariants(t, fast)
}

func TestIndexSurvivesDeletion(t *testing.T) {
	c, err := New(Config{Dim: 1, Merge: gaussian.MergeOptions{MomentOnly: true}})
	if err != nil {
		t.Fatal(err)
	}
	c.SetIndexMinGroups(2)
	for m := 1; m <= 10; m++ {
		if err := c.HandleUpdate(newModelUpdate(1, m, mix1d(float64(m)*30), 100)); err != nil {
			t.Fatal(err)
		}
	}
	for m := 1; m <= 9; m++ {
		if err := c.HandleDeletion(1, m, 100); err != nil {
			t.Fatal(err)
		}
	}
	if got := len(c.Groups()); got != 1 {
		t.Fatalf("groups after deletions = %d", got)
	}
	// New placements must still work against the shrunken index.
	if err := c.HandleUpdate(newModelUpdate(2, 1, mix1d(300), 50)); err != nil {
		t.Fatal(err)
	}
	checkInvariants(t, c)
}

func BenchmarkPlacementIndexedVsExhaustive(b *testing.B) {
	run := func(b *testing.B, exhaustive bool) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			c, err := New(Config{Dim: 1, Merge: gaussian.MergeOptions{MomentOnly: true}})
			if err != nil {
				b.Fatal(err)
			}
			if exhaustive {
				c.UseExhaustivePlacement()
			}
			b.StartTimer()
			// 500 well-separated models → 500 groups; each placement scans
			// (or indexes into) everything before it.
			for m := 1; m <= 500; m++ {
				if err := c.HandleUpdate(newModelUpdate(1, m, mix1d(float64(m)*30), 10)); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	b.Run("indexed", func(b *testing.B) { run(b, false) })
	b.Run("exhaustive", func(b *testing.B) { run(b, true) })
}

// checkInvariants asserts structural consistency of the tree.
func checkInvariants(t *testing.T, c *Coordinator) {
	t.Helper()
	leaves := 0
	for _, g := range c.Groups() {
		if g.Size() == 0 {
			t.Fatal("empty group survived compaction")
		}
		if g.Representative() == nil {
			t.Fatalf("group %d has no representative", g.ID())
		}
		var w float64
		for _, k := range g.MemberKeys() {
			if got := c.groupOf(k); got == nil || got.ID() != g.ID() {
				t.Fatalf("leaf %v location mismatch", k)
			}
		}
		leaves += g.Size()
		_ = w
	}
	if leaves != c.NumLeaves() {
		t.Fatalf("leaf count mismatch: %d vs %d", leaves, c.NumLeaves())
	}
}
