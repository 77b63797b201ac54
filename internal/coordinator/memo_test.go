package coordinator_test

import (
	"bytes"
	"math/rand"
	"testing"

	"cludistream/internal/coordinator"
	"cludistream/internal/gaussian"
	"cludistream/internal/linalg"
	"cludistream/internal/persist"
	"cludistream/internal/site"
	"cludistream/internal/telemetry"
)

// The memo of pair merges must never show in the tree: whatever it holds,
// every representative equals the from-scratch fold of gaussian.FitMerge
// over the group's members. These tests run the daemons' configuration
// (coordinator.Config{Dim: 4}: simplex-fitted merge, no MomentOnly) and
// compare states by their checkpoint encoding, bit for bit.

const memoChunk = 256 // records per weight message, as one site chunk

// memoOp is one coordinator call of a scripted sequence.
type memoOp struct {
	kind          byte // 'n'ew model, 'w'eight update, 'd'eletion, 'r'eset site
	siteID, model int
	count         int
	mix           *gaussian.Mixture
}

func (op memoOp) apply(t *testing.T, c *coordinator.Coordinator) {
	t.Helper()
	var err error
	switch op.kind {
	case 'n':
		err = c.HandleUpdate(site.Update{SiteID: op.siteID, ModelID: op.model, Kind: site.NewModel, Mixture: op.mix, Count: op.count})
	case 'w':
		err = c.HandleUpdate(site.Update{SiteID: op.siteID, ModelID: op.model, Kind: site.WeightUpdate, Count: op.count})
	case 'd':
		err = c.HandleDeletion(op.siteID, op.model, op.count)
	case 'r':
		c.ResetSite(op.siteID)
	}
	if err != nil {
		t.Fatalf("%c site %d model %d count %d: %v", op.kind, op.siteID, op.model, op.count, err)
	}
}

// randomMemoOps scripts n valid calls from three sites that share one
// palette, so that clusters become two- and three-member groups: new models,
// weight updates, deletions down to drained models, and the odd site reset.
func randomMemoOps(seed int64, n int) []memoOp {
	rng := rand.New(rand.NewSource(seed))
	const sites = 3
	palettes := make([][]*gaussian.Mixture, sites+1)
	counters := make([]map[int]int, sites+1) // site → live model → counter
	nextModel := make([]int, sites+1)
	for s := 1; s <= sites; s++ {
		palettes[s] = sitePalette(s)
		counters[s] = map[int]int{}
	}
	// A site updates its newest model and expires from its oldest.
	newest := func(live map[int]int) int {
		id := -1
		for m := range live {
			if m > id {
				id = m
			}
		}
		return id
	}
	oldest := func(live map[int]int) int {
		id := -1
		for m := range live {
			if id < 0 || m < id {
				id = m
			}
		}
		return id
	}
	var ops []memoOp
	for len(ops) < n {
		s := 1 + rng.Intn(sites)
		live := counters[s]
		r := rng.Float64()
		switch {
		case len(live) == 0 || (r < 0.2 && len(live) < 3):
			nextModel[s]++
			id := nextModel[s]
			live[id] = memoChunk
			ops = append(ops, memoOp{kind: 'n', siteID: s, model: id, count: memoChunk, mix: palettes[s][rng.Intn(3)]})
		case r < 0.55:
			id := newest(live)
			live[id] += memoChunk
			ops = append(ops, memoOp{kind: 'w', siteID: s, model: id, count: memoChunk})
		case r < 0.97:
			id := oldest(live)
			live[id] -= memoChunk
			if live[id] == 0 { // drained: the coordinator drops the model
				delete(live, id)
			}
			ops = append(ops, memoOp{kind: 'd', siteID: s, model: id, count: memoChunk})
		default:
			counters[s] = map[int]int{}
			ops = append(ops, memoOp{kind: 'r', siteID: s})
		}
	}
	return ops
}

func newDaemonCoordinator(t *testing.T, reg *telemetry.Registry) *coordinator.Coordinator {
	t.Helper()
	c, err := coordinator.New(coordinator.Config{Dim: 4, Telemetry: reg})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// requireSameState compares two coordinators by the bytes a checkpoint
// would hold and by every bit of the mixture a query would be served.
func requireSameState(t *testing.T, step int, op memoOp, got, want *coordinator.Coordinator) {
	t.Helper()
	if !bytes.Equal(snapshotBytes(t, got), snapshotBytes(t, want)) {
		t.Fatalf("op %d (%c site %d model %d): Snapshot() differs from the oracle's", step, op.kind, op.siteID, op.model)
	}
	if !bytes.Equal(globalBytes(got), globalBytes(want)) {
		t.Fatalf("op %d (%c site %d model %d): GlobalMixture() differs from the oracle's", step, op.kind, op.siteID, op.model)
	}
}

// memoBound is the most merges c's memos may hold: two generations a group,
// of gen merges, or of max(8, 4·|g|) — the production rule — when gen is 0.
// It is at most 8·leaves + 16·groups.
func memoBound(c *coordinator.Coordinator, gen int) int {
	n := 0
	for _, g := range c.Groups() {
		if gen > 0 {
			n += 2 * gen
		} else {
			n += 2 * max(8, 4*g.Size())
		}
	}
	return n
}

// TestMemoMatchesFromScratchFold drives a memoizing coordinator and the
// from-scratch oracle through the same random sequences and compares them
// after every call — once with the production bound, once with generations
// of three entries so every group's memo rolls over all the time.
func TestMemoMatchesFromScratchFold(t *testing.T) {
	for _, tc := range []struct {
		name       string
		generation int
	}{{"production-bound", 0}, {"rollover", 3}} {
		t.Run(tc.name, func(t *testing.T) {
			var hits, fits int64
			for seed := int64(1); seed <= 2; seed++ {
				reg := telemetry.NewRegistry()
				memo := newDaemonCoordinator(t, reg)
				if tc.generation > 0 {
					memo.SetMemoGeneration(tc.generation)
				}
				oracle := newDaemonCoordinator(t, nil)
				oracle.UseFromScratchFold()
				multi := false
				for i, op := range randomMemoOps(seed, 90) {
					op.apply(t, memo)
					op.apply(t, oracle)
					requireSameState(t, i, op, memo, oracle)
					if got, bound := memo.MergeMemoEntries(), memoBound(memo, tc.generation); got > bound {
						t.Fatalf("op %d: memos hold %d entries, bound is %d", i, got, bound)
					}
					for _, g := range memo.Groups() {
						multi = multi || g.Size() > 2
					}
				}
				if !multi {
					t.Errorf("seed %d: no group ever had three members", seed)
				}
				if got := oracle.MergeMemoEntries(); got != 0 {
					t.Fatalf("the oracle remembered %d merges", got)
				}
				counters := reg.Snapshot().Counters
				hits += counters["coord.merge_memo_hits"]
				fits += counters["coord.merge_fits"]
			}
			if hits == 0 || fits == 0 {
				t.Fatalf("memo hits = %d, fits = %d: the sequences exercise only one side", hits, fits)
			}
			t.Logf("%d fits, %d memo hits", fits, hits)
		})
	}
}

// TestMemoColdEqualsWarm continues a warm coordinator and its own recovered
// copy — FromSnapshot of the decoded checkpoint, so new component pointers
// and an empty memo — on the same suffix.
func TestMemoColdEqualsWarm(t *testing.T) {
	ops := randomMemoOps(7, 120)
	warm := newDaemonCoordinator(t, nil)
	for _, op := range ops[:60] {
		op.apply(t, warm)
	}
	if warm.MergeMemoEntries() == 0 {
		t.Fatal("the prefix left the memo empty")
	}
	st, err := persist.LoadCoordinatorState(bytes.NewReader(snapshotBytes(t, warm)))
	if err != nil {
		t.Fatal(err)
	}
	cold, err := coordinator.FromSnapshot(coordinator.Config{Dim: 4}, st.Snapshot)
	if err != nil {
		t.Fatal(err)
	}
	for i, op := range ops[60:] {
		requireSameState(t, i, op, cold, warm)
		op.apply(t, warm)
		op.apply(t, cold)
	}
	requireSameState(t, len(ops), memoOp{kind: '.'}, cold, warm)
}

// TestMemoSlidingSteadyStateFitsNothing is the sliding-window claim: two
// sites alternate over a shared three-regime palette under a 12-chunk
// window, four chunks a regime, so once the window is full each chunk is a
// WeightUpdate(+M) and a Deletion(−M) and every counter is periodic. After
// the first full cycle past the horizon every pair merge has been seen.
func TestMemoSlidingSteadyStateFitsNothing(t *testing.T) {
	const regimes, perRegime, horizon = 3, 4, 12
	reg := telemetry.NewRegistry()
	c := newDaemonCoordinator(t, reg)
	palettes := [][]*gaussian.Mixture{1: sitePalette(1), 2: sitePalette(2)}
	fits, hits := reg.Counter("coord.merge_fits"), reg.Counter("coord.merge_memo_hits")
	warm := horizon + regimes*perRegime // fill the window, then one full cycle
	for _, op := range slidingOps(palettes, 0, warm) {
		op.apply(t, c)
	}
	multi := 0
	for _, g := range c.Groups() {
		if g.Size() > 1 {
			multi++
		}
	}
	if multi == 0 {
		t.Fatal("no multi-member group: nothing is merged")
	}
	warmFits, warmHits := fits.Value(), hits.Value()
	if warmFits == 0 {
		t.Fatal("no merge was fitted while the window filled")
	}
	for _, op := range slidingOps(palettes, warm, horizon+6*regimes*perRegime) {
		op.apply(t, c)
	}
	if got := fits.Value(); got != warmFits {
		t.Fatalf("%d merges were fitted in the steady state (fits %d → %d)", got-warmFits, warmFits, got)
	}
	if got := hits.Value(); got <= warmHits {
		t.Fatalf("memo hits did not grow in the steady state (%d → %d)", warmHits, got)
	}
	if got, bound := c.MergeMemoEntries(), memoBound(c, 0); got == 0 || got > bound {
		t.Fatalf("memos hold %d entries, want 1..%d", got, bound)
	}
	if got := reg.Snapshot().Gauges["coord.merge_memo_entries"]; int(got) != c.MergeMemoEntries() {
		t.Fatalf("gauge coord.merge_memo_entries = %v, MergeMemoEntries() = %d", got, c.MergeMemoEntries())
	}
}

// TestMemoKeepsGroupFoldsAcrossTree: what the rest of the tree does never
// evicts a group's folds. One model's groups are folded, its weight moves
// +M, every model of the other groups is touched — thousands of merges,
// far more than the groups hold live — and the weight moves back −M: the
// model's groups are then in a state they were folded in before, and that
// fold fits nothing. MomentOnly keeps the thousands of merges cheap.
func TestMemoKeepsGroupFoldsAcrossTree(t *testing.T) {
	const (
		d, k     = 4, 4 // dimensions, components a model
		palettes = 21   // palette 0 is model X's, with partners
		partners = 3    // models sharing palette 0 with X, never touched
		models   = 8    // models a palette from 1 on
		m        = memoChunk
	)
	reg := telemetry.NewRegistry()
	c, err := coordinator.New(coordinator.Config{Dim: d, Merge: gaussian.MergeOptions{MomentOnly: true}, Telemetry: reg})
	if err != nil {
		t.Fatal(err)
	}
	fits := reg.Counter("coord.merge_fits")
	rng := rand.New(rand.NewSource(5))
	// mixture returns a model of palette p: k far-apart unit clusters,
	// seen through a small estimation error.
	mixture := func(p int) *gaussian.Mixture {
		ws := make([]float64, k)
		comps := make([]*gaussian.Component, k)
		for j := range comps {
			mean := linalg.NewVector(d)
			for i := range mean {
				mean[i] = 0.05 * rng.NormFloat64()
			}
			mean[0] += float64(100 * (p*k + j))
			cov := linalg.NewSym(d)
			for i := 0; i < d; i++ {
				cov.Set(i, i, 1)
			}
			comps[j] = gaussian.MustComponent(mean, cov)
			ws[j] = 1 + rng.Float64()
		}
		return gaussian.MustMixture(ws, comps)
	}
	x := memoOp{kind: 'w', siteID: 1, model: 1, count: m}
	var others []memoOp // one weight update per model of palettes 1..
	for s := 1; s <= 1+partners; s++ {
		memoOp{kind: 'n', siteID: s, model: 1, count: m, mix: mixture(0)}.apply(t, c)
	}
	for p := 1; p < palettes; p++ {
		for n := 0; n < models; n++ {
			s := 100*p + n
			memoOp{kind: 'n', siteID: s, model: 1, count: m, mix: mixture(p)}.apply(t, c)
			others = append(others, memoOp{kind: 'w', siteID: s, model: 1, count: m})
		}
	}
	live := 0 // the merges the groups' current folds are made of
	for _, g := range c.Groups() {
		live += g.Size() - 1
	}
	if groups := len(c.Groups()); groups != palettes*k || live <= 512 {
		t.Fatalf("%d groups holding %d live fold merges, want %d groups and more than 512", groups, live, palettes*k)
	}
	x.apply(t, c) // +M
	before := fits.Value()
	for _, op := range others {
		op.apply(t, c)
	}
	if churn := fits.Value() - before; churn <= 512 {
		t.Fatalf("touching the other models fitted %d merges, want more than 512", churn)
	}
	before = fits.Value()
	memoOp{kind: 'd', siteID: x.siteID, model: x.model, count: m}.apply(t, c) // −M
	if got := fits.Value() - before; got != 0 {
		t.Fatalf("moving the model's weight back fitted %d merges, want 0: its groups' folds were evicted", got)
	}
	if got, bound := c.MergeMemoEntries(), memoBound(c, 0); got > bound {
		t.Fatalf("memos hold %d entries, bound is %d", got, bound)
	}
}
