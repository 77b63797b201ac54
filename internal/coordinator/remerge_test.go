package coordinator

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"cludistream/internal/gaussian"
	"cludistream/internal/linalg"
	"cludistream/internal/site"
	"cludistream/internal/telemetry"
)

// applyRandomOps drives every coordinator in cs through one identical,
// seed-deterministic stream of NewModel / WeightUpdate / Deletion /
// ResetSite operations and returns how many operations were applied.
// Component means have the first coordinator's dimensionality. idBase
// offsets the model ids so consecutive calls against the same coordinator
// never collide. afterOp, when non-nil, runs after every operation.
func applyRandomOps(t *testing.T, seed int64, idBase, n int, afterOp func(), cs ...*Coordinator) int {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	dim := cs[0].cfg.Dim
	nextModel := map[int]int{}
	var models []liveModel
	for op := 0; op < n; op++ {
		roll := rng.Intn(10)
		switch {
		case roll <= 4 || len(models) == 0: // new model (50%)
			siteID := rng.Intn(4) + 1
			nextModel[siteID]++
			k := rng.Intn(3) + 1
			comps := make([]*gaussian.Component, k)
			ws := make([]float64, k)
			for j := range comps {
				mean := make(linalg.Vector, dim)
				for d := range mean {
					mean[d] = rng.NormFloat64() * 30
				}
				comps[j] = gaussian.Spherical(mean, 0.5+rng.Float64())
				ws[j] = rng.Float64() + 0.2
			}
			count := rng.Intn(500) + 50
			u := site.Update{
				SiteID:  siteID,
				ModelID: idBase + nextModel[siteID],
				Kind:    site.NewModel,
				Mixture: gaussian.MustMixture(ws, comps),
				Count:   count,
			}
			for _, c := range cs {
				if err := c.HandleUpdate(u); err != nil {
					t.Fatalf("new model: %v", err)
				}
			}
			models = append(models, liveModel{siteID, idBase + nextModel[siteID], count})
		case roll <= 6: // weight update
			i := rng.Intn(len(models))
			add := rng.Intn(400) + 1
			u := site.Update{SiteID: models[i].siteID, ModelID: models[i].modelID, Kind: site.WeightUpdate, Count: add}
			for _, c := range cs {
				if err := c.HandleUpdate(u); err != nil {
					t.Fatalf("weight update: %v", err)
				}
			}
			models[i].counter += add
		case roll <= 8: // deletion (may drain the model)
			i := rng.Intn(len(models))
			del := rng.Intn(models[i].counter+100) + 1
			for _, c := range cs {
				if err := c.HandleDeletion(models[i].siteID, models[i].modelID, del); err != nil {
					t.Fatalf("deletion: %v", err)
				}
			}
			models[i].counter -= del
			if models[i].counter <= 0 {
				models = append(models[:i], models[i+1:]...)
			}
		default: // site reset
			siteID := rng.Intn(4) + 1
			for _, c := range cs {
				c.ResetSite(siteID)
			}
			// nextModel keeps counting up per site so ids never repeat.
			kept := models[:0]
			for _, m := range models {
				if m.siteID != siteID {
					kept = append(kept, m)
				}
			}
			models = kept
		}
		if afterOp != nil {
			afterOp()
		}
	}
	return n
}

// remergeConfig is the 1-d moment-merge coordinator the remerge tests run.
func remergeConfig() Config {
	return Config{Dim: 1, Merge: gaussian.MergeOptions{MomentOnly: true}}
}

// newRemergeCoord builds a coordinator for the remerge tests that places
// through the k-d index from 4 groups on, so small trees exercise it too.
func newRemergeCoord(t *testing.T, cfg Config) *Coordinator {
	t.Helper()
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c.SetIndexMinGroups(4)
	return c
}

// TestIncrementalRemergeMatchesExact is the dirty-tracking soundness proof
// in test form: the dirty-group sweep must reach exactly the state the
// every-group sweep (UseFullSweep) reaches — same tree, same split/remerge
// counts, same global mixture, same model weights — over random op
// sequences, while provably skipping work (the clean-group telemetry
// counter is nonzero). Most seeds run the 1-d moment merge; a few run 2-d
// records and the daemons' simplex-fitted merge.
func TestIncrementalRemergeMatchesExact(t *testing.T) {
	type arm struct {
		dim    int
		merge  gaussian.MergeOptions
		seeds  int
		seed0  int64
		ops    int
		detail string
	}
	moment := gaussian.MergeOptions{MomentOnly: true}
	arms := []arm{
		{dim: 1, merge: moment, seeds: 40, seed0: 1, ops: 200, detail: "1-d moment"},
		{dim: 2, merge: moment, seeds: 4, seed0: 101, ops: 200, detail: "2-d moment"},
		{dim: 1, merge: gaussian.MergeOptions{}, seeds: 3, seed0: 201, ops: 200, detail: "1-d daemon merge"},
		{dim: 2, merge: gaussian.MergeOptions{}, seeds: 2, seed0: 301, ops: 200, detail: "2-d daemon merge"},
	}
	if testing.Short() {
		for i := range arms {
			arms[i].seeds = (arms[i].seeds + 4) / 5
			arms[i].ops = 60
		}
	}
	var cleanSkipped int64
	for _, a := range arms {
		for seed := a.seed0; seed < a.seed0+int64(a.seeds); seed++ {
			t.Run(fmt.Sprintf("%s/seed=%d", a.detail, seed), func(t *testing.T) {
				cfg := Config{Dim: a.dim, Merge: a.merge}
				regOn := telemetry.NewRegistry()
				cfgOn := cfg
				cfgOn.Telemetry = regOn
				on := newRemergeCoord(t, cfgOn)
				exact := newRemergeCoord(t, cfg)
				exact.UseFullSweep()
				applyRandomOps(t, seed, 0, a.ops, nil, on, exact)
				if got, want := on.Snapshot(), exact.Snapshot(); !reflect.DeepEqual(got, want) {
					t.Fatalf("incremental snapshot diverged from exact\n on:    %+v\n exact: %+v", got, want)
				}
				if got, want := on.Stats(), exact.Stats(); got != want {
					t.Fatalf("stats diverged: %+v vs %+v", got, want)
				}
				if got, want := on.ModelWeights(), exact.ModelWeights(); !reflect.DeepEqual(got, want) {
					t.Fatalf("model weights diverged: %v vs %v", got, want)
				}
				cleanSkipped += regOn.Snapshot().Counters["coord.remerge_clean_groups"]
			})
		}
	}
	if cleanSkipped == 0 {
		t.Fatal("incremental sweep never skipped a clean group — parity test is not exercising the fast path")
	}
}

// TestRemergeExactSweepsEveryGroup pins the telemetry meaning of the two
// sweep counters: the every-group sweep never skips, so its clean-group
// counter stays zero while the dirty counter advances.
func TestRemergeExactSweepsEveryGroup(t *testing.T) {
	reg := telemetry.NewRegistry()
	cfg := remergeConfig()
	cfg.Telemetry = reg
	c := newRemergeCoord(t, cfg)
	c.UseFullSweep()
	applyRandomOps(t, 11, 0, 40, nil, c)
	counters := reg.Snapshot().Counters
	if counters["coord.remerge_dirty_groups"] == 0 {
		t.Fatal("exact mode swept no groups")
	}
	if got := counters["coord.remerge_clean_groups"]; got != 0 {
		t.Fatalf("exact mode skipped %d groups as clean; want 0", got)
	}
}

// TestRemergeAuditFindsNoDrift audits the whole tree after every update and
// asserts the audit never catches the dirty tracking leaving an unstable
// member behind in a clean group.
func TestRemergeAuditFindsNoDrift(t *testing.T) {
	c := newRemergeCoord(t, remergeConfig())
	audit := func() {
		if got := c.AuditStability(); got != 0 {
			t.Fatalf("audit found %d unstable members in clean groups; dirty tracking is unsound", got)
		}
	}
	for seed := int64(20); seed < 24; seed++ {
		applyRandomOps(t, seed, int(seed)*1000, 50, audit, c)
	}
}

// TestRemergeRestoreStaysInParity replays updates past a snapshot boundary:
// the restored coordinator (which conservatively marks every group dirty)
// must apply a future op stream to exactly the state the original reaches.
func TestRemergeRestoreStaysInParity(t *testing.T) {
	orig := newRemergeCoord(t, remergeConfig())
	applyRandomOps(t, 31, 0, 40, nil, orig)
	restored, err := FromSnapshot(remergeConfig(), orig.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	restored.SetIndexMinGroups(4)
	applyRandomOps(t, 32, 1000, 30, nil, orig, restored)
	if got, want := restored.Snapshot(), orig.Snapshot(); !reflect.DeepEqual(got, want) {
		t.Fatalf("restored coordinator diverged after snapshot\n restored: %+v\n original: %+v", got, want)
	}
}
