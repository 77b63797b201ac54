package coordinator_test

import (
	"bytes"
	"runtime"
	"testing"

	"cludistream/internal/coordinator"
	"cludistream/internal/gaussian"
	"cludistream/internal/telemetry"
)

// slidingOps scripts chunks [from, to) of the sliding shape: two sites
// alternate over a shared three-regime palette under a 12-chunk window, four
// chunks a regime. A chunk is, per site, the regime's NewModel or a
// WeightUpdate(+M), then past the horizon the Deletion(−M) of the chunk that
// left the window. Until the window is full every WeightUpdate carries a new
// count (growth); once it is full every counter is periodic (steady state).
func slidingOps(palettes [][]*gaussian.Mixture, from, to int) []memoOp {
	const regimes, perRegime, horizon = 3, 4, 12
	var ops []memoOp
	for n := from; n < to; n++ {
		for s := 1; s <= 2; s++ {
			model := 1 + (n/perRegime)%regimes
			if n < regimes*perRegime && n%perRegime == 0 { // a regime's first chunk
				ops = append(ops, memoOp{kind: 'n', siteID: s, model: model, count: memoChunk, mix: palettes[s][model-1]})
			} else {
				ops = append(ops, memoOp{kind: 'w', siteID: s, model: model, count: memoChunk})
			}
			if old := n - horizon; old >= 0 {
				ops = append(ops, memoOp{kind: 'd', siteID: s, model: 1 + (old/perRegime)%regimes, count: memoChunk})
			}
		}
	}
	return ops
}

// drainResetOps scripts removals that re-fit several groups at once: three
// sites each fit the first regime, so every cluster is a three-member group;
// site 1 sends the same mixture again as a second model (twin leaves in
// every group) and a deletion drains its first, whose leaves lead every
// fold; site 2 adds a second regime and is reset, which leaves every
// first-regime group and empties the rest.
func drainResetOps() []memoOp {
	p := [][]*gaussian.Mixture{1: sitePalette(1), 2: sitePalette(2), 3: sitePalette(3)}
	return []memoOp{
		{kind: 'n', siteID: 1, model: 1, count: memoChunk, mix: p[1][0]},
		{kind: 'n', siteID: 2, model: 1, count: memoChunk, mix: p[2][0]},
		{kind: 'n', siteID: 3, model: 1, count: memoChunk, mix: p[3][0]},
		{kind: 'n', siteID: 1, model: 2, count: 2 * memoChunk, mix: p[1][0]},
		{kind: 'w', siteID: 2, model: 1, count: memoChunk},
		{kind: 'd', siteID: 1, model: 1, count: memoChunk},
		{kind: 'n', siteID: 2, model: 2, count: memoChunk, mix: p[2][1]},
		{kind: 'w', siteID: 3, model: 1, count: memoChunk},
		{kind: 'r', siteID: 2},
		{kind: 'w', siteID: 1, model: 2, count: memoChunk},
	}
}

// TestBatchedRefitMatchesSerial replays seeded sequences on three
// coordinators: the shipped one at GOMAXPROCS ≥ 2, whose refreshGroups folds
// the groups an update touches concurrently; the same code at GOMAXPROCS 1,
// where the batch is the serial loop; and the from-scratch oracle. After
// every call the batched coordinator's checkpoint bytes and GlobalMixture
// encoding equal both others', and its memos — entries, coord.merge_fits,
// coord.merge_memo_hits — equal the serial run's. The cases cover sliding
// growth and steady state, drained models and site resets, random
// sequences, and generations of four entries, so that the group memos roll
// over inside most batches.
func TestBatchedRefitMatchesSerial(t *testing.T) {
	procs := max(2, runtime.GOMAXPROCS(0))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	palettes := [][]*gaussian.Mixture{1: sitePalette(1), 2: sitePalette(2)}
	for _, tc := range []struct {
		name       string
		ops        []memoOp
		generation int
		concurrent string // op kinds that must have fitted off the calling goroutine
	}{
		{"sliding", slidingOps(palettes, 0, 36), 0, "w"},
		{"drain-and-reset", drainResetOps(), 0, "wdr"},
		{"random", randomMemoOps(3, 90), 0, "wd"},
		{"rollover", randomMemoOps(4, 90), 4, "wd"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			batchedReg, serialReg := telemetry.NewRegistry(), telemetry.NewRegistry()
			batched, serial := newDaemonCoordinator(t, batchedReg), newDaemonCoordinator(t, serialReg)
			oracle := newDaemonCoordinator(t, nil)
			oracle.UseFromScratchFold()
			if tc.generation > 0 {
				batched.SetMemoGeneration(tc.generation)
				serial.SetMemoGeneration(tc.generation)
			}
			concurrent := map[string]int{}
			for i, op := range tc.ops {
				before := batched.ConcurrentFits()
				runtime.GOMAXPROCS(procs)
				op.apply(t, batched)
				concurrent[string(op.kind)] += batched.ConcurrentFits() - before
				runtime.GOMAXPROCS(1)
				op.apply(t, serial)
				op.apply(t, oracle)
				requireSameState(t, i, op, batched, oracle)
				requireSameState(t, i, op, batched, serial)
				if !bytes.Equal(appendGlobal(batched), appendGlobal(serial)) || !bytes.Equal(appendGlobal(batched), appendGlobal(oracle)) {
					t.Fatalf("op %d (%c): GlobalMixture encodings differ", i, op.kind)
				}
				b, s := batchedReg.Snapshot().Counters, serialReg.Snapshot().Counters
				for _, name := range []string{"coord.merge_fits", "coord.merge_memo_hits"} {
					if b[name] != s[name] {
						t.Fatalf("op %d (%c site %d model %d): %s = %d batched, %d serial", i, op.kind, op.siteID, op.model, name, b[name], s[name])
					}
				}
				if batched.MergeMemoEntries() != serial.MergeMemoEntries() {
					t.Fatalf("op %d (%c): memo holds %d entries batched, %d serial", i, op.kind, batched.MergeMemoEntries(), serial.MergeMemoEntries())
				}
			}
			if got := serial.ConcurrentFits(); got != 0 {
				t.Fatalf("the GOMAXPROCS 1 run fitted %d merges concurrently", got)
			}
			for _, kind := range tc.concurrent {
				if concurrent[string(kind)] == 0 {
					t.Errorf("no %c call fitted a merge concurrently", kind)
				}
			}
			t.Logf("concurrent fits by call kind: %v; %d fits in all", concurrent, batchedReg.Counter("coord.merge_fits").Value())
		})
	}
}

func appendGlobal(c *coordinator.Coordinator) []byte {
	if gm := c.GlobalMixture(); gm != nil {
		return gaussian.AppendMixture(nil, gm)
	}
	return nil
}
