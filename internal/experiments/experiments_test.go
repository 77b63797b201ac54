package experiments

import (
	"strings"
	"testing"
)

// Col returns column j as a slice.
func (t *Table) Col(j int) []float64 {
	out := make([]float64, len(t.Rows))
	for i, r := range t.Rows {
		out[i] = r[j]
	}
	return out
}

// The experiment tests assert the *shape* each paper figure claims on the
// quick-profile tables that TestFiguresMatchQuickGolden also holds cell by
// cell (quick, golden_test.go) — they are the repository's executable
// statement that the reproduction reproduces.

func TestFig1MMergeTracksJMerge(t *testing.T) {
	for _, name := range []string{"fig1-nfd", "fig1-synth"} {
		tb := quick(t, name)
		if len(tb.Rows) != 28 {
			t.Fatalf("%s: %d pairs, want 28", name, len(tb.Rows))
		}
		// The correlation note must report strong agreement.
		assertNoteValueAtLeast(t, tb, "Spearman rank correlation", 0.5)
	}
}

func TestFig2aCluDistreamCheaperThanSEM(t *testing.T) {
	tb := quick(t, "fig2a")
	last := tb.Rows[len(tb.Rows)-1]
	clud, semB := last[1], last[2]
	if clud <= 0 || semB <= 0 {
		t.Fatalf("degenerate byte counts: %v", last)
	}
	if clud >= semB {
		t.Fatalf("CluDistream bytes %v not below SEM %v", clud, semB)
	}
	// Cumulative series must be non-decreasing.
	for j := 1; j <= 2; j++ {
		col := tb.Col(j)
		for i := 1; i < len(col); i++ {
			if col[i] < col[i-1] {
				t.Fatalf("column %d not monotone: %v", j, col)
			}
		}
	}
}

func TestFig2bPdOrdering(t *testing.T) {
	tb := quick(t, "fig2b")
	last := tb.Rows[len(tb.Rows)-1]
	pd01, pd05, semB := last[1], last[3], last[4]
	// Higher P_d costs at least as much, and everything stays below SEM.
	if pd05 < pd01 {
		t.Fatalf("P_d=0.5 cost %v below P_d=0.1 cost %v", pd05, pd01)
	}
	for _, v := range last[1:4] {
		if v >= semB {
			t.Fatalf("CluDistream cost %v not below SEM %v", v, semB)
		}
	}
}

func TestFig3HistogramsDiffer(t *testing.T) {
	tb := quick(t, "fig3")
	// Each time point's histogram must hold the full horizon mass.
	p := Quick()
	for j := 1; j <= 3; j++ {
		var total float64
		for _, v := range tb.Col(j) {
			total += v
		}
		if int(total) != p.RegimeLen {
			t.Fatalf("t%d histogram mass = %v, want %d", j, total, p.RegimeLen)
		}
	}
	// The three histograms must differ pairwise (evolving stream).
	diff := func(a, b []float64) float64 {
		var s float64
		for i := range a {
			s += abs(a[i] - b[i])
		}
		return s
	}
	if diff(tb.Col(1), tb.Col(2)) < 100 || diff(tb.Col(2), tb.Col(3)) < 100 {
		t.Fatal("histograms at different time points are too similar")
	}
}

func TestFig4ModelsTrackRegimesAndSurviveNoise(t *testing.T) {
	tb := quick(t, "fig4")
	// Densities integrate to ~1 over the grid (Δx=0.5).
	for j := 1; j <= 4; j++ {
		var integral float64
		for _, v := range tb.Col(j) {
			integral += v * 0.5
		}
		if integral < 0.8 || integral > 1.1 {
			t.Fatalf("column %d integrates to %v", j, integral)
		}
	}
	// Noisy t3 must resemble clean t3: compare density curves.
	clean, noisy := tb.Col(3), tb.Col(4)
	var l1 float64
	for i := range clean {
		l1 += abs(clean[i]-noisy[i]) * 0.5
	}
	if l1 > 0.5 {
		t.Fatalf("noise changed the model too much: L1 = %v", l1)
	}
}

func TestFig5CluDistreamBeatsSEMInHorizon(t *testing.T) {
	tb := quick(t, "fig5")
	if gap := meanGap(tb, 1, 2); gap <= 0 {
		t.Fatalf("CluDistream mean horizon quality gap = %v, want > 0", gap)
	}
}

func TestFig6LandmarkOrdering(t *testing.T) {
	tb := quick(t, "fig6")
	if gap := meanGap(tb, 1, 3); gap <= 0 {
		t.Fatalf("CluDistream does not beat sampling-EM: gap = %v", gap)
	}
}

func TestFig7CoordinatorQuality(t *testing.T) {
	tb := quick(t, "fig7b")
	if len(tb.Rows) == 0 {
		t.Fatal("no rows")
	}
	// The paper's claim: CluDistream beats even a centralized SEM on the
	// recent horizon.
	if gap := meanGap(tb, 1, 2); gap <= 0 {
		t.Fatalf("coordinator does not beat centralized SEM: gap = %v", gap)
	}
}

func TestFig8CluDistreamFasterThanSEM(t *testing.T) {
	tb := quick(t, "fig8b")
	last := tb.Rows[len(tb.Rows)-1]
	if last[1] >= last[2] {
		t.Fatalf("CluDistream %vs not faster than SEM %vs", last[1], last[2])
	}
}

func TestFig9Shapes(t *testing.T) {
	if ta := quick(t, "fig9a"); len(ta.Rows) != 4 {
		t.Fatalf("fig9a rows = %d", len(ta.Rows))
	}
	tbl := quick(t, "fig9b")
	// Time must grow with d overall (first to last).
	if tbl.Rows[3][1] <= tbl.Rows[0][1] {
		t.Fatalf("time did not grow with d: %v", tbl.Col(1))
	}
}

func TestFig10MemoryShapes(t *testing.T) {
	tb := quick(t, "fig10a")
	col := tb.Col(1)
	// CluDistream memory must grow far slower than linearly: final/initial
	// well below the updates ratio.
	if col[len(col)-1] > col[0]*float64(len(col)) {
		t.Fatalf("memory grew superlinearly: %v", col)
	}
	tb2 := quick(t, "fig10b")
	// Linear in K: check exact ratios for d=10 column.
	c := tb2.Col(1)
	if c[1] != 2*c[0] || c[3] != 4*c[0] {
		t.Fatalf("memory not linear in K: %v", c)
	}
	// Slope grows with d.
	r0 := tb2.Rows[0]
	if !(r0[1] < r0[2] && r0[2] < r0[3] && r0[3] < r0[4]) {
		t.Fatalf("slope not increasing in d: %v", r0)
	}
}

func TestFig11EpsilonTradeoffs(t *testing.T) {
	tb := quick(t, "fig11")
	if len(tb.Rows) != 6 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	// Quality at the loosest ε must not exceed quality at the tightest by
	// much (paper: it degrades); allow noise but catch inversions.
	first, last := tb.Rows[0][1], tb.Rows[len(tb.Rows)-1][1]
	if last > first+0.5 {
		t.Fatalf("quality improved with looser ε: %v -> %v", first, last)
	}
}

func TestFig12DeltaTimeMonotoneish(t *testing.T) {
	tb := quick(t, "fig12")
	// Larger δ → smaller chunks → paper says time decreases; wall-clock is
	// noisy, so compare the extremes with slack.
	t0, tN := tb.Rows[0][3], tb.Rows[len(tb.Rows)-1][3]
	if tN > t0*2 {
		t.Fatalf("time grew strongly with δ: %v -> %v", t0, tN)
	}
}

func TestFig13CmaxSweetSpot(t *testing.T) {
	tb := quick(t, "fig13")
	if len(tb.Rows) != 7 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	// EM runs at c_max=4 (all regimes testable) must be far below c_max=1.
	em1, em4 := tb.Rows[0][2], tb.Rows[3][2]
	if em4 >= em1 {
		t.Fatalf("multi-test saved no EM runs: c_max=1→%v, c_max=4→%v", em1, em4)
	}
	// Tests performed grow with c_max.
	if tb.Rows[6][3] < tb.Rows[0][3] {
		t.Fatalf("tests did not grow with c_max: %v", tb.Col(3))
	}
}

func TestFig14PdCost(t *testing.T) {
	tb := quick(t, "fig14")
	// EM runs must increase with P_d, dramatically by P_d=1.
	emRuns := tb.Col(2)
	if emRuns[len(emRuns)-1] < 2*emRuns[0] {
		t.Fatalf("EM runs did not escalate with P_d: %v", emRuns)
	}
}

func TestAblations(t *testing.T) {
	tac := quick(t, "ablation-test-and-cluster")
	// At P_d=0.1, test-and-cluster must be meaningfully faster.
	if speed := tac.Rows[0][3]; speed < 1.2 {
		t.Fatalf("test-and-cluster speedup = %v at P_d=0.1", speed)
	}

	amf := quick(t, "ablation-merge-fit")
	moment, simplex, naive := amf.Rows[0][0], amf.Rows[0][1], amf.Rows[0][2]
	// Evaluation uses an independent Monte-Carlo stream, so allow a sliver
	// of noise — but the simplex must not genuinely lose.
	if simplex > moment+0.005 {
		t.Fatalf("simplex fit (%v) lost to moment merge (%v)", simplex, moment)
	}
	if naive < moment {
		t.Fatalf("naive floor (%v) beat moment merge (%v)?", naive, moment)
	}

	act := quick(t, "ablation-cov-type")
	if act.Rows[0][3] >= act.Rows[0][2] {
		t.Fatalf("diagonal storage not smaller: %v", act.Rows[0])
	}

	ast := quick(t, "ablation-sharp-test")
	if len(ast.Rows) != 2 {
		t.Fatal("sharp-test ablation incomplete")
	}

	amt := quick(t, "ablation-merge-tree")
	if amt.Rows[0][0] > amt.Rows[0][1] {
		t.Fatalf("merged K %v exceeds flat K %v", amt.Rows[0][0], amt.Rows[0][1])
	}

	avd := quick(t, "ablation-vs-dem")
	cludBytes, demBytes := avd.Rows[0][0], avd.Rows[0][1]
	if cludBytes >= demBytes {
		t.Fatalf("CluDistream bytes %v not below DEM %v on a stationary stream", cludBytes, demBytes)
	}
	// Quality should be in the same ballpark — DEM has the statistical
	// advantage (shared-distribution assumption holds exactly here), so
	// only require CluDistream within 1.5 nats.
	if gap := avd.Rows[0][2] - avd.Rows[0][3]; gap < -1.5 {
		t.Fatalf("CluDistream quality collapsed vs DEM: gap %v", gap)
	}

	ai := quick(t, "ablation-incomplete")
	clean, ten, thirty := ai.Rows[0][1], ai.Rows[1][1], ai.Rows[2][1]
	// Graceful degradation: 30% missing costs at most 1 nat vs clean, and
	// the ordering never inverts badly.
	if thirty < clean-1.0 {
		t.Fatalf("missing data collapsed quality: clean %v vs 30%% %v", clean, thirty)
	}
	if ten < thirty-0.3 {
		t.Fatalf("10%% missing (%v) much worse than 30%% (%v)?", ten, thirty)
	}
}

func TestAblationSnapshots(t *testing.T) {
	tb := quick(t, "ablation-snapshots")
	if len(tb.Rows) != 4 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	eventEntries, eventAcc := tb.Rows[0][1], tb.Rows[0][2]
	// The event-driven historian must be (near-)perfect.
	if eventAcc < 0.9 {
		t.Fatalf("event-driven accuracy = %v", eventAcc)
	}
	for _, row := range tb.Rows[1:] {
		s, entries, acc := row[0], row[1], row[2]
		switch s {
		case 1:
			// Snapshot-every-chunk: as accurate but redundant storage.
			if acc < eventAcc-0.1 {
				t.Fatalf("S=1 accuracy %v below event-driven %v", acc, eventAcc)
			}
			if entries <= eventEntries {
				t.Fatalf("S=1 stored %v entries, should exceed event-driven %v", entries, eventEntries)
			}
		case 4:
			// Sparse snapshots miss the one-chunk burst.
			if acc >= eventAcc {
				t.Fatalf("S=4 accuracy %v should trail event-driven %v", acc, eventAcc)
			}
		}
	}
}

func TestAblationHierarchy(t *testing.T) {
	tb := quick(t, "ablation-hierarchy")
	flatSteady, treeSteady := tb.Rows[0][2], tb.Rows[1][2]
	// The §7 claim is about steady state: the tree's root link must be at
	// least as quiet as the flat star's (ideally silent).
	if treeSteady > flatSteady {
		t.Fatalf("tree root link (%v B) louder than flat (%v B) at steady state", treeSteady, flatSteady)
	}
}

func TestSuiteComplete(t *testing.T) {
	s := Suite()
	if len(s) != 29 {
		t.Fatalf("suite has %d runners", len(s))
	}
	names := map[string]bool{}
	for _, r := range s {
		if names[r.Name] {
			t.Fatalf("duplicate runner %q", r.Name)
		}
		names[r.Name] = true
		if r.Run == nil {
			t.Fatalf("runner %q has no Run", r.Name)
		}
	}
	if Find("fig2a") == nil || Find("nope") != nil {
		t.Fatal("Find broken")
	}
}

func TestTableRender(t *testing.T) {
	tb := &Table{Title: "T", Columns: []string{"a", "bb"}}
	tb.AddRow(1, 2.5)
	tb.AddNote("note %d", 7)
	out := tb.Render()
	for _, want := range []string{"== T ==", "a", "bb", "2.5", "# note 7"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}

func TestTableAddRowPanics(t *testing.T) {
	tb := &Table{Title: "T", Columns: []string{"a"}}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	tb.AddRow(1, 2)
}

// assertNoteValueAtLeast parses "... = X" from the note containing key and
// asserts X ≥ min.
func assertNoteValueAtLeast(t *testing.T, tb *Table, key string, min float64) {
	t.Helper()
	for _, n := range tb.Notes {
		if strings.Contains(n, key) {
			var v float64
			idx := strings.LastIndex(n, "= ")
			if idx < 0 {
				t.Fatalf("note %q has no value", n)
			}
			if _, err := fmtSscan(n[idx+2:], &v); err != nil {
				t.Fatalf("unparseable note %q: %v", n, err)
			}
			if v < min {
				t.Fatalf("%s = %v, want ≥ %v", key, v, min)
			}
			return
		}
	}
	t.Fatalf("no note mentioning %q in %v", key, tb.Notes)
}
