package experiments

import (
	"fmt"
	"os"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// figure is one rendered experiment table as cells of text: the golden
// compares these strings, because the rendered column widths move with the
// timing cells.
type figure struct {
	name  string // the Suite name; the golden file carries it on its "completed in" line
	title string
	cols  []string
	rows  [][]string
	notes []string
}

var (
	headerSep     = regexp.MustCompile(`\s{2,}`)
	completedLine = regexp.MustCompile(`^# \[(\S+) completed in .*\]$`)
)

// parseFigures splits cmd/experiments' output into its tables.
func parseFigures(s string) []figure {
	var figs []figure
	for _, line := range strings.Split(s, "\n") {
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "== ") && strings.HasSuffix(line, " ==") {
			figs = append(figs, figure{title: strings.TrimSuffix(strings.TrimPrefix(line, "== "), " ==")})
			continue
		}
		if len(figs) == 0 {
			continue
		}
		f := &figs[len(figs)-1]
		switch {
		case completedLine.MatchString(line):
			f.name = completedLine.FindStringSubmatch(line)[1]
		case strings.HasPrefix(line, "# "):
			f.notes = append(f.notes, strings.TrimPrefix(line, "# "))
		case f.cols == nil:
			f.cols = headerSep.Split(strings.TrimSpace(line), -1)
		default:
			f.rows = append(f.rows, strings.Fields(line))
		}
	}
	return figs
}

// untimedNotes drops the notes that quote a wall-clock rate.
func untimedNotes(notes []string) []string {
	var out []string
	for _, n := range notes {
		if !TimingNote(n) {
			out = append(out, n)
		}
	}
	return out
}

// diffFigure lists every non-timing cell and note of got that differs
// from want.
func diffFigure(got, want figure) []string {
	var d []string
	at := func(format string, args ...any) {
		d = append(d, fmt.Sprintf("%s: ", want.name)+fmt.Sprintf(format, args...))
	}
	if got.name != want.name || got.title != want.title {
		at("experiment %s %q, want %s %q", got.name, got.title, want.name, want.title)
		return d
	}
	if !slices.Equal(got.cols, want.cols) {
		at("columns %q, want %q", got.cols, want.cols)
		return d
	}
	if len(got.rows) != len(want.rows) {
		at("%d rows, want %d", len(got.rows), len(want.rows))
	}
	for i := range min(len(got.rows), len(want.rows)) {
		for j, col := range want.cols {
			if TimingColumn(col) {
				continue
			}
			g, w := cell(got.rows[i], j), cell(want.rows[i], j)
			if g != w {
				at("row %d %q = %s, want %s", i+1, col, g, w)
			}
		}
	}
	gn, wn := untimedNotes(got.notes), untimedNotes(want.notes)
	for i := range max(len(gn), len(wn)) {
		g, w := cell(gn, i), cell(wn, i)
		if g != w {
			at("note %d %q, want %q", i+1, g, w)
		}
	}
	return d
}

// cell returns row[j], or "(missing)" past the row's end.
func cell(row []string, j int) string {
	if j < len(row) {
		return row[j]
	}
	return "(missing)"
}

// quickTables holds each Suite entry's table at Quick(), run once per test
// binary: the figure golden and the shape tests in experiments_test.go
// read the same run, so a `go test` pays for the quick suite once.
var quickTables = map[string]*Table{}

// quick returns the named Suite entry's quick-profile table, running it on
// first use.
func quick(t *testing.T, name string) *Table {
	t.Helper()
	if tb, ok := quickTables[name]; ok {
		return tb
	}
	r := Find(name)
	if r == nil {
		t.Fatalf("no experiment %q", name)
	}
	tb, err := r.Run(Quick())
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	quickTables[name] = tb
	return tb
}

// TestFiguresMatchQuickGolden compares the quick-profile suite, as
// `go run ./cmd/experiments -profile quick` prints it, with the committed
// results_quick.txt: every cell and note that is not a wall-clock
// measurement (TimingColumn, TimingNote, the "completed in" lines). A
// change that moves a figure regenerates that file, and its diff is the
// change's figure impact.
func TestFiguresMatchQuickGolden(t *testing.T) {
	raw, err := os.ReadFile("../../results_quick.txt")
	if err != nil {
		t.Fatal(err)
	}
	want := parseFigures(string(raw))

	var got []figure
	for _, r := range Suite() {
		f := parseFigures(quick(t, r.Name).Render())[0]
		f.name = r.Name
		got = append(got, f)
	}

	var diffs []string
	if len(got) != len(want) {
		diffs = append(diffs, fmt.Sprintf("%d experiments, want %d", len(got), len(want)))
	}
	for i := range min(len(got), len(want)) {
		diffs = append(diffs, diffFigure(got[i], want[i])...)
	}
	if len(diffs) > 0 {
		t.Errorf("results_quick.txt differs in %d figure cells or notes:\n  %s\n"+
			"if the change is meant to move them, regenerate the file with\n"+
			"  go run ./cmd/experiments -profile quick > results_quick.txt\n"+
			"and review its diff", len(diffs), strings.Join(diffs, "\n  "))
	}
}
