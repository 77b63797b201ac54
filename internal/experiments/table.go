// Package experiments regenerates every figure of the paper's evaluation
// (Section 6). Each FigN function runs the corresponding experiment and
// returns a Table whose rows are the series the paper plots; cmd/experiments
// renders them as text, and TestFiguresMatchQuickGolden holds every cell
// and note that is not a wall-clock measurement to the committed
// results_quick.txt.
//
// Absolute numbers differ from the paper (different hardware, simulated
// NFD data), but each Table's Notes records the shape the paper claims so
// EXPERIMENTS.md can compare like for like.
package experiments

import (
	"fmt"
	"strings"
)

// Table is one reproduced figure: labelled columns, float rows, and the
// paper's claim for the shape.
type Table struct {
	// Title names the figure, e.g. "Figure 2(a): communication cost (NFD)".
	Title string
	// Columns labels each value in a row.
	Columns []string
	// Rows holds the series, one row per x-axis point.
	Rows [][]float64
	// Notes records the paper-claimed shape and any measured summary.
	Notes []string
}

// TimingColumn reports whether a column named name holds a wall-clock
// measurement: "sec", "… sec" or "speedup". Its cells move from run to
// run; every other cell is a function of Params alone.
func TimingColumn(name string) bool {
	return name == "sec" || strings.HasSuffix(name, " sec") || name == "speedup"
}

// TimingNote reports whether a note quotes a wall-clock rate ("… upd/s").
func TimingNote(note string) bool { return strings.Contains(note, "upd/s") }

// AddRow appends a row; it panics on column-count mismatch (figure
// generators are trusted code — a mismatch is a bug, not input error).
func (t *Table) AddRow(vals ...float64) {
	if len(vals) != len(t.Columns) {
		panic(fmt.Sprintf("experiments: row of %d values for %d columns in %q", len(vals), len(t.Columns), t.Title))
	}
	t.Rows = append(t.Rows, vals)
}

// AddNote appends a formatted note line.
func (t *Table) AddNote(format string, args ...any) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// Render formats the table as aligned text.
func (t *Table) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s ==\n", t.Title)
	widths := make([]int, len(t.Columns))
	cells := make([][]string, len(t.Rows))
	for j, c := range t.Columns {
		widths[j] = len(c)
	}
	for i, row := range t.Rows {
		cells[i] = make([]string, len(row))
		for j, v := range row {
			s := formatCell(v)
			cells[i][j] = s
			if len(s) > widths[j] {
				widths[j] = len(s)
			}
		}
	}
	for j, c := range t.Columns {
		if j > 0 {
			b.WriteString("  ")
		}
		fmt.Fprintf(&b, "%*s", widths[j], c)
	}
	b.WriteByte('\n')
	for _, row := range cells {
		for j, s := range row {
			if j > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%*s", widths[j], s)
		}
		b.WriteByte('\n')
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "# %s\n", n)
	}
	return b.String()
}

// formatCell renders integers without decimals and floats compactly.
func formatCell(v float64) string {
	if v == float64(int64(v)) && v < 1e15 && v > -1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%.4g", v)
}
