package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cludistream/internal/events"
	"cludistream/internal/gaussian"
	"cludistream/internal/linalg"
	"cludistream/internal/persist"
	"cludistream/internal/site"
)

// TestEvalCSVWidth: -eval scores a CSV of the archive's width and refuses
// a wider or a narrower one with errWidth (exit 2) before scoring, at d = 2
// and at d = 4 (the register-resident kernel). A wider record used to
// score its truncated prefix, a narrower one to panic.
func TestEvalCSVWidth(t *testing.T) {
	for _, d := range []int{2, 4} {
		far := linalg.NewVector(d)
		for i := range far {
			far[i] = 2
		}
		mix := gaussian.MustMixture([]float64{1, 3}, []*gaussian.Component{
			gaussian.Spherical(linalg.NewVector(d), 1), gaussian.Spherical(far, 1),
		})
		a := &persist.SiteArchive{SiteID: 1, Dim: d, History: site.History{ChunkSize: 10, ChunksSeen: 1,
			Models: []site.Model{{ID: 1, Counter: 10, Mixture: mix}}}}
		csv := func(width int) string {
			row := strings.TrimSuffix(strings.Repeat("0.5,", width), ",") + "\n"
			return row + row
		}

		var out bytes.Buffer
		if err := evalCSV(&out, a, strings.NewReader(csv(d))); err != nil {
			t.Fatalf("d=%d, matching CSV: %v", d, err)
		}
		x := linalg.NewVector(d)
		for i := range x {
			x[i] = 0.5
		}
		want := fmt.Sprintf("landmark model avg log-likelihood on 2 records: %.4f\n",
			a.Landmark().AvgLogLikelihood([]linalg.Vector{x, x}))
		if out.String() != want {
			t.Fatalf("d=%d, matching CSV printed %q, want %q", d, out.String(), want)
		}

		for _, width := range []int{d + 1, d - 1} {
			out.Reset()
			err := evalCSV(&out, a, strings.NewReader(csv(width)))
			if !errors.Is(err, errWidth) {
				t.Fatalf("d=%d, %d-column CSV: err = %v, want errWidth", d, width, err)
			}
			if out.Len() != 0 {
				t.Fatalf("d=%d, %d-column CSV printed %q before refusing", d, width, out.String())
			}
		}
	}
}

// TestInconsistentArchiveRefused: archq refuses, with exit 1 and the
// loader's ErrBadFormat, an archive whose d = 4 model sits under a d = 2
// header (which used to load, pass -eval's width check with a 2-column CSV
// and panic in the scoring kernel) and one whose span runs past the chunks
// seen (which used to load and answer -at from that span).
func TestInconsistentArchiveRefused(t *testing.T) {
	dir := t.TempDir()
	write := func(name, content string) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	archive := func(name string, header, d, chunksSeen int, spans ...events.Entry) string {
		mix := gaussian.MustMixture([]float64{1}, []*gaussian.Component{gaussian.Spherical(linalg.NewVector(d), 1)})
		a := &persist.SiteArchive{SiteID: 1, Dim: header, History: site.History{ChunkSize: 10, ChunksSeen: chunksSeen,
			Models: []site.Model{{ID: 1, Counter: 10, Mixture: mix}}}}
		for _, e := range spans {
			if err := a.Events.Append(e); err != nil {
				t.Fatal(err)
			}
		}
		var buf bytes.Buffer
		if err := persist.Save(&buf, a); err != nil {
			t.Fatal(err)
		}
		return write(name, buf.String())
	}
	csv := write("x.csv", "0.5,0.5\n0.5,0.5\n")
	for _, args := range [][]string{
		{"-in", archive("wide.arch", 2, 4, 3), "-eval", csv},
		{"-in", archive("past.arch", 2, 2, 3, events.Entry{ModelID: 1, StartChunk: 1, EndChunk: 9}), "-at", "2"},
	} {
		var stdout, stderr bytes.Buffer
		code := run(args, &stdout, &stderr)
		if code != 1 || !strings.Contains(stderr.String(), persist.ErrBadFormat.Error()) || stdout.Len() != 0 {
			t.Errorf("archq %v: exit %d, stdout %q, stderr %q; want exit 1 with ErrBadFormat and no output",
				args, code, stdout.String(), stderr.String())
		}
	}
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-in", archive("ok.arch", 2, 2, 3), "-eval", csv}, &stdout, &stderr); code != 0 {
		t.Fatalf("consistent archive: exit %d, stderr %q", code, stderr.String())
	}
}
