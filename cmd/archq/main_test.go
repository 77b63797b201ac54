package main

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"

	"cludistream/internal/gaussian"
	"cludistream/internal/linalg"
	"cludistream/internal/persist"
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
		a := &persist.SiteArchive{SiteID: 1, Dim: d, ChunkSize: 10, ChunksSeen: 1,
			Models: []persist.ArchivedModel{{ID: 1, Counter: 10, Mixture: mix}}}
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
			a.LandmarkMixture().AvgLogLikelihood([]linalg.Vector{x, x}))
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
