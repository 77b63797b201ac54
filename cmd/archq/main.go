// Command archq queries a site archive written by `sited -archive` (or the
// persist package): the offline form of Section 7's evolving analysis.
//
// Usage:
//
//	archq -in site1.arch                    # summary: models + event table
//	archq -in site1.arch -window 5:12      # mixture covering chunks 5..12
//	archq -in site1.arch -at 7             # which model governed chunk 7
//	archq -in site1.arch -eval data.csv    # avg log-likelihood of the
//	                                       # landmark model on a CSV data set
//	                                       # (exit 2 unless its width is d)
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"cludistream/internal/persist"
	"cludistream/internal/stream"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is archq on the given arguments and streams; it returns the exit
// code: 2 for a usage error or a CSV of the wrong width, 1 for an archive
// or CSV that cannot be read.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("archq", flag.ContinueOnError)
	fs.SetOutput(stderr)
	in := fs.String("in", "", "archive file (required)")
	window := fs.String("window", "", "chunk window start:end to rebuild")
	at := fs.Int("at", 0, "report the model governing this chunk")
	eval := fs.String("eval", "", "CSV file to score under the landmark model")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	if *in == "" {
		fmt.Fprintln(stderr, "archq: -in is required")
		return 2
	}
	f, err := os.Open(*in)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	defer f.Close()
	a, err := persist.Load(f)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}

	fmt.Fprintf(stdout, "archive: site %d, d=%d, chunk size %d, %d chunks seen\n",
		a.SiteID, a.Dim, a.ChunkSize, a.ChunksSeen)
	fmt.Fprintf(stdout, "models: %d | events: %d closed spans\n", len(a.Models), a.Events.Len())
	for _, m := range a.Models {
		fmt.Fprintf(stdout, "  model %d: K=%d, %d records, ref avgLL %.4f\n",
			m.ID, m.Mixture.K(), m.Counter, m.RefAvgLL)
	}
	for _, e := range a.Events.All() {
		fmt.Fprintf(stdout, "  event %v\n", e)
	}

	if *at > 0 {
		if id, ok := a.ModelAt(*at); ok {
			fmt.Fprintf(stdout, "chunk %d was governed by model %d\n", *at, id)
		} else {
			fmt.Fprintf(stdout, "chunk %d is outside the archive's range\n", *at)
		}
	}

	if *window != "" {
		parts := strings.SplitN(*window, ":", 2)
		if len(parts) != 2 {
			fmt.Fprintln(stderr, "archq: -window wants start:end")
			return 2
		}
		start, err1 := strconv.Atoi(parts[0])
		end, err2 := strconv.Atoi(parts[1])
		if err1 != nil || err2 != nil {
			fmt.Fprintln(stderr, "archq: -window wants integer start:end")
			return 2
		}
		m := a.Mixture(start, end)
		if m == nil {
			fmt.Fprintf(stdout, "window %d:%d covers no chunks\n", start, end)
		} else {
			fmt.Fprintf(stdout, "window %d:%d mixture (K=%d):\n", start, end, m.K())
			for j := 0; j < m.K(); j++ {
				fmt.Fprintf(stdout, "  weight %.4f, mean %v\n", m.Weight(j), m.Component(j).Mean())
			}
		}
	}

	if *eval != "" {
		ef, err := os.Open(*eval)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		err = evalCSV(stdout, a, ef)
		ef.Close()
		if err != nil {
			fmt.Fprintln(stderr, err)
			if errors.Is(err, errWidth) {
				return 2
			}
			return 1
		}
	}
	return 0
}

// errWidth marks a CSV whose records do not have the archive's width.
var errWidth = errors.New("archq: -eval CSV width does not match the archive")

// evalCSV scores the CSV records read from r under the archive's landmark
// model and prints their average log-likelihood to w. The scoring kernels
// read the first Dim coordinates of a record and check no length, so a
// CSV of any other width is refused before anything is scored.
func evalCSV(w io.Writer, a *persist.SiteArchive, r io.Reader) error {
	data, err := stream.ReadCSV(r)
	if err != nil {
		return err
	}
	if len(data) > 0 && len(data[0]) != a.Dim {
		return fmt.Errorf("%w: %d columns, want d=%d", errWidth, len(data[0]), a.Dim)
	}
	lm := a.Landmark()
	if lm == nil {
		fmt.Fprintln(w, "archive has no models to evaluate")
		return nil
	}
	fmt.Fprintf(w, "landmark model avg log-likelihood on %d records: %.4f\n",
		len(data), lm.AvgLogLikelihood(data))
	return nil
}
