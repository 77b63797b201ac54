// Command experiments regenerates the paper's figures as text tables.
//
// Usage:
//
//	experiments -list
//	experiments [-profile quick|paper] [-seed N] [-cold]
//	            [-telemetry text|json|FILE [-trace]]
//	            [-cpuprofile out.pprof] [-memprofile out.pprof] [name ...]
//
// With no names, the whole suite runs in paper order. Each experiment
// prints its table (series + notes comparing the measured shape with the
// paper's claim) to stdout. -cold refits every model from a cold k-means++
// start (the warm-start A/B baseline). The -cpuprofile/-memprofile flags
// write pprof profiles covering the selected experiments, so kernel
// regressions in the hot scoring/E-step paths can be diagnosed with
// `go tool pprof`.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"time"

	"cludistream/internal/experiments"
	"cludistream/internal/site"
	"cludistream/internal/telemetry"
)

func main() {
	profile := flag.String("profile", "quick", "parameter profile: quick or paper")
	seed := flag.Int64("seed", 1, "global random seed")
	list := flag.Bool("list", false, "list experiment names and exit")
	cold := flag.Bool("cold", false, "disable warm-start refit seeding (A/B baseline: every EM refit uses cold k-means++ init)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write an allocation profile to this file on exit")
	telemetryOut := flag.String("telemetry", "", `end-of-run telemetry dump: "text", "json", or a file path (.json gets JSON)`)
	trace := flag.Bool("trace", false, "with -telemetry: trace every chunk ingest→global-visibility (freshness-SLO histograms ride the simulated clock)")
	flag.Parse()

	if *list {
		for _, r := range experiments.Suite() {
			fmt.Println(r.Name)
		}
		return
	}

	var p experiments.Params
	switch *profile {
	case "quick":
		p = experiments.Quick()
	case "paper":
		p = experiments.Paper()
	default:
		fmt.Fprintf(os.Stderr, "unknown profile %q (want quick or paper)\n", *profile)
		os.Exit(2)
	}
	p.Seed = *seed
	if *cold {
		p.WarmStart = site.WarmStartCold
	}
	var reg *telemetry.Registry
	if *telemetryOut != "" {
		reg = telemetry.NewRegistry()
		if *trace {
			reg.EnableTracing(telemetry.TraceOptions{})
		}
		p.Telemetry = reg
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC() // materialize the final live set
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
			}
		}()
	}

	runners := experiments.Suite()
	if names := flag.Args(); len(names) > 0 {
		runners = runners[:0]
		for _, name := range names {
			r := experiments.Find(name)
			if r == nil {
				fmt.Fprintf(os.Stderr, "unknown experiment %q; try -list\n", name)
				os.Exit(2)
			}
			runners = append(runners, *r)
		}
	}

	for _, r := range runners {
		start := time.Now()
		tb, err := r.Run(p)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", r.Name, err)
			os.Exit(1)
		}
		fmt.Print(tb.Render())
		fmt.Printf("# [%s completed in %v]\n\n", r.Name, time.Since(start).Round(time.Millisecond))
	}

	if reg != nil {
		if err := dumpTelemetry(reg, *telemetryOut); err != nil {
			fmt.Fprintf(os.Stderr, "telemetry: %v\n", err)
			os.Exit(1)
		}
	}
}

// dumpTelemetry writes the suite-wide registry snapshot. dest "text" prints
// a human-readable table to stdout, "json" prints JSON to stdout, and any
// other value is a file path (JSON when it ends in .json, text otherwise).
func dumpTelemetry(reg *telemetry.Registry, dest string) error {
	snap := reg.Snapshot()
	asJSON := dest == "json" || strings.HasSuffix(dest, ".json")
	var buf bytes.Buffer
	if asJSON {
		enc := json.NewEncoder(&buf)
		enc.SetIndent("", "  ")
		if err := enc.Encode(snap); err != nil {
			return err
		}
	} else {
		fmt.Fprintf(&buf, "# telemetry (%d counters, %d histograms, %d journal events)\n",
			len(snap.Counters), len(snap.Histograms), snap.Journal.Len)
		for _, name := range reg.CounterNames() {
			fmt.Fprintf(&buf, "%-28s %d\n", name, snap.Counters[name])
		}
		hists := make([]string, 0, len(snap.Histograms))
		for name := range snap.Histograms {
			hists = append(hists, name)
		}
		sort.Strings(hists)
		for _, name := range hists {
			h := snap.Histograms[name]
			fmt.Fprintf(&buf, "%-28s count=%d sum=%.4g\n", name, h.Count, h.Sum)
		}
	}
	if dest == "text" || dest == "json" {
		_, err := os.Stdout.Write(buf.Bytes())
		return err
	}
	if err := os.WriteFile(dest, buf.Bytes(), 0o644); err != nil {
		return err
	}
	fmt.Printf("# telemetry written to %s\n", dest)
	return nil
}
