// Command dst drives the deterministic simulation testing harness
// (internal/dst): seeded whole-system scenarios with fault injection, a
// per-update invariant suite, replayable failures, and a greedy scenario
// minimizer. Flat stars and multi-layer trees are the same kind of
// scenario; -tree only picks the generator.
//
// Usage:
//
//	dst run -seeds 150                 # flat stars, seeds 1..150 (short scenarios)
//	dst run -seeds 500 -long           # nightly: bigger deployments
//	dst run -tree -seeds 150           # trees: 100+ sites behind aggregators
//	dst replay -seed 42 [-tree]        # re-run one seed twice, prove bit-identical
//	dst replay -scenario dst-fail-seed42.json
//	dst shrink -scenario dst-fail-seed42.json -o min.json
//
// A violating sweep writes a self-contained artifact for its lowest
// failing seed (dst-fail-seed<N>.json: core, scenario, journal) and exits
// 1; replay and shrink load that file, and shrink writes the minimized
// run's artifact in the same format. Pass the sweep's -inject-dedupe-bug
// again when replaying a self-test failure. replay exits 2 if two runs of
// the same input ever diverge — that would mean the harness itself lost
// determinism.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"cludistream/internal/dst"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	switch os.Args[1] {
	case "run":
		cmdRun(os.Args[2:])
	case "replay":
		cmdReplay(os.Args[2:])
	case "shrink":
		cmdShrink(os.Args[2:])
	default:
		usage()
		os.Exit(2)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: dst <run|replay|shrink> [flags]")
}

// generator picks the scenario generator -tree selects.
func generator(tree bool) func(int64, bool) dst.Scenario {
	if tree {
		return dst.GenerateTree
	}
	return dst.Generate
}

// cmdRun sweeps a seed range across the CPUs and reports the lowest
// failing seed, with a written artifact.
func cmdRun(args []string) {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	seeds := fs.Int("seeds", 100, "number of seeds to run")
	start := fs.Int64("start", 1, "first seed")
	long := fs.Bool("long", false, "long mode: larger deployments and drift programs")
	tree := fs.Bool("tree", false, "generate random multi-layer trees instead of flat stars")
	inject := fs.Bool("inject-dedupe-bug", false, "deliberately break every node's dedupe (harness self-test)")
	dir := fs.String("artifact-dir", ".", "directory for failure artifacts")
	verbose := fs.Bool("v", false, "print each seed's summary")
	fs.Parse(args)

	gen, opts := generator(*tree), dst.Options{InjectDedupeFault: *inject}
	t0 := time.Now()
	results := sweep(*seeds, *start, func(seed int64) (*dst.Result, error) {
		return dst.Run(gen(seed, !*long), opts)
	}, *verbose)
	var failed []int64
	for _, res := range results {
		if res.Violation != nil {
			failed = append(failed, res.Scenario.Seed)
		}
	}
	if len(failed) == 0 {
		fmt.Printf("dst: %d seeds green in %.1fs\n", *seeds, time.Since(t0).Seconds())
		return
	}
	res := results[failed[0]-*start]
	path := filepath.Join(*dir, fmt.Sprintf("dst-fail-seed%d.json", failed[0]))
	if err := writeArtifact(path, res); err != nil {
		fmt.Fprintf(os.Stderr, "dst: writing artifact: %v\n", err)
	}
	replay := "dst replay -scenario " + path
	if *inject {
		replay += " -inject-dedupe-bug"
	}
	fmt.Fprintf(os.Stderr, "dst: seed %d FAILED: %v\n  artifact: %s\n  replay:   %s\n", failed[0], res.Violation, path, replay)
	if len(failed) > 1 {
		fmt.Fprintf(os.Stderr, "dst: %d seeds failed in all: %v\n", len(failed), failed)
	}
	os.Exit(1)
}

// sweep runs seeds start..start+n-1 on every CPU — each seed is an
// independent pure function, so the fan-out changes nothing about the
// results — and returns them in seed order, printing each seed's summary
// in seed order as the prefix completes. A seed whose scenario cannot run
// ends the process.
func sweep(n int, start int64, run func(int64) (*dst.Result, error), verbose bool) []*dst.Result {
	type outcome struct {
		i   int
		res *dst.Result
		err error
	}
	jobs := make(chan int)
	done := make(chan outcome)
	var wg sync.WaitGroup
	for w := 0; w < runtime.NumCPU(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				res, err := run(start + int64(i))
				done <- outcome{i, res, err}
			}
		}()
	}
	go func() {
		for i := 0; i < n; i++ {
			jobs <- i
		}
		close(jobs)
		wg.Wait()
		close(done)
	}()
	results := make([]*dst.Result, n)
	next := 0
	for o := range done {
		if o.err != nil {
			fmt.Fprintf(os.Stderr, "dst: seed %d: %v\n", start+int64(o.i), o.err)
			os.Exit(1)
		}
		results[o.i] = o.res
		for ; next < n && results[next] != nil; next++ {
			if r := results[next]; verbose {
				sc := r.Scenario
				fmt.Printf("seed %-6d sites=%-4d aggs=%-3d dim=%d updates=%-5d dup=%-4d retries=%-5d restarts=%d t=%.1fs fp=%016x\n",
					sc.Seed, len(sc.Sites), len(sc.Topology.Aggs), sc.Dim, r.Updates, r.Delivery.DupDelivered, r.Delivery.Retries, r.Recovery.Restarts, r.SimTime, r.Fingerprint)
			}
		}
	}
	return results
}

// cmdReplay runs one seed (or artifact file) twice and proves the two
// runs are bit-identical, printing the deterministic core.
func cmdReplay(args []string) {
	fs := flag.NewFlagSet("replay", flag.ExitOnError)
	seed := fs.Int64("seed", 0, "seed to replay (generates the scenario)")
	path := fs.String("scenario", "", "artifact file to replay instead of a seed")
	long := fs.Bool("long", false, "long mode (must match the run that failed)")
	tree := fs.Bool("tree", false, "generate a tree scenario from -seed")
	inject := fs.Bool("inject-dedupe-bug", false, "deliberately break every node's dedupe")
	fs.Parse(args)

	sc, err := loadScenario(*path, *seed, generator(*tree), *long)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dst:", err)
		os.Exit(2)
	}
	opts := dst.Options{InjectDedupeFault: *inject}
	var cores [2][]byte
	var last *dst.Result
	for i := range cores {
		res, err := dst.Run(sc, opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "dst: replay %d: %v\n", i+1, err)
			os.Exit(2)
		}
		cores[i], _ = json.Marshal(res.Core())
		last = res
	}
	if string(cores[0]) != string(cores[1]) {
		fmt.Fprintf(os.Stderr, "dst: NON-DETERMINISTIC: replays diverged\nfirst:  %s\nsecond: %s\n", cores[0], cores[1])
		os.Exit(2)
	}
	fmt.Printf("replay bit-identical across 2 runs:\n%s\n", cores[0])
	if last.Violation != nil {
		os.Exit(1)
	}
}

// cmdShrink minimizes a failing scenario and writes the minimized run's
// artifact.
func cmdShrink(args []string) {
	fs := flag.NewFlagSet("shrink", flag.ExitOnError)
	seed := fs.Int64("seed", 0, "seed to shrink (generates a flat scenario)")
	path := fs.String("scenario", "", "artifact file to shrink (either shape)")
	long := fs.Bool("long", false, "long mode")
	inject := fs.Bool("inject-dedupe-bug", false, "deliberately break every node's dedupe")
	out := fs.String("o", "dst-min.json", "output path for the minimized run's artifact")
	fs.Parse(args)

	sc, err := loadScenario(*path, *seed, dst.Generate, *long)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dst:", err)
		os.Exit(2)
	}
	opts := dst.Options{InjectDedupeFault: *inject}
	min, runs := dst.Shrink(sc, opts)
	res, err := dst.Run(min, opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dst:", err)
		os.Exit(2)
	}
	if res.Violation == nil {
		fmt.Fprintln(os.Stderr, "dst: input scenario does not fail; nothing to shrink")
		os.Exit(1)
	}
	if err := writeArtifact(*out, res); err != nil {
		fmt.Fprintln(os.Stderr, "dst:", err)
		os.Exit(2)
	}
	fmt.Printf("shrunk after %d runs: %d sites, %d aggregators, %d outages, %d crashes, drop=%.2f dup=%.2f — still fails with: %v\nwrote %s\n",
		runs, len(min.Sites), len(min.Topology.Aggs), len(min.Outages), len(min.Crashes), min.DropProb, min.DupProb, res.Violation, *out)
}

// loadScenario resolves the -scenario/-seed flags: an artifact file as
// run or shrink wrote it, or a scenario generated from the seed.
func loadScenario(path string, seed int64, gen func(int64, bool) dst.Scenario, long bool) (dst.Scenario, error) {
	switch {
	case path != "":
		f, err := os.Open(path)
		if err != nil {
			return dst.Scenario{}, err
		}
		defer f.Close()
		a, err := dst.ReadArtifact(f)
		if err != nil {
			return dst.Scenario{}, err
		}
		return a.Scenario, nil
	case seed != 0:
		return gen(seed, !long), nil
	default:
		return dst.Scenario{}, fmt.Errorf("need -seed or -scenario")
	}
}

func writeArtifact(path string, res *dst.Result) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return dst.WriteArtifact(f, res.ToArtifact())
}
