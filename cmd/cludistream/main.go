// Command cludistream runs a full simulated deployment: r remote sites
// consuming streams (synthetic or NFD-like, or a CSV on stdin distributed
// round-robin), one coordinator, and a report of the global model,
// communication cost and per-site statistics.
//
// Usage:
//
//	cludistream -sites 20 -updates 100000 -kind synthetic
//	datagen -kind nfd -n 100000 | cludistream -kind csv -dim 6
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"cludistream/internal/linalg"
	"cludistream/internal/stream"

	root "cludistream"
)

func main() {
	sites := flag.Int("sites", 20, "number of remote sites r")
	updates := flag.Int("updates", 100_000, "total records across all sites")
	kind := flag.String("kind", "synthetic", "stream kind: synthetic, nfd or csv (stdin)")
	dim := flag.Int("dim", 4, "dimensionality (synthetic/csv)")
	k := flag.Int("k", 5, "mixture components per model")
	eps := flag.Float64("epsilon", 0.02, "error bound ε (drives the chunk size)")
	fitEps := flag.Float64("fit-eps", 0.25, "J_fit threshold (0 couples it to ε as in the paper)")
	delta := flag.Float64("delta", 0.01, "probability error bound δ")
	cmax := flag.Int("cmax", 4, "maximal tests per chunk c_max")
	pd := flag.Float64("pd", 0.1, "new-distribution probability per regime boundary")
	horizon := flag.Int("sliding-chunks", 0, "sliding-window horizon in chunks (0 = landmark)")
	seed := flag.Int64("seed", 1, "random seed")
	flag.Parse()

	var data []linalg.Vector
	var err error
	switch *kind {
	case "synthetic":
		var g *stream.Synthetic
		g, err = stream.NewSynthetic(stream.SyntheticConfig{Dim: *dim, K: *k, Pd: *pd, Seed: *seed})
		if err == nil {
			data = stream.Take(g, *updates)
		}
	case "nfd":
		var g *stream.NFD
		g, err = stream.NewNFD(stream.NFDConfig{Pd: *pd, Seed: *seed})
		if err == nil {
			*dim = stream.NFDDim
			data = stream.Take(g, *updates)
		}
	case "csv":
		data, err = stream.ReadCSV(os.Stdin)
		if err == nil && len(data) > 0 {
			*dim = len(data[0])
		}
	default:
		err = fmt.Errorf("unknown kind %q", *kind)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if len(data) == 0 {
		fmt.Fprintln(os.Stderr, "no input records")
		os.Exit(2)
	}

	sys, err := root.New(root.Config{
		NumSites:             *sites,
		Dim:                  *dim,
		K:                    *k,
		Epsilon:              *eps,
		FitEps:               *fitEps,
		Delta:                *delta,
		CMax:                 *cmax,
		Seed:                 *seed,
		SlidingHorizonChunks: *horizon,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	start := time.Now()
	if err := sys.FeedRoundRobin(data); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if err := sys.Drain(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	elapsed := time.Since(start)

	fmt.Printf("processed %d records across %d sites in %v (%.0f records/s)\n",
		len(data), sys.NumSites(), elapsed.Round(time.Millisecond),
		float64(len(data))/elapsed.Seconds())
	fmt.Printf("chunk size M = %d records; simulated time %.1fs\n", sys.ChunkSize(), sys.Now())
	fmt.Printf("communication: %d messages, %d bytes total\n", sys.TotalMessages(), sys.TotalBytes())

	var emRuns, fits, chunks int
	for i := 0; i < sys.NumSites(); i++ {
		st := sys.Site(i).Stats()
		emRuns += st.EMRuns
		fits += st.Fits
		chunks += st.Chunks
	}
	fmt.Printf("sites: %d chunks processed, %d fit existing models, %d EM re-clusterings\n", chunks, fits, emRuns)

	coord := sys.Coordinator()
	fmt.Printf("coordinator: %d site models, %d leaf components, %d merged groups\n",
		coord.NumModels(), coord.NumLeaves(), len(coord.Groups()))
	if gm := sys.GlobalMixture(); gm != nil {
		fmt.Printf("global mixture: K=%d components over d=%d\n", gm.K(), gm.Dim())
		eval := data
		if len(eval) > 5000 {
			eval = eval[len(eval)-5000:]
		}
		fmt.Printf("average log-likelihood on the most recent %d records: %.4f\n", len(eval), gm.AvgLogLikelihood(eval))
	}
}
