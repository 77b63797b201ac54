// Command sited is the remote-site agent: it consumes a stream (synthetic,
// NFD-like, or CSV on stdin), runs the test-and-cluster site processing,
// and ships model updates to a coordd coordinator over TCP. The body is
// internal/daemon.RunSite.
//
// Usage:
//
//	sited -connect localhost:7070 -site-id 1 -kind synthetic -updates 100000
//	datagen -kind nfd -n 50000 | sited -connect host:7070 -site-id 2 -kind csv
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"cludistream/internal/buildinfo"
	"cludistream/internal/daemon"
	"cludistream/internal/linalg"
	"cludistream/internal/site"
	"cludistream/internal/stream"
)

func main() {
	var cfg daemon.SiteConfig
	flag.StringVar(&cfg.Connect, "connect", "localhost:7070", "coordinator address")
	siteID := flag.Int("site-id", 1, "unique site identifier")
	kind := flag.String("kind", "synthetic", "stream kind: synthetic, nfd or csv (stdin)")
	flag.IntVar(&cfg.Updates, "updates", 100_000, "records to process (generated kinds)")
	dim := flag.Int("dim", 4, "dimensionality (synthetic)")
	k := flag.Int("k", 5, "mixture components per model")
	eps := flag.Float64("epsilon", 0.02, "error bound ε")
	fitEps := flag.Float64("fit-eps", 0.25, "J_fit threshold (0 couples to ε)")
	delta := flag.Float64("delta", 0.01, "probability error bound δ")
	cmax := flag.Int("cmax", 4, "maximal tests per chunk")
	pd := flag.Float64("pd", 0.1, "new-distribution probability per regime boundary")
	flag.Float64Var(&cfg.Rate, "rate", 0, "records/second throttle (0 = as fast as possible)")
	horizon := flag.Int("sliding-chunks", 0, "sliding-window horizon in chunks (0 = landmark)")
	seed := flag.Int64("seed", 1, "random seed")
	flag.StringVar(&cfg.Archive, "archive", "", "write the site's model/event archive here on exit")
	flag.IntVar(&cfg.MaxRetry, "max-retry", 12, "initial-dial attempts before giving up (-1 = retry forever)")
	flag.DurationVar(&cfg.ShutdownTimeout, "shutdown-timeout", 30*time.Second, "outbox drain budget on exit or SIGTERM")
	epoch := flag.Uint("epoch", 0, "incarnation number for exactly-once delivery (0 = derive from wall clock)")
	flag.StringVar(&cfg.DebugAddr, "debug-addr", "", "serve /debug/vars, /debug/events and pprof on this address (empty = off)")
	trace := flag.Bool("trace", false, "with -debug-addr: trace every chunk ingest→coordinator (/debug/traces; negotiates the wire trace suffix with the coordinator)")
	version := flag.Bool("version", false, "print version and exit")
	flag.Parse()
	if *version {
		fmt.Println(buildinfo.String("sited"))
		return
	}

	switch *kind {
	case "synthetic":
		gen, err := stream.NewSynthetic(stream.SyntheticConfig{Dim: *dim, K: *k, Pd: *pd, Seed: *seed})
		exitOn(err)
		cfg.Next = gen.Next
	case "nfd":
		gen, err := stream.NewNFD(stream.NFDConfig{Pd: *pd, Seed: *seed})
		exitOn(err)
		cfg.Next, *dim = gen.Next, stream.NFDDim
	case "csv":
		data, err := stream.ReadCSV(os.Stdin)
		exitOn(err)
		if len(data) == 0 {
			exitOn(fmt.Errorf("no CSV records on stdin"))
		}
		i := 0
		cfg.Next = func() linalg.Vector { i++; return data[i-1] }
		*dim, cfg.Updates = len(data[0]), len(data)
	default:
		exitOn(fmt.Errorf("unknown kind %q", *kind))
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	cfg.Site = site.Config{
		SiteID:               *siteID,
		Dim:                  *dim,
		K:                    *k,
		Epsilon:              *eps,
		FitEps:               *fitEps,
		Delta:                *delta,
		CMax:                 *cmax,
		Seed:                 *seed,
		EmitFitWeightUpdates: *horizon > 0,
		Telemetry:            daemon.Registry(cfg.DebugAddr, *trace),
	}
	cfg.SlidingChunks, cfg.Epoch = *horizon, uint32(*epoch)
	if err := daemon.RunSite(ctx, cfg); err != nil {
		fmt.Fprintf(os.Stderr, "sited %d: %v\n", *siteID, err)
		os.Exit(daemon.ExitCode(err))
	}
}

// exitOn exits 2 on a stream configuration error.
func exitOn(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "sited:", err)
		os.Exit(2)
	}
}
