// Command coordd is the coordinator daemon: it accepts sites (cmd/sited)
// and child aggregators over TCP and maintains the merged global mixture.
// With -connect it is itself an aggregator, the interior node of Section
// 7's multi-layer network: it uploads its merged mixture to a parent coordd
// as pseudo-site -node-id whenever that mixture changes. With -state-dir it
// is crash-durable (WAL before every ack, rotating checkpoints, exact
// recovery before reconnecting children resume). SIGINT/SIGTERM is the
// graceful stop: drain children, final checkpoint, final upload, final
// model summary. The body is internal/daemon.StartCoordinator.
//
// Usage:
//
//	coordd -listen :7070 -dim 4 -state-dir /var/lib/coordd
//	coordd -listen :7071 -connect localhost:7070 -node-id 100 -dim 4
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
	"cludistream/internal/coordinator"
	"cludistream/internal/daemon"
	"cludistream/internal/persist"
)

func main() {
	var cfg daemon.CoordinatorConfig
	flag.StringVar(&cfg.Listen, "listen", ":7070", "TCP address to accept sites and child aggregators on")
	dim := flag.Int("dim", 4, "data dimensionality d")
	flag.DurationVar(&cfg.Status, "status", 10*time.Second, "status print interval (0 disables)")
	flag.StringVar(&cfg.StateDir, "state-dir", "", "checkpoint + WAL directory (empty = in-memory only, no crash durability)")
	checkpointEvery := flag.Int("checkpoint-every", 256, "WAL records between automatic checkpoints")
	fsync := flag.String("fsync", "always", "WAL sync policy: always, interval or never")
	flag.IntVar(&cfg.Durable.FsyncInterval, "fsync-interval", 32, "records per sync when -fsync=interval")
	shutdownTimeout := flag.Duration("shutdown-timeout", 5*time.Second, "graceful-shutdown wait for connected children and the uplink drain")
	flag.StringVar(&cfg.DebugAddr, "debug-addr", "", "serve /debug/vars, /debug/events and pprof on this address (empty = off)")
	trace := flag.Bool("trace", false, "with -debug-addr: record apply/remerge/upload traces and negotiate the wire trace suffix with children and parent (/debug/traces)")
	flag.StringVar(&cfg.QueryAddr, "query-addr", "", "serve the lock-free query tier (/query/classify, /query/density, /query/topk, /query/batch) on this address (empty = off)")
	flag.DurationVar(&cfg.PublishEvery, "publish-every", 200*time.Millisecond, "with -query-addr: snapshot publication interval (only changed mixtures are republished)")
	flag.StringVar(&cfg.Connect, "connect", "", "parent coordinator address: run as an aggregator uploading to it (empty = root)")
	flag.IntVar(&cfg.NodeID, "node-id", 100, "with -connect: pseudo-site id this aggregator uses at its parent")
	flag.DurationVar(&cfg.Interval, "interval", 2*time.Second, "with -connect: how often to check for model changes to upload")
	flag.IntVar(&cfg.MaxRetry, "max-retry", 12, "with -connect: initial parent-dial attempts before giving up (-1 = retry forever)")
	version := flag.Bool("version", false, "print version and exit")
	flag.Parse()
	if *version {
		fmt.Println(buildinfo.String("coordd"))
		return
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	reg := daemon.Registry(cfg.DebugAddr, *trace)
	cfg.Coord = coordinator.Config{Dim: *dim, Telemetry: reg}
	cfg.Durable.CheckpointEvery, cfg.Durable.Fsync = *checkpointEvery, persist.FsyncMode(*fsync)
	c, err := daemon.StartCoordinator(ctx, cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "coordd:", err)
		os.Exit(daemon.ExitCode(err))
	}
	<-ctx.Done()
	if err := c.Stop(*shutdownTimeout); err != nil {
		fmt.Fprintln(os.Stderr, "coordd: shutdown:", err)
	}
}
