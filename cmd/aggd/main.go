// Command aggd is the multi-layer aggregator daemon (Section 7's
// tree-structured network over real links): it accepts connections from
// children (sited or further aggd processes) on one port, merges their
// models in a local coordinator, and uploads its locally-observed global
// mixture to a parent coordinator (coordd or another aggd) only when that
// mixture changes.
//
// Usage:
//
//	coordd -listen :7070 -dim 4 &
//	aggd   -listen :7071 -connect localhost:7070 -node-id 100 -dim 4 &
//	sited  -connect localhost:7071 -site-id 1 ...
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"cludistream/internal/buildinfo"
	"cludistream/internal/coordinator"
	"cludistream/internal/gaussian"
	"cludistream/internal/netio"
	"cludistream/internal/telemetry"
)

func main() {
	listen := flag.String("listen", ":7071", "TCP address to accept children on")
	connect := flag.String("connect", "", "parent coordinator address (empty: act as a root, no uploads)")
	nodeID := flag.Int("node-id", 100, "pseudo-site id this aggregator uses at its parent")
	dim := flag.Int("dim", 4, "data dimensionality d")
	interval := flag.Duration("interval", 2*time.Second, "how often to check for model changes to upload")
	maxRetry := flag.Int("max-retry", 12, "initial parent-dial attempts before giving up (-1 = retry forever)")
	shutdownTimeout := flag.Duration("shutdown-timeout", 5*time.Second, "graceful-shutdown wait for children and the parent upload drain")
	debugAddr := flag.String("debug-addr", "", "serve /debug/vars, /debug/events and pprof on this address (empty = off)")
	trace := flag.Bool("trace", false, "with -debug-addr: trace child applies and parent uploads (/debug/traces; negotiates the wire trace suffix both ways)")
	version := flag.Bool("version", false, "print version and exit")
	flag.Parse()
	if *version {
		fmt.Println(buildinfo.String("aggd"))
		return
	}

	var reg *telemetry.Registry
	if *debugAddr != "" {
		reg = telemetry.NewRegistry()
		if *trace {
			reg.EnableTracing(telemetry.TraceOptions{})
		}
		dbg, err := telemetry.Serve(*debugAddr, reg)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		defer dbg.Close()
		fmt.Printf("aggd %d: debug endpoints on http://%v/debug/vars\n", *nodeID, dbg.Addr())
	}

	coord, err := coordinator.New(coordinator.Config{Dim: *dim, Telemetry: reg})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	srv, err := netio.NewServerTelemetry(*listen, coord, reg)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	fmt.Printf("aggd: version=%s node=%d listen=%v parent=%s dim=%d interval=%v debug_addr=%s\n",
		buildinfo.Version, *nodeID, srv.Addr(), *connect, *dim, *interval, *debugAddr)

	var up *netio.Uploader
	var parent *netio.Conn
	if *connect != "" {
		parent, err = dialConnRetry(*connect, *nodeID, *maxRetry, reg)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer parent.Close()
		up = netio.NewUploader(parent, *nodeID)
		fmt.Printf("aggd %d: uploading to %s\n", *nodeID, *connect)
	}

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	ticker := time.NewTicker(*interval)
	defer ticker.Stop()

	for {
		select {
		case <-ticker.C:
			if up == nil {
				continue
			}
			var mix *gaussian.Mixture
			var weight float64
			srv.Snapshot(func(c *coordinator.Coordinator) {
				mix, weight = c.GlobalMixture(), c.TotalWeight()
			})
			if mix == nil {
				continue
			}
			sent, err := up.Sync(mix, weight)
			if err != nil {
				// The connection's outbox keeps retrying delivery; a
				// rejected upload is logged and retried at the next tick
				// rather than killing the aggregation tree.
				fmt.Fprintf(os.Stderr, "aggd %d: upload: %v (will retry)\n", *nodeID, err)
				continue
			}
			if sent {
				fmt.Printf("aggd %d: uploaded refreshed model (K=%d)\n", *nodeID, mix.K())
			}
		case sig := <-sigCh:
			fmt.Printf("aggd %d: %v — shutting down (waiting up to %v)\n", *nodeID, sig, *shutdownTimeout)
			// Stop accepting children first, then drain any queued
			// uploads so the parent sees our final mixture.
			if err := srv.Shutdown(*shutdownTimeout); err != nil {
				fmt.Fprintf(os.Stderr, "aggd %d: shutdown: %v\n", *nodeID, err)
			}
			if parent != nil {
				if err := parent.Flush(*shutdownTimeout); err != nil {
					fmt.Fprintf(os.Stderr, "aggd %d: final upload drain: %v\n", *nodeID, err)
				}
			}
			srv.Snapshot(func(c *coordinator.Coordinator) {
				fmt.Printf("aggd %d: final state — %d child models, %d groups\n",
					*nodeID, c.NumModels(), len(c.Groups()))
			})
			return
		}
	}
}

// dialConnRetry retries the parent dial with doubling backoff so an
// aggregation tree can start leaves-first or ride out a parent restart.
func dialConnRetry(addr string, nodeID, maxRetry int, reg *telemetry.Registry) (*netio.Conn, error) {
	backoff := 500 * time.Millisecond
	for attempt := 1; ; attempt++ {
		conn, err := netio.DialConnRetry(addr, netio.RetryPolicy{Telemetry: reg})
		if err == nil {
			return conn, nil
		}
		if maxRetry >= 0 && attempt >= maxRetry {
			return nil, fmt.Errorf("dial %s: %w (after %d attempts)", addr, err, attempt)
		}
		fmt.Fprintf(os.Stderr, "aggd %d: dial %s: %v — retrying in %v\n", nodeID, addr, err, backoff)
		time.Sleep(backoff)
		if backoff *= 2; backoff > 10*time.Second {
			backoff = 10 * time.Second
		}
	}
}
