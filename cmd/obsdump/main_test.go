package main

import (
	"bytes"
	"context"
	"io"
	"strings"
	"testing"
	"time"

	"cludistream/internal/coordinator"
	"cludistream/internal/daemon"
	"cludistream/internal/site"
	"cludistream/internal/stream"
	"cludistream/internal/telemetry"
)

// TestObsdumpViews runs a small traced deployment in process — a
// coordinator with its query tier and two sites over loopback TCP, every
// layer instrumented into one registry behind telemetry.Serve — and
// renders each obsdump view from the live debug endpoints. Everything it
// starts is closed before it returns. With -v it prints the views:
// `make obs-demo` runs every view, `make trace-demo` the trace view.
func TestObsdumpViews(t *testing.T) {
	reg := telemetry.NewRegistry()
	reg.EnableTracing(telemetry.TraceOptions{})
	dbg, err := telemetry.Serve("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer dbg.Close()
	addr := dbg.Addr().String()

	ctx := context.Background()
	coord, err := daemon.StartCoordinator(ctx, daemon.CoordinatorConfig{
		Listen: "127.0.0.1:0", Coord: coordinator.Config{Dim: 2, Telemetry: reg},
		QueryAddr: "127.0.0.1:0", PublishEvery: 10 * time.Millisecond,
		Stdout: io.Discard, Stderr: io.Discard,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := coord.Stop(time.Second); err != nil {
			t.Error(err)
		}
	}()

	for id := 1; id <= 2; id++ {
		gen, err := stream.NewSynthetic(stream.SyntheticConfig{
			Dim: 2, K: 3, Pd: 0.4, RegimeLen: 1200, Seed: int64(100 * id),
		})
		if err != nil {
			t.Fatal(err)
		}
		err = daemon.RunSite(ctx, daemon.SiteConfig{
			Connect: coord.Addr().String(),
			Site: site.Config{
				SiteID: id, Dim: 2, K: 3, Epsilon: 0.1, FitEps: 0.8, Delta: 0.01,
				Seed: int64(id), ChunkSize: 400, Telemetry: reg,
			},
			Next: gen.Next, Updates: 2400, MaxRetry: 1, ShutdownTimeout: 10 * time.Second,
			Epoch: 1, Stdout: io.Discard, Stderr: io.Discard,
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	for deadline := time.Now().Add(10 * time.Second); reg.Gauge("query.snapshot_version").Value() == 0; {
		if time.Now().After(deadline) {
			t.Fatal("the query tier never published")
		}
		time.Sleep(5 * time.Millisecond)
	}

	views := []struct {
		name, want string
		render     func(w io.Writer) error
	}{
		{"snapshot", "site.chunks", func(w io.Writer) error { return dumpSnapshot(w, addr, false) }},
		{"events", "chunk-", func(w io.Writer) error { return dumpEvents(w, addr, 0, 20, 0) }},
		{"trace", "ingest→visible", func(w io.Writer) error { return dumpTrace(w, addr, "", false) }},
		{"query", "snapshot version", func(w io.Writer) error { return dumpQuery(w, addr, 50*time.Millisecond, false) }},
	}
	for _, v := range views {
		t.Run(v.name, func(t *testing.T) {
			var out bytes.Buffer
			if err := v.render(&out); err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(out.String(), v.want) {
				t.Fatalf("%s view lacks %q:\n%s", v.name, v.want, out.String())
			}
			t.Logf("obsdump -addr %s %s:\n%s", addr, v.name, out.String())
		})
	}
}
