package cludistream

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"sort"
	"testing"

	"cludistream/internal/netsim"
	"cludistream/internal/stream"
	"cludistream/internal/telemetry"
)

// goldenConfig is the paper-shaped deployment the golden pins run: 4 sites,
// d = 4, K = 5, the default simplex merge, fault-free links and a
// landmark window. A short chunk keeps the run small.
func goldenConfig() Config {
	return Config{NumSites: 4, Dim: 4, K: 5, Seed: 3, ChunkSize: 250}
}

// goldenHash folds everything the facade reports into one FNV-64a value:
// every bit of the global mixture, the byte and message totals, the cost
// series, the delivery and recovery counters and, when tracing is on, the
// span counts by name.
func goldenHash(t *testing.T, sys *System, tr *telemetry.Tracer) uint64 {
	t.Helper()
	h := fnv.New64a()
	gm := sys.GlobalMixture()
	if gm == nil {
		t.Fatal("nil global mixture")
	}
	fmt.Fprintf(h, "K=%d\n", gm.K())
	for j := 0; j < gm.K(); j++ {
		fmt.Fprintf(h, "%x", math.Float64bits(gm.Weight(j)))
		c := gm.Component(j)
		for _, m := range c.Mean() {
			fmt.Fprintf(h, " %x", math.Float64bits(m))
		}
		for r := 0; r < c.Dim(); r++ {
			for col := 0; col <= r; col++ {
				fmt.Fprintf(h, " %x", math.Float64bits(c.Cov().At(r, col)))
			}
		}
		fmt.Fprintln(h)
	}
	fmt.Fprintf(h, "bytes=%d msgs=%d cost=%v\n", sys.TotalBytes(), sys.TotalMessages(), sys.CostSeries(0.5))
	fmt.Fprintf(h, "delivery=%+v recovery=%+v\n", sys.DeliveryStats(), sys.Recovery())
	if tr != nil {
		counts := tr.Snapshot().SpanCounts
		names := make([]string, 0, len(counts))
		for name := range counts {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			fmt.Fprintf(h, "span %s=%d\n", name, counts[name])
		}
	}
	return h.Sum64()
}

// TestSystemGolden pins the facade's complete observable output on three
// configurations — fault-free links, a sliding window, and faulty links with
// a durable coordinator, a site crash, a scheduled coordinator restart and
// tracing — so a change to the simulated runtime underneath cannot move a
// single bit unnoticed.
func TestSystemGolden(t *testing.T) {
	cases := []struct {
		name  string
		setup func(t *testing.T) (Config, *telemetry.Tracer)
		crash bool
		want  uint64
	}{
		{"perfect", func(*testing.T) (Config, *telemetry.Tracer) {
			return goldenConfig(), nil
		}, false, 0x8ba65054aae886e2},
		{"sliding", func(*testing.T) (Config, *telemetry.Tracer) {
			cfg := goldenConfig()
			cfg.SlidingHorizonChunks = 3
			return cfg, nil
		}, false, 0x22bb4286f204186b},
		{"faulty", func(t *testing.T) (Config, *telemetry.Tracer) {
			cfg := goldenConfig()
			cfg.Fault = &netsim.FaultPlan{
				DropProb: 0.2, DupProb: 0.2,
				Rand:    rand.New(rand.NewSource(13)),
				Outages: []netsim.Outage{{Start: 0.8, End: 1.3}},
			}
			cfg.Durability = &DurabilityConfig{Dir: t.TempDir(), CheckpointEvery: 16, SelfCheck: true}
			reg := telemetry.NewRegistry()
			reg.EnableTracing(telemetry.TraceOptions{MaxActive: 1 << 16})
			cfg.Telemetry = reg
			return cfg, reg.Tracer()
		}, true, 0x17bf15e309833472},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg, tr := tc.setup(t)
			sys, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if tc.crash {
				sys.RestartCoordinatorAt(1.1)
			}
			g, err := stream.NewSynthetic(stream.SyntheticConfig{Dim: 4, K: 5, Pd: 0.5, RegimeLen: 2000, Seed: 29})
			if err != nil {
				t.Fatal(err)
			}
			recs := stream.Take(g, 4*250*8)
			for i, x := range recs {
				if tc.crash && i == len(recs)/2 {
					if err := sys.CrashSite(1); err != nil {
						t.Fatal(err)
					}
				}
				if err := sys.Feed(i%4, x); err != nil {
					t.Fatal(err)
				}
			}
			if err := sys.Drain(); err != nil {
				t.Fatal(err)
			}
			// The faulty pin is only worth its hash if every fault fired.
			if d, rec := sys.DeliveryStats(), sys.Recovery(); tc.crash &&
				(d.DroppedMessages == 0 || d.Duplicates == 0 || d.SiteResets != 1 || rec.Restarts != 1) {
				t.Fatalf("a fault never fired: delivery %+v, recovery %+v", d, rec)
			}
			if got := goldenHash(t, sys, tr); got != tc.want {
				t.Errorf("golden hash = %#016x, want %#016x", got, tc.want)
			}
		})
	}
}
