package cludistream

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"cludistream/internal/netsim"
	"cludistream/internal/stream"
	"cludistream/internal/telemetry"
)

// fingerprint renders the system's observable clustering output with every
// float64 spelled out bit-for-bit, so two runs compare exactly — not "close".
func fingerprint(sys *System) string {
	var b strings.Builder
	fmt.Fprintf(&b, "bytes=%d msgs=%d\n", sys.TotalBytes(), sys.TotalMessages())
	gm := sys.GlobalMixture()
	if gm == nil {
		b.WriteString("global=nil\n")
		return b.String()
	}
	for j := 0; j < gm.K(); j++ {
		fmt.Fprintf(&b, "w[%d]=%016x\n", j, math.Float64bits(gm.Weight(j)))
		comp := gm.Component(j)
		for _, m := range comp.Mean() {
			fmt.Fprintf(&b, " %016x", math.Float64bits(m))
		}
		b.WriteString("\n")
		cov := comp.Cov()
		d := comp.Dim()
		for r := 0; r < d; r++ {
			for c := 0; c <= r; c++ {
				fmt.Fprintf(&b, " %016x", math.Float64bits(cov.At(r, c)))
			}
		}
		b.WriteString("\n")
	}
	return b.String()
}

// runStream drives a fresh system over a deterministic synthetic stream and
// returns its output fingerprint.
func runStream(t *testing.T, cfg Config, n int) (*System, string) {
	t.Helper()
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	g, err := stream.NewSynthetic(stream.SyntheticConfig{Dim: 1, K: 2, Pd: 0.5, RegimeLen: 250, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.FeedRoundRobin(stream.Take(g, n)); err != nil {
		t.Fatal(err)
	}
	if err := sys.Drain(); err != nil {
		t.Fatal(err)
	}
	return sys, fingerprint(sys)
}

// TestTelemetryBitIdentical pins the tentpole guarantee: enabling telemetry
// changes nothing about clustering output — byte counts, message counts, and
// every weight, mean, and covariance entry of the global mixture are
// bit-for-bit identical with the registry attached or absent.
func TestTelemetryBitIdentical(t *testing.T) {
	const n = 200 * 5 * 3
	_, off := runStream(t, smallConfig(), n)
	cfg := smallConfig()
	cfg.Telemetry = telemetry.NewRegistry()
	_, on := runStream(t, cfg, n)
	if off != on {
		t.Fatalf("telemetry changed clustering output:\n--- off ---\n%s--- on ---\n%s", off, on)
	}
	// The identical run counted its pair merges: the coordinator's memo
	// instruments saw work and, like the rest, moved nothing.
	snap := cfg.Telemetry.Snapshot()
	if snap.Counters["coord.merge_fits"] == 0 || snap.Counters["coord.merge_memo_hits"] == 0 {
		t.Errorf("coord.merge_fits = %d, coord.merge_memo_hits = %d: want both > 0",
			snap.Counters["coord.merge_fits"], snap.Counters["coord.merge_memo_hits"])
	}
	// Two generations of max(8, 4·|g|) merges a group: at most 8 a leaf
	// plus 16 a group.
	bound := 8*snap.Gauges["coord.leaves"] + 16*snap.Gauges["coord.groups"]
	if got := snap.Gauges["coord.merge_memo_entries"]; got <= 0 || got > bound {
		t.Errorf("coord.merge_memo_entries = %v, want in 1..%v", got, bound)
	}
}

// TestTelemetryBitIdenticalFaulty repeats the pin under fault-tolerant
// delivery, which exercises the sender, link-drop, and dedupe paths.
func TestTelemetryBitIdenticalFaulty(t *testing.T) {
	faulty := func(reg *telemetry.Registry) Config {
		cfg := smallConfig()
		cfg.Fault = &netsim.FaultPlan{DropProb: 0.3, Rand: rand.New(rand.NewSource(11))}
		cfg.Telemetry = reg
		return cfg
	}
	const n = 200 * 5 * 3
	_, off := runStream(t, faulty(nil), n)
	reg := telemetry.NewRegistry()
	sysOn, on := runStream(t, faulty(reg), n)
	if off != on {
		t.Fatalf("telemetry changed faulty-mode output:\n--- off ---\n%s--- on ---\n%s", off, on)
	}
	// The registry must agree with the system's own delivery accounting.
	snap := reg.Snapshot()
	d := sysOn.DeliveryStats()
	if got := snap.Counters["sim.retransmit_bytes"]; got != int64(d.RetransmitBytes) {
		t.Fatalf("sim.retransmit_bytes = %d, DeliveryStats says %d", got, d.RetransmitBytes)
	}
	if got := snap.Counters["coord.dedupe_dropped"]; got != int64(d.Duplicates) {
		t.Fatalf("coord.dedupe_dropped = %d, DeliveryStats says %d", got, d.Duplicates)
	}
	if got := snap.Counters["net.retries"]; got != int64(d.Retries) {
		t.Fatalf("net.retries = %d, DeliveryStats says %d", got, d.Retries)
	}
}

// TestTelemetrySnapshotContents checks that one instrumented run populates
// the decision counters the debug endpoints advertise.
func TestTelemetrySnapshotContents(t *testing.T) {
	reg := telemetry.NewRegistry()
	cfg := smallConfig()
	cfg.Telemetry = reg
	sys, _ := runStream(t, cfg, 200*5*3)
	snap := reg.Snapshot()
	for _, name := range []string{
		"site.records", "site.chunks", "site.chunks_tested",
		"site.chunks_fit", "site.chunks_refit",
		"site.em_runs", "em.fits", "em.iterations",
		"coord.updates_handled", "coord.new_models",
		"sim.bytes_sent", "sim.messages",
	} {
		if snap.Counters[name] <= 0 {
			t.Errorf("counter %q = %d, want > 0", name, snap.Counters[name])
		}
	}
	if got := snap.Counters["site.records"]; got != int64(200*5*3) {
		t.Errorf("site.records = %d, want %d", got, 200*5*3)
	}
	if got := snap.Counters["sim.bytes_sent"]; got != int64(sys.TotalBytes()) {
		t.Errorf("sim.bytes_sent = %d, TotalBytes says %d", got, sys.TotalBytes())
	}
	if got := snap.Counters["sim.messages"]; got != int64(sys.TotalMessages()) {
		t.Errorf("sim.messages = %d, TotalMessages says %d", got, sys.TotalMessages())
	}
	if h, ok := snap.Histograms["site.jfit_margin"]; !ok || h.Count == 0 {
		t.Errorf("site.jfit_margin histogram missing or empty: %+v", h)
	}
	if snap.Journal.LastSeq == 0 {
		t.Error("journal recorded no events")
	}
	// Decision counters must be internally consistent: every chunk is
	// either fit (to the current model or a reactivated archive entry) or
	// refit by EM.
	fit := snap.Counters["site.chunks_fit"]
	react := snap.Counters["site.chunks_reactivated"]
	refit := snap.Counters["site.chunks_refit"]
	if total := snap.Counters["site.chunks"]; fit+react+refit != total {
		t.Errorf("fit %d + reactivated %d + refit %d != chunks %d", fit, react, refit, total)
	}
}
