package cludistream

import (
	"math/rand"
	"strings"
	"testing"

	"cludistream/internal/netsim"
	"cludistream/internal/telemetry"
	"cludistream/internal/transport"
)

// mixtureOnly strips the delivery-accounting line from a fingerprint,
// leaving the bit-exact global mixture. Tracing legitimately changes byte
// counts (the 16-byte wire suffix) but must never change the mixture.
func mixtureOnly(fp string) string {
	if i := strings.Index(fp, "\n"); i >= 0 {
		return fp[i+1:]
	}
	return fp
}

// tracedConfig returns smallConfig with a tracing registry attached.
func tracedConfig() (Config, *telemetry.Registry) {
	cfg := smallConfig()
	reg := telemetry.NewRegistry()
	reg.EnableTracing(telemetry.TraceOptions{})
	cfg.Telemetry = reg
	return cfg, reg
}

// TestTracingBitIdentical pins the tracing guarantee: minting a trace per
// chunk and a span per pipeline step changes nothing about clustering
// output — message counts and every bit of the global mixture are
// identical with tracing on or off, and the only wire-level difference is
// exactly one 16-byte suffix per traced transmission.
func TestTracingBitIdentical(t *testing.T) {
	const n = 200 * 5 * 3
	sysOff, off := runStream(t, smallConfig(), n)
	cfg, reg := tracedConfig()
	sysOn, on := runStream(t, cfg, n)

	if mixtureOnly(off) != mixtureOnly(on) {
		t.Fatalf("tracing changed clustering output:\n--- off ---\n%s--- on ---\n%s", off, on)
	}
	if sysOff.TotalMessages() != sysOn.TotalMessages() {
		t.Fatalf("tracing changed message count: %d vs %d",
			sysOff.TotalMessages(), sysOn.TotalMessages())
	}

	tr := reg.Tracer()
	if tr.SpanCount("chunk") == 0 {
		t.Fatal("tracing was on but no traces were minted — vacuous pin")
	}
	// Every traced transmission carries the suffix and records one
	// wire-send span, so the byte delta reconciles exactly.
	wireSends := tr.SpanCount("wire-send")
	if wireSends == 0 {
		t.Fatal("no wire-send spans recorded")
	}
	wantDelta := wireSends * int64(transport.TraceSuffixSize)
	if delta := int64(sysOn.TotalBytes() - sysOff.TotalBytes()); delta != wantDelta {
		t.Fatalf("byte delta = %d, want %d (16 bytes × %d traced sends)",
			delta, wantDelta, wireSends)
	}
	// The freshness SLOs observed real lags on the virtual clock.
	snap := reg.Snapshot()
	for _, name := range []string{
		"trace.ingest_to_decision_seconds",
		"trace.decision_to_apply_seconds",
		"trace.apply_to_visible_seconds",
	} {
		if h := snap.Histograms[name]; h.Count == 0 {
			t.Errorf("SLO histogram %q never observed", name)
		}
	}
	if len(tr.Snapshot().Slowest) == 0 {
		t.Error("slowest-trace reservoir is empty after a full run")
	}
}

// TestTracingBitIdenticalFaulty repeats the pin under lossy links, which
// exercises the retransmission and dedupe spans: drops and
// retransmits each record their own wire-send span, so the suffix
// accounting still reconciles exactly.
func TestTracingBitIdenticalFaulty(t *testing.T) {
	faulty := func(cfg Config) Config {
		cfg.Fault = &netsim.FaultPlan{DropProb: 0.3, Rand: rand.New(rand.NewSource(11))}
		return cfg
	}
	const n = 200 * 5 * 3
	sysOff, off := runStream(t, faulty(smallConfig()), n)
	cfg, reg := tracedConfig()
	sysOn, on := runStream(t, faulty(cfg), n)

	if mixtureOnly(off) != mixtureOnly(on) {
		t.Fatalf("tracing changed faulty-mode output:\n--- off ---\n%s--- on ---\n%s", off, on)
	}
	if sysOff.TotalMessages() != sysOn.TotalMessages() {
		t.Fatalf("tracing changed message count: %d vs %d",
			sysOff.TotalMessages(), sysOn.TotalMessages())
	}
	tr := reg.Tracer()
	wantDelta := tr.SpanCount("wire-send") * int64(transport.TraceSuffixSize)
	if delta := int64(sysOn.TotalBytes() - sysOff.TotalBytes()); delta != wantDelta {
		t.Fatalf("byte delta = %d, want %d under faults", delta, wantDelta)
	}
	// Dedupe verdicts were traced for every delivery (applies + duplicates).
	d := sysOn.DeliveryStats()
	if got := tr.SpanCount("dedupe"); got == 0 || got != int64(d.Duplicates)+tr.SpanCount("apply") {
		t.Fatalf("dedupe spans = %d, duplicates = %d, apply spans = %d",
			got, d.Duplicates, tr.SpanCount("apply"))
	}
}
