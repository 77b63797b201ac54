package netio

import (
	"math/rand"
	"testing"

	"cludistream/internal/coordinator"
	"cludistream/internal/gaussian"
	"cludistream/internal/site"
	"cludistream/internal/telemetry"
	"cludistream/internal/transport"
)

// tracedRegistry returns a registry with tracing enabled, or nil.
func tracedRegistry(on bool) *telemetry.Registry {
	if !on {
		return nil
	}
	reg := telemetry.NewRegistry()
	reg.EnableTracing(telemetry.TraceOptions{})
	return reg
}

// TestTraceCapabilityNegotiation pins the wire contract of the trace
// suffix: it crosses the TCP link only when the client asked for it in the
// hello AND the server has a tracer — in every other combination the bytes
// on the wire are exactly the untraced frames. The byte proof is
// accounting: the client's goodput counts queued (suffix-free) payload
// bytes, the server counts received payload bytes, so the difference is
// precisely the suffixes that crossed.
func TestTraceCapabilityNegotiation(t *testing.T) {
	cases := []struct {
		name                       string
		clientTraced, serverTraced bool
	}{
		{"both-traced", true, true},
		{"server-untraced", true, false},
		{"client-untraced", false, true},
		{"neither", false, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			creg := tracedRegistry(tc.clientTraced)
			sreg := tracedRegistry(tc.serverTraced)

			coord, err := coordinator.New(coordinator.Config{
				Dim: 1, Merge: gaussian.MergeOptions{MomentOnly: true}, Telemetry: sreg,
			})
			if err != nil {
				t.Fatal(err)
			}
			srv, err := NewServerOpts("127.0.0.1:0", coord, ServerOptions{Telemetry: sreg})
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()

			st, err := site.New(site.Config{
				SiteID: 1, Dim: 1, K: 2, Epsilon: 0.1, FitEps: 0.8, Delta: 0.01,
				Seed: 1, ChunkSize: 200, Telemetry: creg,
			})
			if err != nil {
				t.Fatal(err)
			}
			client, err := Dial(srv.Addr().String(), st, 1, DialOptions{
				Retry: RetryPolicy{Telemetry: creg},
			})
			if err != nil {
				t.Fatal(err)
			}
			defer client.Close()

			rng := rand.New(rand.NewSource(2))
			mix := regime(0)
			for rec := 0; rec < 400; rec++ { // two chunks → two updates
				if err := client.Observe(mix.Sample(rng)); err != nil {
					t.Fatal(err)
				}
			}

			d, ds := client.Delivery(), srv.DeliveryStats()
			goodput, acked, serverBytes := d.GoodputBytes, d.Acked, ds.BytesIn
			if ds.ApplyErrors != 0 || ds.Applied != acked || acked < 1 {
				t.Fatalf("delivery: acked=%d applied=%d errors=%d", acked, ds.Applied, ds.ApplyErrors)
			}

			suffixBytes := 0
			if tc.clientTraced && tc.serverTraced {
				suffixBytes = acked * transport.TraceSuffixSize
			}
			if serverBytes != goodput+suffixBytes {
				t.Fatalf("wire bytes: server saw %d, client queued %d, want suffix overhead %d",
					serverBytes, goodput, suffixBytes)
			}

			str := sreg.Tracer()
			if tc.clientTraced && tc.serverTraced {
				// The context arrived: the server tracer saw one dedupe
				// verdict and one coordinator apply per message, and its
				// exemplars are wire-reconstructed (non-origin) traces whose
				// spans hang off the client-minted root span.
				if got := str.SpanCount("dedupe"); got != int64(acked) {
					t.Fatalf("server dedupe spans = %d, want %d", got, acked)
				}
				if got := str.SpanCount("apply"); got != int64(acked) {
					t.Fatalf("server apply spans = %d, want %d", got, acked)
				}
				snap := str.Snapshot()
				if len(snap.Slowest) == 0 {
					t.Fatal("no completed traces on the server")
				}
				ex := snap.Slowest[0]
				if ex.Origin {
					t.Fatal("server trace claims to be the minting origin")
				}
				if len(ex.Spans) == 0 || ex.Spans[0].Parent == 0 {
					t.Fatalf("server spans lost the wire parent: %+v", ex.Spans)
				}
			} else if tc.serverTraced {
				// An untraced client must leave no trace context behind.
				if got := str.SpanCount("dedupe"); got != 0 {
					t.Fatalf("untraced client produced %d dedupe spans", got)
				}
			}
			if tc.clientTraced {
				// The client records a wire-send span per transmission
				// attempt whether or not the capability was granted.
				if got := creg.Tracer().SpanCount("wire-send"); got != int64(acked) {
					t.Fatalf("client wire-send spans = %d, want %d", got, acked)
				}
			}
		})
	}
}
