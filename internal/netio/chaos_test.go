package netio

import (
	"bytes"
	"math/rand"
	"testing"
	"time"

	"cludistream/internal/coordinator"
	"cludistream/internal/gaussian"
	"cludistream/internal/linalg"
)

// fastRetry keeps chaos tests quick: failures on loopback surface
// immediately, so tight backoff just shortens the recovery dance.
func fastRetry() RetryPolicy {
	return RetryPolicy{
		AttemptTimeout: 500 * time.Millisecond,
		BaseBackoff:    2 * time.Millisecond,
		MaxBackoff:     20 * time.Millisecond,
	}
}

// chaosRecords is a deterministic stream with three drifting regimes —
// enough chunks to emit several NewModel and WeightUpdate messages.
func chaosRecords(n int) []linalg.Vector {
	rng := rand.New(rand.NewSource(42))
	recs := make([]linalg.Vector, n)
	for i := range recs {
		recs[i] = regime(float64(3*i/n) * 40).Sample(rng)
	}
	return recs
}

// observe feeds records to c one by one and stops at the first error.
func observe(c *Client, records []linalg.Vector) error {
	for _, x := range records {
		if err := c.Observe(x); err != nil {
			return err
		}
	}
	return nil
}

// encodeMixture canonicalizes a mixture to its exact codec bytes so "same
// final model" means bit-identical, not approximately close.
func encodeMixture(t *testing.T, mix *gaussian.Mixture) []byte {
	t.Helper()
	if mix == nil {
		t.Fatal("nil global mixture")
	}
	return gaussian.AppendMixture(nil, mix)
}

// runDirect replays records against a pristine server with no faults and
// returns the encoded final global mixture — the ground truth every chaos
// run must reproduce exactly.
func runDirect(t *testing.T, records []linalg.Vector) []byte {
	t.Helper()
	coord := newCoord(t)
	srv, err := NewServer("127.0.0.1:0", coord)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := Dial(srv.Addr().String(), newSite(t, 1), 1, DialOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := observe(c, records); err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	var out []byte
	srv.Snapshot(func(co *coordinator.Coordinator) {
		out = encodeMixture(t, co.GlobalMixture())
	})
	return out
}

// TestChaosConnectionKills routes a site through a proxy that severs the
// connection after a small byte budget, forcing mid-frame kills, lost
// acks, reconnects and retransmissions. The final global model must be
// byte-identical to the fault-free run.
func TestChaosConnectionKills(t *testing.T) {
	records := chaosRecords(200 * 6)
	want := runDirect(t, records)

	coord := newCoord(t)
	srv, err := NewServer("127.0.0.1:0", coord)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	srv.Logf = func(string, ...any) {} // kill noise is the point

	proxy, err := NewChaosProxy(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()
	// Budget fits the hello and its watermark ack (47 B) and one full
	// NewModel round trip (91 B), then dies mid-frame on the next message:
	// every connection delivers a little and is murdered.
	proxy.KillAfter(139)

	c, err := Dial(proxy.Addr(), newSite(t, 1), 1, DialOptions{Retry: fastRetry()})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := observe(c, records); err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(30 * time.Second); err != nil {
		t.Fatal(err)
	}

	d := c.Delivery()
	if d.Reconnects == 0 {
		t.Fatal("chaos run survived without a single reconnect — proxy not biting")
	}
	if d.RetransmitBytes == 0 {
		t.Fatal("no retransmitted bytes under connection kills")
	}
	if d.Dropped != 0 || d.Rejected != 0 {
		t.Fatalf("lost messages: dropped=%d rejected=%d", d.Dropped, d.Rejected)
	}
	ss := srv.DeliveryStats()
	if ss.ApplyErrors != 0 {
		t.Fatalf("apply errors: %d", ss.ApplyErrors)
	}
	// Goodput is counted once per acked message on both ends; the
	// retransmission overhead rides on top.
	if ss.BytesIn < d.GoodputBytes {
		t.Fatalf("server saw %d bytes < client goodput %d", ss.BytesIn, d.GoodputBytes)
	}
	srv.Snapshot(func(co *coordinator.Coordinator) {
		if got := encodeMixture(t, co.GlobalMixture()); !bytes.Equal(got, want) {
			t.Fatalf("final mixture diverged under connection kills:\n got %d bytes\nwant %d bytes", len(got), len(want))
		}
	})
}

// TestChaosSiteCrashRestart crashes the site mid-stream and restarts it
// with a higher epoch, replaying the stream from the beginning (the
// model-list-as-replay-log recovery of Section 6). The coordinator must
// reset the dead incarnation exactly once and converge to the fault-free
// model, bit for bit.
func TestChaosSiteCrashRestart(t *testing.T) {
	records := chaosRecords(200 * 6)
	want := runDirect(t, records)

	coord := newCoord(t)
	srv, err := NewServer("127.0.0.1:0", coord)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	srv.Logf = func(string, ...any) {}

	// First incarnation: epoch 1, dies halfway with updates applied.
	pol := fastRetry()
	pol.Epoch = 1
	c1, err := Dial(srv.Addr().String(), newSite(t, 1), 1, DialOptions{Retry: pol})
	if err != nil {
		t.Fatal(err)
	}
	if err := observe(c1, records[:len(records)/2]); err != nil {
		t.Fatal(err)
	}
	if err := c1.Flush(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	c1.Close() // crash: the site.Site and its state are gone

	// Restarted incarnation: fresh site (same config and seed), higher
	// epoch, replays the whole stream.
	pol.Epoch = 2
	c2, err := Dial(srv.Addr().String(), newSite(t, 1), 1, DialOptions{Retry: pol})
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if err := observe(c2, records); err != nil {
		t.Fatal(err)
	}
	if err := c2.Flush(5 * time.Second); err != nil {
		t.Fatal(err)
	}

	ss := srv.DeliveryStats()
	if ss.SiteResets != 1 {
		t.Fatalf("site resets = %d, want 1", ss.SiteResets)
	}
	if ss.ApplyErrors != 0 {
		t.Fatalf("apply errors: %d", ss.ApplyErrors)
	}
	srv.Snapshot(func(co *coordinator.Coordinator) {
		if co.Stats().SiteResets != 1 {
			t.Fatalf("coordinator resets = %d", co.Stats().SiteResets)
		}
		if got := encodeMixture(t, co.GlobalMixture()); !bytes.Equal(got, want) {
			t.Fatal("final mixture diverged after crash/restart replay")
		}
	})
}

// TestChaosCoordinatorOutage pauses the proxy mid-stream — a coordinator
// outage as seen from the site. The site must keep clustering and queuing
// while dark, then drain the backlog on recovery and land on the exact
// fault-free model.
func TestChaosCoordinatorOutage(t *testing.T) {
	records := chaosRecords(200 * 6)
	want := runDirect(t, records)

	coord := newCoord(t)
	srv, err := NewServer("127.0.0.1:0", coord)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	srv.Logf = func(string, ...any) {}
	proxy, err := NewChaosProxy(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()

	c, err := Dial(proxy.Addr(), newSite(t, 1), 1, DialOptions{Retry: fastRetry()})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	third := len(records) / 3
	if err := observe(c, records[:third]); err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(5 * time.Second); err != nil {
		t.Fatal(err)
	}

	// Coordinator goes dark; the site streams on regardless.
	proxy.SetPaused(true)
	if err := observe(c, records[third:2*third]); err != nil {
		t.Fatalf("observe during outage: %v", err)
	}
	if d := c.Delivery(); d.Queued == 0 {
		t.Fatal("outage produced no backlog — mid-outage chunks emitted nothing?")
	}

	// Recovery: the backlog drains in order, then the rest of the stream.
	proxy.SetPaused(false)
	if err := observe(c, records[2*third:]); err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(30 * time.Second); err != nil {
		t.Fatal(err)
	}

	if d := c.Delivery(); d.Reconnects == 0 {
		t.Fatal("recovered without reconnecting")
	}
	srv.Snapshot(func(co *coordinator.Coordinator) {
		if got := encodeMixture(t, co.GlobalMixture()); !bytes.Equal(got, want) {
			t.Fatal("final mixture diverged across the outage")
		}
	})
}
