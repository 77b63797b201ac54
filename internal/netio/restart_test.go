package netio

import (
	"bytes"
	"encoding/binary"
	"math"
	"runtime"
	"testing"
	"time"

	"cludistream/internal/coordinator"
	"cludistream/internal/durable"
	"cludistream/internal/gaussian"
	"cludistream/internal/persist"
	"cludistream/internal/transport"
)

// restartPolicy keeps reconnect/backoff latency test-sized.
func restartPolicy(siteID int32) RetryPolicy {
	return RetryPolicy{
		SiteID:         siteID,
		DialTimeout:    2 * time.Second,
		AttemptTimeout: 2 * time.Second,
		BaseBackoff:    time.Millisecond,
		MaxBackoff:     20 * time.Millisecond,
	}
}

// coordStateBytes canonicalizes a (coordinator, dedupe, applied) triple to
// checkpoint bytes for bit-level comparison.
func coordStateBytes(t *testing.T, coord *coordinator.Coordinator, ded *durable.Dedupe, applied uint64) []byte {
	t.Helper()
	var buf bytes.Buffer
	err := persist.SaveCoordinatorState(&buf, &persist.CoordinatorState{
		Applied: applied, Snapshot: coord.Snapshot(), Dedupe: ded.Entries(),
	})
	if err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestHandshakePrunesRecoveredSuffix: a client that queued messages while
// the coordinator was down reconnects to a recovered server whose durable
// watermark already covers part of the queue. The hello/watermark
// handshake must prune exactly that prefix — the suffix is transmitted,
// nothing is re-applied, nothing is re-sent just to be deduped.
func TestHandshakePrunesRecoveredSuffix(t *testing.T) {
	srv1, err := NewServer("127.0.0.1:0", newCoord(t))
	if err != nil {
		t.Fatal(err)
	}
	addr := srv1.Addr().String()
	conn, err := DialConnRetry(addr, restartPolicy(7))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := srv1.Close(); err != nil {
		t.Fatal(err)
	}

	// Five models queue against the dead coordinator (Send never blocks).
	for id := int32(1); id <= 5; id++ {
		if err := conn.Send(transport.Message{
			Kind: transport.MsgNewModel, SiteID: 7, ModelID: id,
			Count: 200, Mixture: regime(float64(id) * 100),
		}); err != nil {
			t.Fatal(err)
		}
	}
	if d := conn.Delivery(); d.Queued != 5 || d.Acked != 0 {
		t.Fatalf("outbox before restart: %+v", d)
	}

	// The restarted coordinator recovered a watermark covering seqs 1-3,
	// as if those frames had been durably applied before the crash.
	coord2 := newCoord(t)
	srv2, err := NewServerOpts(addr, coord2, ServerOptions{
		Dedupe: durable.DedupeFromEntries([]persist.DedupeEntry{{SiteID: 7, Epoch: 1, MaxSeq: 3}}),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	if err := conn.Flush(10 * time.Second); err != nil {
		t.Fatal(err)
	}

	d := conn.Delivery()
	if d.HandshakePruned != 3 {
		t.Fatalf("handshake pruned %d messages, want 3 (%+v)", d.HandshakePruned, d)
	}
	if d.Acked != 2 || d.Queued != 0 {
		t.Fatalf("suffix delivery: %+v", d)
	}
	ss := srv2.DeliveryStats()
	if ss.Applied != 2 || ss.Duplicates != 0 {
		t.Fatalf("server applied %d with %d duplicates, want 2 applied, 0 dups", ss.Applied, ss.Duplicates)
	}
	srv2.Snapshot(func(c *coordinator.Coordinator) {
		if c.NumModels() != 2 {
			t.Fatalf("coordinator holds %d models, want the 2 un-pruned ones", c.NumModels())
		}
	})
}

// TestServerRestartRecoveryOverTCP is the full loop on a real listener:
// a durable server applies half a stream, dies, a new process recovers
// the store from disk, rebinds, and the same client reconnects through
// the restart handshake and delivers the rest. The final coordinator
// state must be bit-identical to applying the stream uninterrupted, and
// a third recovery must agree again.
func TestServerRestartRecoveryOverTCP(t *testing.T) {
	dir := t.TempDir()
	cfg := coordinator.Config{Dim: 1, Merge: gaussian.MergeOptions{MomentOnly: true}}

	store1, rec1, err := durable.Open(dir, cfg, durable.Options{})
	if err != nil {
		t.Fatal(err)
	}
	srv1, err := NewServerOpts("127.0.0.1:0", rec1.Coord, ServerOptions{Store: store1, Dedupe: rec1.Dedupe})
	if err != nil {
		t.Fatal(err)
	}
	addr := srv1.Addr().String()
	conn, err := DialConnRetry(addr, restartPolicy(7))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	stream := []transport.Message{
		{Kind: transport.MsgNewModel, SiteID: 7, ModelID: 1, Count: 200, Mixture: regime(0)},
		{Kind: transport.MsgNewModel, SiteID: 7, ModelID: 2, Count: 200, Mixture: regime(300)},
		{Kind: transport.MsgWeightUpdate, SiteID: 7, ModelID: 1, Count: 100},
		{Kind: transport.MsgNewModel, SiteID: 7, ModelID: 3, Count: 200, Mixture: regime(-300)},
		{Kind: transport.MsgWeightUpdate, SiteID: 7, ModelID: 2, Count: 50},
		{Kind: transport.MsgWeightUpdate, SiteID: 7, ModelID: 3, Count: 25},
		{Kind: transport.MsgWeightUpdate, SiteID: 7, ModelID: 1, Count: 10},
		{Kind: transport.MsgNewModel, SiteID: 7, ModelID: 4, Count: 200, Mixture: regime(600)},
		{Kind: transport.MsgWeightUpdate, SiteID: 7, ModelID: 4, Count: 5},
		{Kind: transport.MsgWeightUpdate, SiteID: 7, ModelID: 2, Count: 5},
	}
	const cut = 6

	for _, m := range stream[:cut] {
		if err := conn.Send(m); err != nil {
			t.Fatal(err)
		}
	}
	if err := conn.Flush(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	// The process dies. Close flushes the WAL but writes no checkpoint,
	// so the next open must genuinely replay the tail.
	if err := srv1.Close(); err != nil {
		t.Fatal(err)
	}

	store2, rec2, err := durable.Open(dir, cfg, durable.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rec2.RecordsReplayed != cut {
		t.Fatalf("recovery replayed %d records, want %d", rec2.RecordsReplayed, cut)
	}
	srv2, err := NewServerOpts(addr, rec2.Coord, ServerOptions{Store: store2, Dedupe: rec2.Dedupe})
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range stream[cut:] {
		if err := conn.Send(m); err != nil {
			t.Fatal(err)
		}
	}
	if err := conn.Flush(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	d := conn.Delivery()
	if d.Acked != len(stream) || d.Queued != 0 {
		t.Fatalf("delivery after restart: %+v", d)
	}
	if d.Reconnects == 0 {
		t.Fatal("client never reconnected — the restart was not exercised")
	}
	if err := srv2.Close(); err != nil {
		t.Fatal(err)
	}

	// Reference: the same wire bytes applied by an uninterrupted
	// coordinator through the identical dedupe-then-apply path.
	refCoord, err := coordinator.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	refDed := durable.NewDedupe()
	ref := durable.Receiver{Coord: refCoord, Dedupe: refDed}
	for i, m := range stream {
		m.Epoch, m.Seq = 1, uint64(i+1)
		payload := transport.Encode(m)
		msg, err := transport.Decode(payload)
		if err != nil {
			t.Fatal(err)
		}
		if err := ref.Receive(payload, msg).Err(); err != nil {
			t.Fatal(err)
		}
	}
	want := coordStateBytes(t, refCoord, refDed, uint64(len(stream)))
	if got := coordStateBytes(t, rec2.Coord, rec2.Dedupe, store2.Applied()); !bytes.Equal(got, want) {
		t.Fatalf("restarted server state differs from uninterrupted reference (%d vs %d bytes)", len(got), len(want))
	}

	// A third incarnation recovers the post-restart appends and agrees.
	store3, rec3, err := durable.Open(dir, cfg, durable.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer store3.Close()
	if rec3.RecordsReplayed != len(stream)-cut {
		t.Fatalf("second recovery replayed %d records, want %d", rec3.RecordsReplayed, len(stream)-cut)
	}
	if got := coordStateBytes(t, rec3.Coord, rec3.Dedupe, store3.Applied()); !bytes.Equal(got, want) {
		t.Fatal("second recovery diverged from the reference state")
	}
}

// TestWrongDimRefusedFromHeader: a NewModel whose mixture header declares
// another d than the coordinator's is nacked from its header alone. A
// K = 1, d = 2048 frame (16.8 MB of covariance) sent to a durable d = 4
// coordinator is refused before any covariance is parsed or factored, and
// before the WAL sees it.
func TestWrongDimRefusedFromHeader(t *testing.T) {
	const d = 2048
	store, rec, err := durable.Open(t.TempDir(), coordinator.Config{Dim: 4}, durable.Options{})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServerOpts("127.0.0.1:0", rec.Coord, ServerOptions{Store: store, Dedupe: rec.Dedupe})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	srv.Logf = func(string, ...any) {}

	// The frame is written by hand: building the Mixture would factor the
	// covariance the receiver must not.
	frame := transport.Encode(transport.Message{Kind: transport.MsgNewModel, SiteID: 1, ModelID: 1, Count: 10, Epoch: 1, Seq: 1})
	frame = binary.LittleEndian.AppendUint32(frame, 1)
	frame = binary.LittleEndian.AppendUint32(frame, d)
	frame = binary.LittleEndian.AppendUint64(frame, math.Float64bits(1))
	frame = append(frame, make([]byte, 8*d)...) // the mean
	for r := 0; r < d; r++ {
		frame = append(frame, make([]byte, 8*r)...)
		frame = binary.LittleEndian.AppendUint64(frame, math.Float64bits(1))
	}

	walBefore := store.WALRecords()
	var reply bytes.Buffer
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err = srv.respond(&reply, frame)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(reply.Bytes(), []byte{ackErr}) {
		t.Fatalf("reply %x, want the nack %x", reply.Bytes(), ackErr)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Errorf("refusing a %d-byte frame allocated %d bytes, want < 1 MB", len(frame), got)
	}
	if got := store.WALRecords(); got != walBefore {
		t.Errorf("WAL grew from %d to %d records", walBefore, got)
	}
	if st := srv.DeliveryStats(); st.ApplyErrors != 1 || st.Applied != 0 {
		t.Errorf("delivery stats %+v, want one refusal and nothing applied", st)
	}
}
