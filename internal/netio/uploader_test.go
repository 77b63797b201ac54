package netio

import (
	"testing"
	"time"

	"cludistream/internal/coordinator"
	"cludistream/internal/durable"
	"cludistream/internal/gaussian"
	"cludistream/internal/hier"
	"cludistream/internal/linalg"
)

// uploader is an aggregator's uplink as coordd -connect runs it: the
// upload mirror's messages queued on one connection.
type uploader struct {
	conn *Conn
	*hier.UploadMirror
}

func newUploader(conn *Conn, nodeID int) uploader {
	return uploader{conn, hier.NewUploadMirror(nodeID)}
}

func (u uploader) Sync(mix *gaussian.Mixture, totalWeight float64) (bool, error) {
	msgs := u.UploadMirror.Sync(mix, totalWeight)
	for _, m := range msgs {
		if err := u.conn.Send(m); err != nil {
			return false, err
		}
	}
	return len(msgs) > 0, nil
}

// TestUploaderReconnectPreservesDedupeWatermark: an aggregator child
// disconnects (its parent restarts in place, keeping coordinator + dedupe
// state) and reconnects through the watermark handshake. The parent's
// per-child (epoch, seq) watermark must survive the disconnect — the
// re-drained outbox advances it monotonically in the same epoch instead of
// resetting it — and the parent must end with exactly one pseudo-model, not
// a duplicate per connection.
func TestUploaderReconnectPreservesDedupeWatermark(t *testing.T) {
	const child = 100
	coord := newCoord(t)
	ded := durable.NewDedupe()
	srv1, err := NewServerOpts("127.0.0.1:0", coord, ServerOptions{Dedupe: ded})
	if err != nil {
		t.Fatal(err)
	}
	addr := srv1.Addr().String()

	conn, err := DialConnRetry(addr, restartPolicy(child))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	up := newUploader(conn, child)

	// First upload while connected.
	sent, err := up.Sync(regime(0), 200)
	if err != nil || !sent {
		t.Fatalf("first sync: sent=%v err=%v", sent, err)
	}
	if err := conn.Flush(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	w1 := ded.Watermark(child)
	if w1.Epoch != 1 || w1.MaxSeq != 1 {
		t.Fatalf("watermark after first upload = %+v", w1)
	}

	// The link drops. The child's merged mixture changes while
	// disconnected: Sync queues the deletion + replacement in the outbox.
	if err := srv1.Close(); err != nil {
		t.Fatal(err)
	}
	sent, err = up.Sync(regime(50), 400)
	if err != nil || !sent {
		t.Fatalf("disconnected sync: sent=%v err=%v", sent, err)
	}

	// The parent comes back with its in-memory state intact (same
	// coordinator, same dedupe table) and the child reconnects.
	srv2, err := NewServerOpts(addr, coord, ServerOptions{Dedupe: ded})
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	if err := conn.Flush(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if d := conn.Delivery(); d.Reconnects == 0 {
		t.Fatal("client never reconnected — the restart was not exercised")
	}

	// Watermark preserved: same epoch, monotonically advanced by the
	// deletion (seq 2) and the replacement model (seq 3).
	w2 := ded.Watermark(child)
	if w2.Epoch != w1.Epoch {
		t.Fatalf("epoch changed across reconnect: %+v -> %+v", w1, w2)
	}
	if w2.MaxSeq != 3 {
		t.Fatalf("watermark after reconnect = %+v, want MaxSeq 3", w2)
	}

	// Exactly one pseudo-model at the parent, carrying the new regime.
	srv2.Snapshot(func(co *coordinator.Coordinator) {
		if co.NumModels() != 1 {
			t.Fatalf("parent holds %d models, want 1", co.NumModels())
		}
		gm := co.GlobalMixture()
		if ll := gm.AvgLogLikelihood([]linalg.Vector{{48}, {52}}); ll < -8 {
			t.Fatalf("replacement regime missing at parent: LL=%v", ll)
		}
	})

	// An unchanged mixture after the reconnect stays silent.
	sent, err = up.Sync(regime(50), 400)
	if err != nil {
		t.Fatal(err)
	}
	if sent {
		t.Fatal("unchanged mixture re-uploaded after reconnect")
	}
}
