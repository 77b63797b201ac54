package tree

import (
	"math/rand"
	"testing"

	"cludistream/internal/netsim"
	"cludistream/internal/transport"
)

// testEdge builds a fault-tolerant edge over a fresh link whose deliveries
// are decoded into *got.
func testEdge(t *testing.T, sim *netsim.Simulator, latency, bandwidth float64, plan *netsim.FaultPlan, seed int64, got *[]transport.Message) *edge {
	t.Helper()
	link, err := sim.NewFaultyLink(latency, bandwidth, plan, func(p []byte) {
		msg, err := transport.Decode(p)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		*got = append(*got, msg)
	})
	if err != nil {
		t.Fatal(err)
	}
	e := &edge{fromID: 1, sim: sim, link: link, epoch: 1, jitter: rand.New(rand.NewSource(seed)), sent: map[uint32]*SendTally{}}
	e.snd = e.newSender()
	return e
}

func update(model int) transport.Message {
	return transport.Message{Kind: transport.MsgWeightUpdate, SiteID: 1, ModelID: int32(model), Count: 10}
}

// TestEdgeRetransmitsInOrder: an outage refuses every frame arriving before
// t=2; the edge retries with backoff and delivers all five messages once
// each, in order, with the wire bytes decomposing into goodput + losses.
func TestEdgeRetransmitsInOrder(t *testing.T) {
	sim := netsim.NewSimulator()
	var got []transport.Message
	e := testEdge(t, sim, 0.1, 0, &netsim.FaultPlan{Outages: []netsim.Outage{{Start: 0, End: 2}}}, 3, &got)
	for i := 0; i < 5; i++ {
		e.send(update(i))
	}
	sim.Run()
	if len(got) != 5 {
		t.Fatalf("delivered %d of 5 (queued %d)", len(got), e.snd.Stats().Queued)
	}
	for i, msg := range got {
		if msg.ModelID != int32(i) || msg.Seq != uint64(i+1) || msg.Epoch != 1 {
			t.Fatalf("delivery %d = model %d seq %d epoch %d: order violated", i, msg.ModelID, msg.Seq, msg.Epoch)
		}
	}
	st := e.snd.Stats()
	if st.Retries == 0 || e.link.RetransmitBytes() == 0 {
		t.Fatalf("outage survived without retries (retries=%d, retransmit=%d)", st.Retries, e.link.RetransmitBytes())
	}
	if st.Acked != 5 || st.Queued != 0 {
		t.Fatalf("sender stats %+v", st)
	}
	sent := e.sent[1]
	if e.link.GoodputBytes() != sent.Bytes {
		t.Fatalf("goodput = %d, want the %d bytes sent", e.link.GoodputBytes(), sent.Bytes)
	}
	if _, dropped := e.link.Dropped(); e.link.BytesSent() != e.link.GoodputBytes()+dropped {
		t.Fatalf("bytes %d != goodput %d + dropped %d", e.link.BytesSent(), e.link.GoodputBytes(), dropped)
	}
}

// TestEdgeCrashDropsQueue: a sender crash loses its queue — the pending
// retry timer fires harmlessly on the successor — while the retry count
// survives, and the successor speaks under the next epoch from seq 1.
func TestEdgeCrashDropsQueue(t *testing.T) {
	sim := netsim.NewSimulator()
	var got []transport.Message
	e := testEdge(t, sim, 0, 0, &netsim.FaultPlan{Outages: []netsim.Outage{{Start: 0, End: 10}}}, 4, &got)
	e.send(update(1))
	e.send(update(2))
	if q := e.snd.Stats().Queued; q != 2 {
		t.Fatalf("queued = %d", q)
	}
	retries := e.snd.Stats().Retries
	e.restart()
	if q := e.snd.Stats().Queued; q != 0 {
		t.Fatal("crash kept the queue")
	}
	if e.retries != retries || e.epoch != 2 {
		t.Fatalf("after crash: retries %d (want %d), epoch %d", e.retries, retries, e.epoch)
	}
	sim.Run()
	if len(got) != 0 {
		t.Fatalf("delivered %d after crash", len(got))
	}
	// The restarted incarnation sends again, and gets through once the
	// outage ends.
	e.send(update(3))
	sim.Run()
	if len(got) != 1 || got[0].ModelID != 3 || got[0].Epoch != 2 || got[0].Seq != 1 {
		t.Fatalf("restart delivery = %+v", got)
	}
}

// TestEdgeAccountingReconciles: across a heterogeneous set of lossy links,
// every link's wire bytes decompose exactly into goodput + dropped,
// goodput equals the bytes the edge was handed, and the link's
// transmissions and retransmitted bytes reconcile with the sender's
// retries.
func TestEdgeAccountingReconciles(t *testing.T) {
	sim := netsim.NewSimulator()
	shapes := []struct {
		latency, bandwidth, drop float64
	}{
		{0.01, 0, 0.3},
		{0.05, 5000, 0.2},
		{0.2, 200, 0},
	}
	var edges []*edge
	var got []transport.Message
	for i, sh := range shapes {
		var plan *netsim.FaultPlan
		if sh.drop > 0 {
			plan = &netsim.FaultPlan{DropProb: sh.drop, Rand: rand.New(rand.NewSource(int64(i + 1)))}
		}
		edges = append(edges, testEdge(t, sim, sh.latency, sh.bandwidth, plan, int64(100+i), &got))
	}
	rng := rand.New(rand.NewSource(9))
	msgs := make([]int, len(edges))
	for rec := 0; rec < 60; rec++ {
		i := rng.Intn(len(edges))
		msgs[i]++
		m := update(rec)
		if rec%3 == 0 {
			m.TraceID, m.SpanID = uint64(rec+1), 7 // traced frames carry the suffix
		}
		edges[i].send(m)
	}
	sim.Run()
	if len(got) != 60 {
		t.Fatalf("delivered %d of 60", len(got))
	}
	for i, e := range edges {
		st := e.snd.Stats()
		sent := e.sent[1]
		if st.Queued != 0 || st.Acked != msgs[i] || sent.Msgs != msgs[i] {
			t.Fatalf("link %d: %+v after %d sends (tally %+v)", i, st, msgs[i], *sent)
		}
		_, droppedBytes := e.link.Dropped()
		if e.link.BytesSent() != e.link.GoodputBytes()+droppedBytes {
			t.Fatalf("link %d: wire %d != goodput %d + dropped %d",
				i, e.link.BytesSent(), e.link.GoodputBytes(), droppedBytes)
		}
		// Exactly-once goodput: each frame crosses successfully once.
		if e.link.GoodputBytes() != sent.Bytes {
			t.Fatalf("link %d: goodput %d != %d bytes sent", i, e.link.GoodputBytes(), sent.Bytes)
		}
		// Every wire message is either a first attempt or a retry, and
		// retransmitted bytes are exactly the re-sent copies.
		if e.link.Messages() != msgs[i]+st.Retries {
			t.Fatalf("link %d: %d wire messages != %d sends + %d retries",
				i, e.link.Messages(), msgs[i], st.Retries)
		}
		if e.link.RetransmitBytes() != e.link.BytesSent()-sent.Bytes {
			t.Fatalf("link %d: retransmit bytes %d != wire %d - first-attempt %d",
				i, e.link.RetransmitBytes(), e.link.BytesSent(), sent.Bytes)
		}
	}
}
