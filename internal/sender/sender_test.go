package sender

import (
	"math"
	"math/rand"
	"testing"

	"cludistream/internal/telemetry"
	"cludistream/internal/transport"
)

func msg(model int) transport.Message {
	return transport.Message{Kind: transport.MsgWeightUpdate, SiteID: 7, ModelID: int32(model), Count: 1}
}

// drain performs every action at time now, answering each dial with a
// connection, each hello with an empty watermark and each transmission
// with an ack, and returns the seqs transmitted.
func drain(t *testing.T, s *Sender, now float64) []uint64 {
	t.Helper()
	var seqs []uint64
	for {
		switch act := s.Next(now); act.Kind {
		case Idle:
			return seqs
		case Dial:
			s.OnConnected()
		case Hello:
			s.OnWatermark(0, 0)
		case Transmit:
			seqs = append(seqs, act.Entry.Seq)
			s.OnAck()
		default:
			t.Fatalf("unexpected action %+v", act)
		}
	}
}

// TestOutboxOverflowDropsOldest: the outbox holds OutboxLimit entries; the
// next Enqueue drops seq 1 and counts it, and the survivors keep their
// order.
func TestOutboxOverflowDropsOldest(t *testing.T) {
	reg := telemetry.NewRegistry()
	s := New(Config{Telemetry: reg})
	for i := 0; i <= OutboxLimit; i++ {
		if got := s.Enqueue(msg(i)).Seq; got != uint64(i+1) {
			t.Fatalf("enqueue %d stamped seq %d", i, got)
		}
	}
	st := s.Stats()
	if st.Dropped != 1 || st.Queued != OutboxLimit {
		t.Fatalf("dropped %d, queued %d; want 1, %d", st.Dropped, st.Queued, OutboxLimit)
	}
	snap := reg.Snapshot()
	if got := snap.Counters["net.dropped"]; got != 1 {
		t.Fatalf("net.dropped = %d, want 1", got)
	}
	if got := snap.Gauges["net.outbox_high_water"]; got != OutboxLimit {
		t.Fatalf("net.outbox_high_water = %v, want %d", got, OutboxLimit)
	}
	seqs := drain(t, s, 0)
	if len(seqs) != OutboxLimit {
		t.Fatalf("drained %d entries, want %d", len(seqs), OutboxLimit)
	}
	for i, seq := range seqs {
		if seq != uint64(i+2) {
			t.Fatalf("entry %d has seq %d, want %d: survivors out of order", i, seq, i+2)
		}
	}
	if st := s.Stats(); st.Acked != OutboxLimit || st.Queued != 0 {
		t.Fatalf("after drain: %+v", st)
	}
}

// TestBackoffSchedule pins the retry delay after k consecutive failures,
// k = 1..8 (the last ones at the cap), to min(base·2^(k−1), max) scaled
// by 0.5 + 0.5·U, U drawn from the sender's jitter source — the schedule
// TestSystemGolden's faulty pin hashes.
func TestBackoffSchedule(t *testing.T) {
	const base, max = 0.1, 2.0
	s := New(Config{Rand: rand.New(rand.NewSource(42))})
	ref := rand.New(rand.NewSource(42))
	s.Enqueue(msg(0))
	now := 0.0
	for k := 1; k <= 8; k++ {
		if act := s.Next(now); act.Kind != Dial {
			t.Fatalf("k=%d: action %+v, want Dial", k, act)
		}
		s.OnConnected()
		if act := s.Next(now); act.Kind != Transmit || act.Entry.Attempts != k {
			t.Fatalf("k=%d: action %+v, want attempt %d", k, act, k)
		}
		s.OnError(now)
		d := base * math.Pow(2, float64(k-1))
		if d > max {
			d = max
		}
		d *= 0.5 + 0.5*ref.Float64()
		act := s.Next(now)
		if act.Kind != Wait || act.Until != now+d {
			t.Fatalf("k=%d: action %+v, want Wait until %v", k, act, now+d)
		}
		now = act.Until
	}
	if st := s.Stats(); st.Retries != 8 || st.Reconnects != 7 {
		t.Fatalf("retries %d, reconnects %d; want 8, 7", st.Retries, st.Reconnects)
	}
	// An ack resets the exponent.
	drain(t, s, now)
	s.Enqueue(msg(1))
	s.Next(now)
	s.OnError(now)
	if act := s.Next(now); act.Until-now > base {
		t.Fatalf("first backoff after an ack waits %v, want at most %v", act.Until-now, base)
	}
}

// TestWatermarkPrune: the handshake's watermark prunes every entry at or
// below it — all of a superseded epoch, the applied prefix of the current
// one — and nothing above it.
func TestWatermarkPrune(t *testing.T) {
	for _, tc := range []struct {
		name   string
		epoch  uint32
		maxSeq uint64
		want   []uint64
	}{
		{"older epoch", 1, 100, []uint64{1, 2, 3, 4, 5}},
		{"applied prefix", 2, 3, []uint64{4, 5}},
		{"nothing applied", 2, 0, []uint64{1, 2, 3, 4, 5}},
		{"newer epoch", 3, 0, nil},
	} {
		reg := telemetry.NewRegistry()
		s := New(Config{Epoch: 2, Handshake: true, Telemetry: reg})
		for i := 0; i < 5; i++ {
			s.Enqueue(msg(i))
		}
		if act := s.Next(0); act.Kind != Dial {
			t.Fatalf("%s: action %+v", tc.name, act)
		}
		s.OnConnected()
		if act := s.Next(0); act.Kind != Hello {
			t.Fatalf("%s: action %+v, want Hello", tc.name, act)
		}
		s.OnWatermark(tc.epoch, tc.maxSeq)
		pruned := 5 - len(tc.want)
		if got := s.Stats().HandshakePruned; got != pruned {
			t.Fatalf("%s: pruned %d, want %d", tc.name, got, pruned)
		}
		if got := reg.Snapshot().Counters["net.handshake_pruned"]; got != int64(pruned) {
			t.Fatalf("%s: net.handshake_pruned = %d, want %d", tc.name, got, pruned)
		}
		got := drain(t, s, 0)
		if len(got) != len(tc.want) {
			t.Fatalf("%s: transmitted %v, want %v", tc.name, got, tc.want)
		}
		for i := range got {
			if got[i] != tc.want[i] {
				t.Fatalf("%s: transmitted %v, want %v", tc.name, got, tc.want)
			}
		}
	}
}

// TestReconnectStorm: three reconnects in a row without an ack count one
// storm and journal it, and every reconnect is journaled with its peer.
func TestReconnectStorm(t *testing.T) {
	reg := telemetry.NewRegistry()
	s := New(Config{Telemetry: reg, Peer: "coord:1"})
	s.Enqueue(msg(0))
	now := 0.0
	for i := 0; i < 5; i++ {
		act := s.Next(now)
		if act.Kind == Wait {
			now = act.Until
			act = s.Next(now)
		}
		if act.Kind != Dial {
			t.Fatalf("round %d: action %+v", i, act)
		}
		s.OnConnected()
		s.Next(now)
		s.OnError(now)
	}
	if got := reg.Snapshot().Counters["net.reconnect_storms"]; got != 1 {
		t.Fatalf("net.reconnect_storms = %d after 4 no-progress reconnects, want 1", got)
	}
	var storms, reconnects int
	for _, e := range reg.Journal().Tail(0) {
		switch e.Kind {
		case "net-reconnect-storm":
			storms++
		case "net-reconnect":
			reconnects++
			if e.Note != "coord:1" {
				t.Fatalf("reconnect note %q", e.Note)
			}
		}
	}
	if storms != 1 || reconnects != 4 {
		t.Fatalf("journal: %d storms, %d reconnects; want 1, 4", storms, reconnects)
	}
}

// FuzzSender drives one sender through random legal event sequences — a
// driver reporting any outcome for any action, with time advancing and
// bursts of enqueues — and checks after every event that no message is
// unaccounted for, that the outbox holds strictly increasing seqs, that
// nothing at or below a watermark survives it, and that every backoff lies
// in [d/2, d] for the capped exponential d.
//
// ops is read one byte at a time: the low 3 bits pick the event, the high
// 5 bits parameterize it.
func FuzzSender(f *testing.F) {
	f.Add(byte(0), []byte{0, 4, 4, 4, 8, 4, 12, 3, 4, 4})
	f.Add(byte(3), []byte{1, 1, 1, 4, 4, 4, 36, 4, 68, 4, 4, 4, 4})
	f.Add(byte(5), []byte{2 | 31<<3, 4, 4, 4, 4, 4, 0, 4, 4})
	f.Add(byte(2), []byte{0, 0, 4, 12, 4, 28, 4, 4, 20, 4, 4, 3 | 8<<3, 4, 4})
	f.Fuzz(func(t *testing.T, mode byte, ops []byte) {
		epoch := uint32(mode%4) + 1
		s := New(Config{Epoch: epoch, Handshake: mode&4 != 0, Rand: rand.New(rand.NewSource(int64(mode)))})
		enqueued := 0
		now := 0.0
		for i, b := range ops {
			arg := int(b >> 3)
			switch op := b & 7; {
			case op <= 1:
				s.Enqueue(msg(arg))
				enqueued++
			case op == 2:
				for j := 0; j < arg*200; j++ {
					s.Enqueue(msg(j))
				}
				enqueued += arg * 200
			case op == 3:
				now += float64(arg) * 0.05
			default:
				act := s.Next(now)
				switch act.Kind {
				case Wait:
					if act.Until <= now {
						t.Fatalf("op %d: wait until %v at %v", i, act.Until, now)
					}
					if arg%2 == 0 {
						now = act.Until
					}
				case Dial:
					if arg%4 == 0 {
						checkBackoff(t, s, now)
					} else {
						s.OnConnected()
					}
				case Hello:
					if arg%4 == 0 {
						checkBackoff(t, s, now)
						break
					}
					// A watermark in the epoch before, of or after the
					// sender's, at a small seq.
					we := epoch + uint32(arg%3) - 1
					ws := uint64(arg / 3)
					s.OnWatermark(we, ws)
					for _, e := range s.outbox {
						if e.Epoch < we || (e.Epoch == we && e.Seq <= ws) {
							t.Fatalf("op %d: entry (%d,%d) survived watermark (%d,%d)", i, e.Epoch, e.Seq, we, ws)
						}
					}
				case Transmit:
					switch arg % 3 {
					case 0:
						s.OnAck()
					case 1:
						s.OnReject()
					default:
						checkBackoff(t, s, now)
					}
				}
			}
			st := s.Stats()
			if got := st.Acked + st.Rejected + st.Dropped + st.HandshakePruned + st.Queued; got != enqueued {
				t.Fatalf("op %d: enqueued %d != acked %d + rejected %d + dropped %d + pruned %d + queued %d",
					i, enqueued, st.Acked, st.Rejected, st.Dropped, st.HandshakePruned, st.Queued)
			}
			for j := 1; j < len(s.outbox); j++ {
				if s.outbox[j].Seq <= s.outbox[j-1].Seq {
					t.Fatalf("op %d: outbox seqs %d then %d", i, s.outbox[j-1].Seq, s.outbox[j].Seq)
				}
			}
		}
	})
}

// checkBackoff reports a failure at now and checks the delay it arms.
func checkBackoff(t *testing.T, s *Sender, now float64) {
	t.Helper()
	s.OnError(now)
	d := math.Min(s.cfg.BaseBackoff*math.Pow(2, float64(s.fails-1)), s.cfg.MaxBackoff)
	if w := s.notBefore - now; w < d/2 || w > d {
		t.Fatalf("after %d failures: backoff %v outside [%v, %v]", s.fails, w, d/2, d)
	}
}
