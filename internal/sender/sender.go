// Package sender is the delivery protocol of one uplink — a site's toward
// its coordinator, or an aggregator's toward its parent — as a sans-I/O
// state machine. It stamps every message with the sender's epoch and a
// monotone sequence number, queues it in a bounded outbox, and tells its
// driver what to do next: dial, open the connection with the restart
// handshake, transmit the outbox head, wait out a backoff, or nothing. The
// driver performs the action and reports the outcome as an event.
//
// The sender does no I/O and reads no clock: the driver passes the time as
// float64 seconds on whatever clock it runs. Two drivers run it —
// netio.Conn over TCP sockets, and tree.Deployment's edges over netsim
// links on the virtual clock — so the protocol the deterministic simulation
// verifies is the one the daemons ship.
//
// The driver reports the outcome of one action before the next Enqueue.
package sender

import (
	"math"
	"math/rand"

	"cludistream/internal/telemetry"
	"cludistream/internal/transport"
)

// OutboxLimit bounds the outbox. Enqueue on a full outbox drops the oldest
// entry to admit the new one, and counts it in DeliveryStats.Dropped.
const OutboxLimit = 4096

// The default backoff: the first retry waits up to DefaultBaseBackoff
// seconds, and the delay doubles per consecutive failure up to
// DefaultMaxBackoff.
const (
	DefaultBaseBackoff = 0.1
	DefaultMaxBackoff  = 2.0
)

// stormStreak is how many consecutive no-progress reconnects count as a
// reconnect storm (a flapping link or a coordinator that accepts and
// immediately drops connections).
const stormStreak = 3

// Config parameterizes a Sender.
type Config struct {
	// Epoch is the sender's incarnation number (default 1). A process
	// that restarts after a crash must use a strictly higher epoch so the
	// receiver discards the dead incarnation's state.
	Epoch uint32
	// Handshake opens every connection with the restart handshake: a Hello
	// action, whose watermark reply (OnWatermark) prunes every entry the
	// receiver has already durably applied.
	Handshake bool
	// BaseBackoff and MaxBackoff shape the retry delay in seconds
	// (defaults DefaultBaseBackoff and DefaultMaxBackoff; MaxBackoff is
	// raised to BaseBackoff if smaller). After k consecutive failures the
	// delay is min(BaseBackoff·2^(k−1), MaxBackoff)·(0.5 + 0.5·U), U
	// uniform in [0, 1) from Rand.
	BaseBackoff, MaxBackoff float64
	// Rand draws the backoff jitter; nil uses a fixed-seed source.
	Rand *rand.Rand
	// Telemetry, when non-nil, mirrors DeliveryStats into net.*
	// instruments and journals every reconnect ("net-reconnect") and
	// reconnect storm ("net-reconnect-storm"), with Peer as the note.
	Telemetry *telemetry.Registry
	Peer      string
}

// DeliveryStats counts the work of fault-tolerant delivery.
type DeliveryStats struct {
	// Acked is the number of messages acknowledged by the receiver.
	Acked int
	// GoodputBytes is the payload bytes of acked messages, counted once
	// per message regardless of how many attempts it took.
	GoodputBytes int
	// RetransmitBytes is the payload bytes of second and later attempts —
	// the wire overhead of fault tolerance.
	RetransmitBytes int
	// Retries is the number of failed round-trip attempts.
	Retries int
	// Reconnects is the number of successful re-dials after a broken
	// connection.
	Reconnects int
	// Dropped counts messages the outbox overflow discarded.
	Dropped int
	// Rejected counts messages the receiver refused (OnReject).
	Rejected int
	// HandshakePruned counts queued messages the restart handshake removed
	// because the receiver's durable watermark already covered them —
	// retransmissions the handshake saved.
	HandshakePruned int
	// Queued is the current outbox depth.
	Queued int
}

// Entry is one queued message. Payload is its encoding without the trace
// suffix; TraceID/SpanID carry the producing chunk's trace context
// side-band, so a driver decides per transmission whether the suffix goes
// on the wire (Frame).
type Entry struct {
	Payload         []byte
	Epoch           uint32
	Seq             uint64
	TraceID, SpanID uint64
	// Attempts counts the entry's transmissions, the current one
	// included: above 1 the transmission is a retransmission.
	Attempts int
}

// Frame returns the bytes of one transmission: the payload, with the
// 16-byte trace suffix appended when traced is set and the entry carries
// trace context. The payload itself is never modified.
func (e *Entry) Frame(traced bool) []byte {
	if !traced || (e.TraceID == 0 && e.SpanID == 0) {
		return e.Payload
	}
	n := len(e.Payload) // capped, so the suffix lands in a copy
	return transport.AppendTraceSuffix(e.Payload[:n:n], e.TraceID, e.SpanID)
}

// Kind is what a driver should do next.
type Kind uint8

const (
	// Idle: the outbox is empty.
	Idle Kind = iota
	// Wait: a backoff is running; nothing is due before Action.Until.
	Wait
	// Dial: there is no connection. Report OnConnected or OnError.
	Dial
	// Hello: the new connection owes the restart handshake. Report
	// OnWatermark with the receiver's reply, or OnError.
	Hello
	// Transmit: send Action.Entry. Report OnAck, OnReject or OnError.
	Transmit
)

// Action is the sender's answer to Next.
type Action struct {
	Kind Kind
	// Until is when a Wait ends, on the driver's clock.
	Until float64
	// Entry is the outbox head a Transmit sends. It stays valid until the
	// transmission's outcome is reported.
	Entry *Entry
}

// Sender is one incarnation's delivery state: sequence space, outbox,
// connection state, backoff and counters.
type Sender struct {
	cfg     Config // defaults applied
	nextSeq uint64
	outbox  []Entry

	connected bool
	dialed    bool // a connection was made before: the next one is a reconnect
	helloDone bool // the handshake ran on the current connection
	fails     int  // consecutive failures (the backoff exponent)
	notBefore float64
	// progressed / noProgress detect reconnect storms: a reconnect with no
	// ack since the previous one extends a no-progress streak, and a
	// streak of stormStreak reconnects counts one storm.
	progressed bool
	noProgress int

	highWater int // peak outbox depth
	stats     DeliveryStats
	tele      instruments
}

// instruments are a Sender's net.* telemetry (all nil ⇒ no-op). The
// counters aggregate across every sender sharing a registry, so a
// snapshot shows deployment-wide delivery behaviour.
type instruments struct {
	reg                                 *telemetry.Registry
	sends, acked, goodput, retransmit   *telemetry.Counter
	retries, reconnects, storms, pruned *telemetry.Counter
	dropped, rejected, backoffs         *telemetry.Counter
	backoffSecs                         *telemetry.Histogram
	depth, highWater                    *telemetry.Gauge
}

func newInstruments(reg *telemetry.Registry) instruments {
	if reg == nil {
		return instruments{}
	}
	return instruments{
		reg:        reg,
		sends:      reg.Counter("net.sends"),
		acked:      reg.Counter("net.acked"),
		goodput:    reg.Counter("net.goodput_bytes"),
		retransmit: reg.Counter("net.retransmit_bytes"),
		retries:    reg.Counter("net.retries"),
		reconnects: reg.Counter("net.reconnects"),
		dropped:    reg.Counter("net.dropped"),
		rejected:   reg.Counter("net.rejected"),
		backoffs:   reg.Counter("net.backoff_waits"),
		backoffSecs: reg.Histogram("net.backoff_seconds",
			0.01, 0.05, 0.1, 0.5, 1, 2, 5, 10),
		depth:     reg.Gauge("net.outbox_depth"),
		highWater: reg.Gauge("net.outbox_high_water"),
		storms:    reg.Counter("net.reconnect_storms"),
		pruned:    reg.Counter("net.handshake_pruned"),
	}
}

// New returns a disconnected sender with an empty outbox.
func New(cfg Config) *Sender {
	if cfg.Epoch == 0 {
		cfg.Epoch = 1
	}
	if !(cfg.BaseBackoff > 0) {
		cfg.BaseBackoff = DefaultBaseBackoff
	}
	if !(cfg.MaxBackoff > 0) {
		cfg.MaxBackoff = DefaultMaxBackoff
	}
	if cfg.MaxBackoff < cfg.BaseBackoff {
		cfg.MaxBackoff = cfg.BaseBackoff
	}
	if cfg.Rand == nil {
		cfg.Rand = rand.New(rand.NewSource(1))
	}
	return &Sender{cfg: cfg, tele: newInstruments(cfg.Telemetry)}
}

// Enqueue stamps msg with the sender's epoch and next sequence number,
// queues its encoding and returns the stamped message. A full outbox drops
// its oldest entry first.
func (s *Sender) Enqueue(msg transport.Message) transport.Message {
	s.nextSeq++
	msg.Seq, msg.Epoch = s.nextSeq, s.cfg.Epoch
	bare := msg
	bare.TraceID, bare.SpanID = 0, 0
	if len(s.outbox) >= OutboxLimit {
		s.popHead()
		s.stats.Dropped++
		s.tele.dropped.Inc()
	}
	s.outbox = append(s.outbox, Entry{
		Payload: transport.Encode(bare), Epoch: msg.Epoch, Seq: msg.Seq,
		TraceID: msg.TraceID, SpanID: msg.SpanID,
	})
	s.tele.sends.Inc()
	if n := len(s.outbox); n > s.highWater {
		s.highWater = n
		s.tele.highWater.Set(float64(n))
	}
	s.tele.depth.Set(float64(len(s.outbox)))
	return msg
}

// Next returns what the driver should do at time now. A Transmit counts
// as one attempt of the outbox head.
func (s *Sender) Next(now float64) Action {
	if len(s.outbox) == 0 {
		return Action{Kind: Idle}
	}
	if !s.connected {
		if now < s.notBefore {
			return Action{Kind: Wait, Until: s.notBefore}
		}
		return Action{Kind: Dial}
	}
	if s.cfg.Handshake && !s.helloDone {
		return Action{Kind: Hello}
	}
	head := &s.outbox[0]
	head.Attempts++
	if head.Attempts > 1 {
		s.stats.RetransmitBytes += len(head.Payload)
		s.tele.retransmit.Add(int64(len(head.Payload)))
	}
	return Action{Kind: Transmit, Entry: head}
}

// OnConnected reports that a Dial succeeded. Every connection after the
// first counts as a reconnect.
func (s *Sender) OnConnected() {
	s.connected, s.helloDone = true, false
	if !s.dialed {
		s.dialed = true
		return
	}
	s.stats.Reconnects++
	s.tele.reconnects.Inc()
	s.tele.reg.Record(telemetry.Event{Kind: "net-reconnect", N: s.fails, Note: s.cfg.Peer})
	// Storm detection: reconnecting without a single ack since the
	// previous reconnect means the link is churning, not working.
	if s.progressed {
		s.noProgress = 0
	} else {
		s.noProgress++
		if s.noProgress == stormStreak {
			s.tele.storms.Inc()
			s.tele.reg.Record(telemetry.Event{Kind: "net-reconnect-storm", N: s.noProgress, Note: s.cfg.Peer})
		}
	}
	s.progressed = false
}

// OnAck reports that the receiver acknowledged the transmitted head.
func (s *Sender) OnAck() {
	n := len(s.outbox[0].Payload)
	s.stats.Acked++
	s.stats.GoodputBytes += n
	s.tele.acked.Inc()
	s.tele.goodput.Add(int64(n))
	s.popHead()
	s.fails = 0
	s.progressed = true
}

// OnReject reports that the receiver decoded the transmitted head and
// refused it: the connection is healthy and retrying cannot help, so the
// head is discarded.
func (s *Sender) OnReject() {
	s.stats.Rejected++
	s.tele.rejected.Inc()
	s.popHead()
	s.fails = 0
}

// OnError reports at time now that a Dial, Hello or Transmit failed. A
// failed round trip costs the connection; either way the next attempt
// waits out a jittered backoff.
func (s *Sender) OnError(now float64) {
	if s.connected {
		s.stats.Retries++
		s.tele.retries.Inc()
		s.connected, s.helloDone = false, false
	}
	s.fails++
	d := s.cfg.BaseBackoff * math.Pow(2, float64(s.fails-1))
	if d > s.cfg.MaxBackoff {
		d = s.cfg.MaxBackoff
	}
	d *= 0.5 + 0.5*s.cfg.Rand.Float64()
	s.notBefore = now + d
	s.tele.backoffs.Inc()
	s.tele.backoffSecs.Observe(d)
}

// OnClosed reports that the driver closed the connection on purpose: the
// next action redials at once, and no failure is counted.
func (s *Sender) OnClosed() { s.connected, s.helloDone = false, false }

// OnWatermark reports the handshake's reply: the receiver's durable
// (epoch, maxSeq) high-water mark for this sender. Every queued entry at
// or below it is pruned — a lower epoch is an incarnation the receiver has
// superseded, and (epoch, seq ≤ maxSeq) was applied before a receiver
// restart — so only the unapplied suffix is retransmitted.
func (s *Sender) OnWatermark(epoch uint32, maxSeq uint64) {
	kept := s.outbox[:0]
	for _, e := range s.outbox {
		if e.Epoch < epoch || (e.Epoch == epoch && e.Seq <= maxSeq) {
			s.stats.HandshakePruned++
			s.tele.pruned.Inc()
			continue
		}
		kept = append(kept, e)
	}
	clear(s.outbox[len(kept):]) // release pruned payloads
	s.outbox = kept
	s.tele.depth.Set(float64(len(s.outbox)))
	s.helloDone = true
}

// Stats returns the delivery counters.
func (s *Sender) Stats() DeliveryStats {
	st := s.stats
	st.Queued = len(s.outbox)
	return st
}

func (s *Sender) popHead() {
	s.outbox[0] = Entry{}
	s.outbox = s.outbox[1:]
	s.tele.depth.Set(float64(len(s.outbox)))
}
