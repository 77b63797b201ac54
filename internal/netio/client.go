package netio

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"time"

	"cludistream/internal/linalg"
	"cludistream/internal/site"
	"cludistream/internal/telemetry"
	"cludistream/internal/transport"
	"cludistream/internal/window"
)

// RetryPolicy tunes fault-tolerant delivery on a Conn. The zero value
// selects the defaults noted on each field.
type RetryPolicy struct {
	// DialTimeout bounds each TCP connect (default 10s).
	DialTimeout time.Duration
	// AttemptTimeout bounds one frame+ack round trip (default 5s); a
	// round trip that exceeds it counts as a connection failure.
	AttemptTimeout time.Duration
	// BaseBackoff is the first reconnect delay (default 50ms); it doubles
	// per consecutive failure up to MaxBackoff (default 2s), with
	// deterministic jitter drawn from Rand in [d/2, d).
	BaseBackoff time.Duration
	MaxBackoff  time.Duration
	// MaxAttempts caps transmission attempts per message; a message that
	// fails that many round trips is dropped (counted in
	// DeliveryStats.Dropped). Zero retries forever — the default, since
	// dropping updates silently skews the global model.
	MaxAttempts int
	// OutboxLimit bounds the number of queued messages (default 4096).
	// Overflow drops the oldest queued message.
	OutboxLimit int
	// Epoch is the sender's incarnation number (default 1). A process
	// that restarts after a crash must use a strictly higher epoch so the
	// coordinator discards the dead incarnation's state.
	Epoch uint32
	// SiteID, when non-zero, enables the restart handshake: each new
	// connection opens with a hello frame, and the coordinator's watermark
	// reply prunes every outbox entry it has already durably applied, so a
	// reconnect after a coordinator restart retransmits only the suffix.
	// Dial sets this automatically from the client's site id.
	SiteID int32
	// Rand supplies backoff jitter; nil uses a fixed-seed source (still
	// deterministic, just shared shape across conns).
	Rand *rand.Rand
	// Sleep replaces time.Sleep in blocking flushes (test hook).
	Sleep func(time.Duration)
	// Telemetry, when non-nil, mirrors DeliveryStats into net.* counters
	// and journals reconnects, backoff waits and drops.
	Telemetry *telemetry.Registry
}

func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.DialTimeout <= 0 {
		p.DialTimeout = 10 * time.Second
	}
	if p.AttemptTimeout <= 0 {
		p.AttemptTimeout = 5 * time.Second
	}
	if p.BaseBackoff <= 0 {
		p.BaseBackoff = 50 * time.Millisecond
	}
	if p.MaxBackoff < p.BaseBackoff {
		p.MaxBackoff = 2 * time.Second
		if p.MaxBackoff < p.BaseBackoff {
			p.MaxBackoff = p.BaseBackoff
		}
	}
	if p.OutboxLimit <= 0 {
		p.OutboxLimit = 4096
	}
	if p.Epoch == 0 {
		p.Epoch = 1
	}
	if p.Rand == nil {
		p.Rand = rand.New(rand.NewSource(1))
	}
	if p.Sleep == nil {
		p.Sleep = time.Sleep
	}
	return p
}

// DeliveryStats counts the work of fault-tolerant delivery.
type DeliveryStats struct {
	// Acked is the number of messages acknowledged by the coordinator.
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
	// Dropped counts messages abandoned (outbox overflow or MaxAttempts).
	Dropped int
	// Rejected counts messages the coordinator refused (ErrRemote).
	Rejected int
	// HandshakePruned counts queued messages the restart handshake removed
	// because the coordinator's durable watermark already covered them —
	// retransmissions the handshake saved.
	HandshakePruned int
	// Queued is the current outbox depth.
	Queued int
}

// pending is one queued outbox entry. Epoch and seq mirror the encoded
// payload's delivery metadata so the restart handshake can prune without
// decoding. trace/span carry the producing chunk's trace context
// side-band: the payload itself is encoded suffix-free, and the 16-byte
// trace suffix is appended per transmission only when the connection has
// negotiated the capability.
type pending struct {
	payload  []byte
	epoch    uint32
	seq      uint64
	attempts int
	trace    uint64
	span     uint64
}

// connTele holds a Conn's transport instruments (all nil ⇒ no-op). The
// counters aggregate across every Conn sharing a registry, so a daemon's
// snapshot shows deployment-wide delivery behaviour.
type connTele struct {
	reg         *telemetry.Registry
	sends       *telemetry.Counter
	acked       *telemetry.Counter
	goodput     *telemetry.Counter
	retransmit  *telemetry.Counter
	retries     *telemetry.Counter
	reconnects  *telemetry.Counter
	dropped     *telemetry.Counter
	rejected    *telemetry.Counter
	backoffs    *telemetry.Counter
	backoffSecs *telemetry.Histogram
	depth       *telemetry.Gauge
	highWater   *telemetry.Gauge
	storms      *telemetry.Counter
	pruned      *telemetry.Counter
}

func newConnTele(reg *telemetry.Registry) connTele {
	if reg == nil {
		return connTele{}
	}
	return connTele{
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

// Conn is a fault-tolerant protocol connection: messages are assigned
// per-connection monotone sequence numbers, queued in a bounded outbox,
// and delivered with frame+ack round trips. A broken connection is
// re-dialed with capped exponential backoff; queued messages survive the
// outage and drain in order on reconnect, and the receiver dedupes by
// (site, epoch, seq), so retransmitted frames are exactly-once in effect.
//
// Send never blocks on an unreachable coordinator — it queues and returns
// — so a site degrades gracefully to local-only clustering while
// disconnected. Call Flush to block until the outbox drains. Safe for
// concurrent senders.
type Conn struct {
	mu   sync.Mutex
	addr string
	pol  RetryPolicy

	nc        net.Conn // nil while disconnected
	nextSeq   uint64
	outbox    []pending
	fails     int       // consecutive connection failures (backoff exponent)
	notBefore time.Time // earliest next reconnect attempt

	// helloDone records that the restart handshake ran on the current
	// connection (only meaningful when pol.SiteID != 0).
	helloDone bool
	// progressed / noProgress detect reconnect storms: a reconnect with no
	// ack since the previous one extends a no-progress streak, and a
	// streak of stormStreak reconnects counts one storm.
	progressed bool
	noProgress int

	highWater int // peak outbox depth
	stats     DeliveryStats
	tele      connTele

	// tracer is the registry's tracer (nil when tracing is off). traceOK
	// records that the current connection's handshake granted the
	// trace-suffix capability; it resets with every reconnect, so a
	// coordinator downgrade simply stops the suffixes.
	tracer  *telemetry.Tracer
	traceOK bool
}

// stormStreak is how many consecutive no-progress reconnects count as a
// reconnect storm (a flapping link or a coordinator that accepts and
// immediately drops connections).
const stormStreak = 3

// DialConnRetry opens a protocol connection with an explicit retry
// policy. The initial dial is eager: an unreachable coordinator is
// reported immediately so callers can apply their own startup policy.
func DialConnRetry(addr string, pol RetryPolicy) (*Conn, error) {
	pol = pol.withDefaults()
	nc, err := net.DialTimeout("tcp", addr, pol.DialTimeout)
	if err != nil {
		return nil, err
	}
	return &Conn{addr: addr, pol: pol, nc: nc, tele: newConnTele(pol.Telemetry), tracer: pol.Telemetry.Tracer()}, nil
}

// Send queues one message for delivery and opportunistically drains the
// outbox. It returns nil when the message was delivered or remains
// queued for a later retry, and ErrRemote when the coordinator rejected
// a message during this drain.
func (c *Conn) Send(msg transport.Message) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.nextSeq++
	msg.Seq = c.nextSeq
	msg.Epoch = c.pol.Epoch
	// The payload is encoded suffix-free; whether the trace suffix goes on
	// the wire is the connection's per-transmission capability decision
	// (see transmit), so the queued bytes stay bit-identical to v1/v2.
	trace, span := msg.TraceID, msg.SpanID
	msg.TraceID, msg.SpanID = 0, 0
	if c.tracer != nil && trace != 0 {
		now := c.tracer.Now()
		c.tracer.Record(trace, span, "enqueue",
			int(msg.SiteID), int(msg.ModelID), now, now, msg.WireSize(), "")
	}
	if len(c.outbox) >= c.pol.OutboxLimit {
		// Drop the oldest entry: it is the most stale, and the site's
		// model list will re-derive the coordinator's view anyway.
		c.outbox[0] = pending{}
		c.outbox = c.outbox[1:]
		c.stats.Dropped++
		c.tele.dropped.Inc()
	}
	c.outbox = append(c.outbox, pending{payload: transport.Encode(msg), epoch: msg.Epoch, seq: msg.Seq, trace: trace, span: span})
	c.tele.sends.Inc()
	if n := len(c.outbox); n > c.highWater {
		c.highWater = n
		c.tele.highWater.Set(float64(n))
	}
	err := c.flushLocked(false, time.Time{})
	c.tele.depth.Set(float64(len(c.outbox)))
	return err
}

// Flush blocks until the outbox is empty, retrying with backoff. A
// non-positive timeout waits forever. It returns ErrRemote if the
// coordinator rejected a message, or a timeout error when messages
// remain queued at the deadline.
func (c *Conn) Flush(timeout time.Duration) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	var deadline time.Time
	if timeout > 0 {
		deadline = time.Now().Add(timeout)
	}
	err := c.flushLocked(true, deadline)
	c.tele.depth.Set(float64(len(c.outbox)))
	if err != nil {
		return err
	}
	if n := len(c.outbox); n > 0 {
		return fmt.Errorf("netio: flush timed out with %d messages queued", n)
	}
	return nil
}

// flushLocked drains the outbox head-first. In non-blocking mode it
// stops at the first connection failure or unexpired backoff window; in
// blocking mode it sleeps through backoff until the outbox empties or
// the deadline passes. Callers hold c.mu.
func (c *Conn) flushLocked(block bool, deadline time.Time) error {
	var rejected bool
	for len(c.outbox) > 0 {
		now := time.Now()
		if !deadline.IsZero() && now.After(deadline) {
			break
		}
		if c.nc == nil {
			if wait := c.notBefore.Sub(now); wait > 0 {
				if !block {
					break
				}
				if rem := deadline.Sub(now); !deadline.IsZero() && rem < wait {
					wait = rem
				}
				c.pol.Sleep(wait)
				continue
			}
			nc, err := net.DialTimeout("tcp", c.addr, c.pol.DialTimeout)
			if err != nil {
				c.fails++
				c.armBackoff()
				if !block {
					break
				}
				continue
			}
			c.nc = nc
			c.helloDone = false
			c.stats.Reconnects++
			c.tele.reconnects.Inc()
			if c.tele.reg != nil {
				c.tele.reg.Record(telemetry.Event{
					Kind: "net-reconnect", N: c.fails, Note: c.addr,
				})
			}
			// Storm detection: reconnecting without a single ack since the
			// previous reconnect means the link is churning, not working.
			if c.progressed {
				c.noProgress = 0
			} else {
				c.noProgress++
				if c.noProgress == stormStreak {
					c.tele.storms.Inc()
					if c.tele.reg != nil {
						c.tele.reg.Record(telemetry.Event{
							Kind: "net-reconnect-storm", N: c.noProgress, Note: c.addr,
						})
					}
				}
			}
			c.progressed = false
		}
		if c.pol.SiteID != 0 && !c.helloDone {
			if err := c.handshake(); err != nil {
				c.stats.Retries++
				c.tele.retries.Inc()
				c.nc.Close()
				c.nc = nil
				c.fails++
				c.armBackoff()
				if !block {
					break
				}
				continue
			}
			continue // the prune may have emptied the outbox
		}
		head := &c.outbox[0]
		head.attempts++
		if head.attempts > 1 {
			c.stats.RetransmitBytes += len(head.payload)
			c.tele.retransmit.Add(int64(len(head.payload)))
		}
		err := c.transmit(head)
		switch {
		case err == nil:
			c.stats.Acked++
			c.stats.GoodputBytes += len(head.payload)
			c.tele.acked.Inc()
			c.tele.goodput.Add(int64(len(head.payload)))
			c.popHead()
			c.fails = 0
			c.progressed = true
		case errors.Is(err, ErrRemote):
			// The coordinator decoded the frame and refused it; the
			// connection is healthy and retrying cannot help.
			c.stats.Rejected++
			c.tele.rejected.Inc()
			c.popHead()
			rejected = true
			c.fails = 0
		default:
			c.stats.Retries++
			c.tele.retries.Inc()
			c.nc.Close()
			c.nc = nil
			c.helloDone = false
			c.fails++
			c.armBackoff()
			if c.pol.MaxAttempts > 0 && c.outbox[0].attempts >= c.pol.MaxAttempts {
				c.stats.Dropped++
				c.tele.dropped.Inc()
				c.popHead()
			}
			if !block {
				goto out
			}
		}
	}
out:
	if rejected {
		return ErrRemote
	}
	return nil
}

// handshake runs the restart handshake on a fresh connection: send a
// hello, read the coordinator's durable (epoch, maxSeq) watermark for
// this site, and prune every outbox entry the watermark already covers —
// after a coordinator restart, only the unapplied suffix is retransmitted.
// Callers hold c.mu.
func (c *Conn) handshake() error {
	hello := transport.Message{Kind: transport.MsgHello, SiteID: c.pol.SiteID}
	if c.tracer != nil {
		// Request the trace-suffix capability. Legacy servers ignore a
		// hello's Count, so the bit is invisible to them.
		hello.Count = helloTraceBit
	}
	payload := transport.Encode(hello)
	c.nc.SetDeadline(time.Now().Add(c.pol.AttemptTimeout))
	if err := writeFrame(c.nc, payload); err != nil {
		return err
	}
	epoch, maxSeq, traced, err := readWatermarkAck(c.nc)
	if err != nil {
		return err
	}
	c.traceOK = traced && c.tracer != nil
	c.pruneOutbox(epoch, maxSeq)
	c.helloDone = true
	return nil
}

// pruneOutbox drops queued entries at or below the coordinator's durable
// watermark: lower epochs are from incarnations the coordinator has
// already superseded, and (epoch, seq <= maxSeq) entries were applied
// before the restart.
func (c *Conn) pruneOutbox(epoch uint32, maxSeq uint64) {
	kept := c.outbox[:0]
	for _, p := range c.outbox {
		if p.epoch < epoch || (p.epoch == epoch && p.seq <= maxSeq) {
			c.stats.HandshakePruned++
			c.tele.pruned.Inc()
			continue
		}
		kept = append(kept, p)
	}
	for i := len(kept); i < len(c.outbox); i++ {
		c.outbox[i] = pending{} // release pruned payloads
	}
	c.outbox = kept
}

// transmit performs one frame+ack round trip for the outbox head,
// attaching the 16-byte trace suffix when the connection negotiated the
// capability and recording a wire-send span per attempt (retransmits
// included) under the producing chunk's trace.
func (c *Conn) transmit(head *pending) error {
	payload := head.payload
	if c.traceOK && head.trace != 0 {
		payload = transport.AppendTraceSuffix(append([]byte(nil), payload...), head.trace, head.span)
	}
	ref := c.tracer.Begin(head.trace, head.span, "wire-send", 0, 0)
	err := c.roundTrip(payload)
	note := ""
	if head.attempts > 1 {
		note = "retransmit"
	}
	if err != nil {
		if note == "" {
			note = "dropped"
		} else {
			note = "retransmit-dropped"
		}
	}
	ref.End(len(payload), note)
	return err
}

// roundTrip performs one frame+ack exchange under the attempt deadline.
func (c *Conn) roundTrip(payload []byte) error {
	c.nc.SetDeadline(time.Now().Add(c.pol.AttemptTimeout))
	if err := writeFrame(c.nc, payload); err != nil {
		return err
	}
	return readAck(c.nc)
}

// armBackoff schedules the earliest next reconnect attempt: capped
// exponential in the consecutive-failure count with jitter in [d/2, d).
func (c *Conn) armBackoff() {
	d := c.pol.BaseBackoff << uint(c.fails-1)
	if d <= 0 || d > c.pol.MaxBackoff {
		d = c.pol.MaxBackoff
	}
	d = d/2 + time.Duration(c.pol.Rand.Int63n(int64(d/2)+1))
	c.notBefore = time.Now().Add(d)
	c.tele.backoffs.Inc()
	c.tele.backoffSecs.Observe(d.Seconds())
}

func (c *Conn) popHead() {
	c.outbox[0] = pending{}
	c.outbox = c.outbox[1:]
}

// Delivery returns the full fault-tolerance counters.
func (c *Conn) Delivery() DeliveryStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.stats
	s.Queued = len(c.outbox)
	return s
}

// Close closes the underlying connection. Queued messages are not
// flushed — call Flush first if delivery matters.
func (c *Conn) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.nc == nil {
		return nil
	}
	err := c.nc.Close()
	c.nc = nil
	c.helloDone = false
	return err
}

// Client is the remote-site endpoint: it owns a site.Site, feeds records to
// it, and ships every resulting update to the coordinator over TCP. It is
// safe for use from one goroutine (a site observes one stream; run one
// Client per stream).
type Client struct {
	conn    *Conn
	st      *site.Site
	siteID  int
	tracker *window.Tracker
}

// DialOptions tunes Dial.
type DialOptions struct {
	// Retry tunes fault-tolerant delivery (zero value: defaults).
	Retry RetryPolicy
	// SlidingHorizonChunks enables sliding-window deletions (Section 7)
	// with the given horizon; zero keeps landmark behaviour.
	SlidingHorizonChunks int
}

// Dial connects to the coordinator at addr and wraps st. The site's
// SiteID identifies this client in every message.
func Dial(addr string, st *site.Site, siteID int, opts DialOptions) (*Client, error) {
	if opts.SlidingHorizonChunks < 0 {
		return nil, fmt.Errorf("netio: sliding horizon %d chunks", opts.SlidingHorizonChunks)
	}
	pol := opts.Retry
	if pol.SiteID == 0 {
		pol.SiteID = int32(siteID) // enable the restart handshake
	}
	conn, err := DialConnRetry(addr, pol)
	if err != nil {
		return nil, err
	}
	c := &Client{conn: conn, st: st, siteID: siteID}
	if opts.SlidingHorizonChunks > 0 {
		tr, err := window.NewTracker(st, opts.SlidingHorizonChunks)
		if err != nil {
			conn.Close()
			return nil, err
		}
		c.tracker = tr
	}
	return c, nil
}

// Site returns the wrapped site processor.
func (c *Client) Site() *site.Site { return c.st }

// Observe feeds one record to the site and queues any updates (and
// sliding-window deletions) it produced for delivery. Every update is
// queued even when an earlier one errors — the outbox, not the caller,
// owns retransmission — so a delivery failure can never lose the rest of
// a chunk's updates. The returned error is the site's own error, or the
// first delivery rejection.
func (c *Client) Observe(x linalg.Vector) error {
	ups, err := c.st.Observe(x)
	if err != nil {
		return err
	}
	var firstErr error
	for _, u := range ups {
		if err := c.sendUpdate(u); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if c.tracker != nil {
		// Deletions carry the trace of the chunk whose completion expired
		// them (the site mints traces; LastTrace is zeros when tracing is
		// off, leaving the messages untraced).
		delTrace, delSpan := c.st.LastTrace()
		for _, d := range c.tracker.Expire(c.siteID) {
			msg := transport.Message{
				Kind:    transport.MsgDeletion,
				SiteID:  int32(d.SiteID),
				ModelID: int32(d.ModelID),
				Count:   int64(d.Count),
				TraceID: delTrace,
				SpanID:  delSpan,
			}
			if err := c.send(msg); err != nil && firstErr == nil {
				firstErr = err
			}
		}
	}
	return firstErr
}

// ObserveAll feeds a batch.
func (c *Client) ObserveAll(xs []linalg.Vector) error {
	for _, x := range xs {
		if err := c.Observe(x); err != nil {
			return err
		}
	}
	return nil
}

// sendUpdate queues one site update. Under a sliding window the tracker
// upgrades a WeightUpdate for a model the coordinator has drained to a full
// NewModel synopsis (see window.Tracker.Send).
func (c *Client) sendUpdate(u site.Update) error {
	if c.tracker != nil {
		u = c.tracker.Send(u)
	}
	return c.send(transport.FromSiteUpdate(u))
}

// send queues one message on the fault-tolerant connection.
func (c *Client) send(msg transport.Message) error {
	return c.conn.Send(msg)
}

// Flush blocks until every queued update is delivered (see Conn.Flush).
func (c *Client) Flush(timeout time.Duration) error {
	return c.conn.Flush(timeout)
}

// Delivery returns the fault-tolerance counters.
func (c *Client) Delivery() DeliveryStats { return c.conn.Delivery() }

// Close closes the connection. The wrapped site remains usable locally.
func (c *Client) Close() error { return c.conn.Close() }
