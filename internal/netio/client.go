package netio

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"cludistream/internal/linalg"
	"cludistream/internal/sender"
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
	// BaseBackoff is the first reconnect delay (default 100ms); it doubles
	// per consecutive failure up to MaxBackoff (default 2s), each delay
	// jittered down to between half and all of itself (see
	// sender.Config).
	BaseBackoff time.Duration
	MaxBackoff  time.Duration
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
	// Telemetry, when non-nil, mirrors DeliveryStats into net.* counters,
	// journals reconnects and reconnect storms, and records the enqueue
	// and wire-send spans of traced messages.
	Telemetry *telemetry.Registry
}

// DeliveryStats counts the work of fault-tolerant delivery.
type DeliveryStats = sender.DeliveryStats

// Conn is a fault-tolerant protocol connection: the TCP driver of a
// sender.Sender, which stamps, queues and schedules every message. Conn
// performs its actions as frame+ack round trips under socket deadlines.
// Queued messages survive an outage and drain in order on reconnect, and
// the receiver dedupes by (site, epoch, seq), so retransmitted frames are
// exactly-once in effect.
//
// Send never blocks on an unreachable coordinator — it queues and returns
// — so a site degrades gracefully to local-only clustering while
// disconnected. Call Flush to block until the outbox drains. Safe for
// concurrent senders.
type Conn struct {
	mu   sync.Mutex
	addr string
	pol  RetryPolicy
	born time.Time // the sender's clock reads seconds since then

	nc  net.Conn // nil while disconnected
	snd *sender.Sender

	// tracer is the registry's tracer (nil when tracing is off). traceOK
	// records that the current connection's handshake granted the
	// trace-suffix capability; it resets with every reconnect, so a
	// coordinator downgrade simply stops the suffixes.
	tracer  *telemetry.Tracer
	traceOK bool
}

// DialConnRetry opens a protocol connection with an explicit retry
// policy. The initial dial is eager: an unreachable coordinator is
// reported immediately so callers can apply their own startup policy.
func DialConnRetry(addr string, pol RetryPolicy) (*Conn, error) {
	if pol.DialTimeout <= 0 {
		pol.DialTimeout = 10 * time.Second
	}
	if pol.AttemptTimeout <= 0 {
		pol.AttemptTimeout = 5 * time.Second
	}
	nc, err := net.DialTimeout("tcp", addr, pol.DialTimeout)
	if err != nil {
		return nil, err
	}
	snd := sender.New(sender.Config{Epoch: pol.Epoch, Handshake: pol.SiteID != 0,
		BaseBackoff: pol.BaseBackoff.Seconds(), MaxBackoff: pol.MaxBackoff.Seconds(),
		Telemetry: pol.Telemetry, Peer: addr})
	snd.OnConnected()
	return &Conn{addr: addr, pol: pol, born: time.Now(), nc: nc, snd: snd, tracer: pol.Telemetry.Tracer()}, nil
}

// now is the sender's clock: seconds since the Conn was made.
func (c *Conn) now() float64 { return time.Since(c.born).Seconds() }

// Send queues one message for delivery and opportunistically drains the
// outbox. It returns nil when the message was delivered or remains
// queued for a later retry, and ErrRemote when the coordinator rejected
// a message during this drain.
//
// A full outbox (sender.OutboxLimit messages, while the coordinator is
// unreachable) drops its oldest entry to admit the new one. The dropped
// message is lost: nothing re-sends it, so the coordinator's view of
// this site stays short of what the site has seen. DeliveryStats.Dropped
// and net.dropped count it; closing the hole is ROADMAP item 4(d).
func (c *Conn) Send(msg transport.Message) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	// The payload is queued suffix-free; whether the trace suffix goes on
	// the wire is the connection's per-transmission capability decision
	// (see transmit), so the queued bytes stay bit-identical to v1/v2.
	msg = c.snd.Enqueue(msg)
	if c.tracer != nil && msg.TraceID != 0 {
		now := c.tracer.Now()
		c.tracer.Record(msg.TraceID, msg.SpanID, "enqueue",
			int(msg.SiteID), int(msg.ModelID), now, now, msg.WireSize()-transport.TraceSuffixSize, "")
	}
	return c.flushLocked(false, time.Time{})
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
	if err := c.flushLocked(true, deadline); err != nil {
		return err
	}
	if n := c.snd.Stats().Queued; n > 0 {
		return fmt.Errorf("netio: flush timed out with %d messages queued", n)
	}
	return nil
}

// flushLocked performs the sender's actions until its outbox drains. In
// non-blocking mode it stops at the first backoff window — so at the
// first failure; in blocking mode it sleeps through backoff until the
// outbox empties or the deadline passes. Callers hold c.mu.
func (c *Conn) flushLocked(block bool, deadline time.Time) error {
	var rejected bool
loop:
	for {
		if !deadline.IsZero() && time.Now().After(deadline) {
			break
		}
		now := c.now()
		switch act := c.snd.Next(now); act.Kind {
		case sender.Idle:
			break loop
		case sender.Wait:
			if !block {
				break loop
			}
			wait := time.Duration((act.Until - now) * float64(time.Second))
			if rem := time.Until(deadline); !deadline.IsZero() && rem < wait {
				wait = rem
			}
			time.Sleep(wait)
		case sender.Dial:
			nc, err := net.DialTimeout("tcp", c.addr, c.pol.DialTimeout)
			if err != nil {
				c.snd.OnError(c.now())
				continue
			}
			c.nc, c.traceOK = nc, false
			c.snd.OnConnected()
		case sender.Hello:
			if err := c.handshake(); err != nil {
				c.hangUp()
				c.snd.OnError(c.now())
			}
		case sender.Transmit:
			err := c.transmit(act.Entry)
			switch {
			case err == nil:
				c.snd.OnAck()
			case errors.Is(err, ErrRemote):
				c.snd.OnReject()
				rejected = true
			default:
				c.hangUp()
				c.snd.OnError(c.now())
			}
		}
	}
	if rejected {
		return ErrRemote
	}
	return nil
}

// handshake runs the restart handshake on a fresh connection: send a
// hello, read the coordinator's durable (epoch, maxSeq) watermark for
// this site, and hand it to the sender, which prunes every outbox entry
// the watermark already covers — after a coordinator restart, only the
// unapplied suffix is retransmitted. Callers hold c.mu.
func (c *Conn) handshake() error {
	hello := transport.Message{Kind: transport.MsgHello, SiteID: c.pol.SiteID}
	if c.tracer != nil {
		// Request the trace-suffix capability. Legacy servers ignore a
		// hello's Count, so the bit is invisible to them.
		hello.Count = helloTraceBit
	}
	c.nc.SetDeadline(time.Now().Add(c.pol.AttemptTimeout))
	if err := writeFrame(c.nc, transport.Encode(hello)); err != nil {
		return err
	}
	epoch, maxSeq, traced, err := readWatermarkAck(c.nc)
	if err != nil {
		return err
	}
	c.traceOK = traced && c.tracer != nil
	c.snd.OnWatermark(epoch, maxSeq)
	return nil
}

// transmit performs one frame+ack round trip for the outbox head under
// the attempt deadline, attaching the 16-byte trace suffix when the
// connection negotiated the capability and recording a wire-send span per
// attempt (retransmits included) under the producing chunk's trace.
func (c *Conn) transmit(head *sender.Entry) error {
	payload := head.Frame(c.traceOK)
	ref := c.tracer.Begin(head.TraceID, head.SpanID, "wire-send", 0, 0)
	c.nc.SetDeadline(time.Now().Add(c.pol.AttemptTimeout))
	err := writeFrame(c.nc, payload)
	if err == nil {
		err = readAck(c.nc)
	}
	note := ""
	if head.Attempts > 1 {
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

// hangUp closes a connection that failed mid-exchange.
func (c *Conn) hangUp() {
	c.nc.Close()
	c.nc = nil
}

// Delivery returns the full fault-tolerance counters.
func (c *Conn) Delivery() DeliveryStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.snd.Stats()
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
	c.snd.OnClosed()
	return err
}

// Client is the remote-site endpoint: it owns a site.Site, feeds records to
// it, and ships every resulting update to the coordinator over TCP. It is
// safe for use from one goroutine (a site observes one stream; run one
// Client per stream).
type Client struct {
	conn    *Conn
	st      *site.Site
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

// Dial connects to the coordinator at addr and wraps st. siteID must be
// the site's own id (st.ID()): it is the id every message — updates,
// deletions and the restart handshake — carries.
func Dial(addr string, st *site.Site, siteID int, opts DialOptions) (*Client, error) {
	if siteID != st.ID() {
		return nil, fmt.Errorf("netio: site id %d, but the site's updates carry id %d", siteID, st.ID())
	}
	if opts.SlidingHorizonChunks < 0 {
		return nil, fmt.Errorf("netio: sliding horizon %d chunks", opts.SlidingHorizonChunks)
	}
	pol := opts.Retry
	if pol.SiteID == 0 {
		pol.SiteID = int32(siteID) // enable the restart handshake
	} else if pol.SiteID != int32(siteID) {
		return nil, fmt.Errorf("netio: handshake site id %d, but the site's id is %d", pol.SiteID, siteID)
	}
	conn, err := DialConnRetry(addr, pol)
	if err != nil {
		return nil, err
	}
	c := &Client{conn: conn, st: st}
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

// Observe feeds one record to the site and queues every message it owes
// the coordinator for it (window.Emit: updates, and sliding-window
// deletions). Every message is queued even when an earlier one errors —
// the outbox, not the caller, owns retransmission — so a delivery failure
// can never lose the rest of a chunk's updates. The returned error is the
// site's own error, or the first delivery rejection.
func (c *Client) Observe(x linalg.Vector) error {
	msgs, err := window.Emit(c.st, c.tracker, x)
	if err != nil {
		return err
	}
	var firstErr error
	for _, msg := range msgs {
		if err := c.conn.Send(msg); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// Flush blocks until every queued update is delivered (see Conn.Flush).
func (c *Client) Flush(timeout time.Duration) error {
	return c.conn.Flush(timeout)
}

// Delivery returns the fault-tolerance counters.
func (c *Client) Delivery() DeliveryStats { return c.conn.Delivery() }

// Close closes the connection. The wrapped site remains usable locally.
func (c *Client) Close() error { return c.conn.Close() }
