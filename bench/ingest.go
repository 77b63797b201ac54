package main

import (
	"runtime"
	"time"

	"cludistream/internal/chunk"
	"cludistream/internal/linalg"
	"cludistream/internal/netio"
	"cludistream/internal/site"
	"cludistream/internal/stream"
	"cludistream/internal/transport"
	"cludistream/internal/window"
)

// chunkSize is M, the Theorem-1 chunk size at the daemon defaults.
var chunkSize = chunk.Size(dim, 0.02, 0.01)

// windowTimeout abandons a timed window that has stalled (a run must end
// within 180 s); the rep then counts a failed operation.
const windowTimeout = 60 * time.Second

// closeSample is one chunk-closing Observe call: start is when the
// record was handed over (its due time in an open loop), ret when the
// call returned, msgs how many messages the coordinator acked in between.
type closeSample struct {
	start, ret time.Duration
	msgs       int
}

// sentMsg is one message of a traced run, kept for the staged replay.
type sentMsg struct {
	msg   transport.Message // with the Epoch and Seq the Conn assigned
	acked time.Duration     // when Send returned
	send  time.Duration     // Send round trip
}

// siteDriver is one ingest client: sited's feed loop around
// netio.Client.Observe, or — traced — around the public parts Observe is
// made of, with a span per call.
type siteDriver struct {
	w      *workload
	id     int
	st     *site.Site
	pool   []linalg.Vector // whole chunks, fed in order and cycled
	pos    int             // next record of pool
	epoch  time.Time
	client *netio.Client // untraced

	// traced replacements for the client
	conn    *netio.Conn
	tracker *window.Tracker
	spans   *spanLog
	seq     uint64
	sent    []sentMsg
	refits  [][]linalg.Vector // the chunks that triggered a refit (first 8)
	// observeNs/observeRecs time site.Observe on records that do not
	// close a chunk; closeNs is one entry per chunk-closing call.
	observeNs   time.Duration
	observeRecs int
	closeNs     []time.Duration
	sendBusy    time.Duration

	records  int             // Observe calls in the timed window
	failed   int             // Observe or Send calls that returned an error
	timedOut bool            // the window was abandoned at windowTimeout
	closes   []closeSample   // every chunk close, the set-up chunk's first
	late     []time.Duration // open loop: how late each record was handed over
	wall     time.Duration
}

// newSiteDriver generates the site's pool and dials the coordinator.
func newSiteDriver(o runOpts, i int, addr string, epoch time.Time) (*siteDriver, error) {
	w := o.w
	id := i + 1
	st, err := site.New(siteConfig(id, siteSeed(o.seed, i), w.sliding))
	if err != nil {
		return nil, err
	}
	poolChunks := w.poolChunks
	if poolChunks == 0 {
		poolChunks = o.chunks + 1 // the set-up chunk and the window
	}
	mixes, regimeLen := w.regimes(i, poolChunks*chunkSize)
	gen, err := stream.NewAlternating(mixes, regimeLen, siteSeed(o.seed, i))
	if err != nil {
		return nil, err
	}
	d := &siteDriver{
		w: w, id: id, st: st, epoch: epoch,
		pool:   stream.Take(gen, poolChunks*chunkSize),
		closes: make([]closeSample, 0, o.chunks+1),
	}
	if w.pacedRate > 0 {
		d.late = make([]time.Duration, 0, o.chunks*chunkSize)
	}
	horizon := 0
	if w.sliding {
		horizon = slidingHorizon
	}
	if !o.traced {
		d.client, err = netio.Dial(addr, st, id, netio.DialOptions{SlidingHorizonChunks: horizon})
		return d, err
	}
	// What netio.Dial does, from its public parts.
	d.conn, err = netio.DialConnRetry(addr, netio.RetryPolicy{SiteID: int32(id)})
	if err != nil {
		return nil, err
	}
	if horizon > 0 {
		if d.tracker, err = window.NewTracker(st, horizon); err != nil {
			d.conn.Close()
			return nil, err
		}
	}
	d.spans = newSpanLog(epoch, id)
	return d, nil
}

func (d *siteDriver) close() {
	if d.client != nil {
		d.client.Close()
	}
	if d.conn != nil {
		d.conn.Close()
	}
}

func (d *siteDriver) flush(timeout time.Duration) error {
	if d.client != nil {
		return d.client.Flush(timeout)
	}
	return d.conn.Flush(timeout)
}

func (d *siteDriver) delivery() netio.DeliveryStats {
	if d.client != nil {
		return d.client.Delivery()
	}
	return d.conn.Delivery()
}

// observe hands one record to the site and ships what it produced.
func (d *siteDriver) observe(x linalg.Vector) error {
	if d.client != nil {
		return d.client.Observe(x)
	}
	return d.observeTraced(x)
}

// observeTraced is netio.Client.Observe taken apart: site.Observe,
// transport.FromSiteUpdate, window.Tracker.Expire and netio.Conn.Send,
// each under a span. TestTracedPathParity proves the two emit the same
// bytes.
func (d *siteDriver) observeTraced(x linalg.Vector) error {
	if d.st.Pending() != chunkSize-1 {
		_, err := d.st.Observe(x)
		return err
	}
	chunkID := d.st.ChunksSeen() + 1
	root := d.spans.begin("site.chunk", 0, chunkID)
	defer d.spans.end(root)
	s := d.spans.begin("site.observe", root, chunkID)
	ups, err := d.st.Observe(x)
	d.closeNs = append(d.closeNs, d.spans.end(s))
	if err != nil {
		return err
	}
	var firstErr error
	for _, u := range ups {
		if u.Kind == site.NewModel && len(d.refits) < 8 {
			d.refits = append(d.refits, d.pool[d.pos-chunkSize:d.pos])
		}
		if err := d.send(transport.FromSiteUpdate(u), root, chunkID); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if d.tracker != nil {
		s := d.spans.begin("window.expire", root, chunkID)
		dels := d.tracker.Expire(d.id)
		d.spans.end(s)
		for _, del := range dels {
			msg := transport.Message{
				Kind: transport.MsgDeletion, SiteID: int32(del.SiteID),
				ModelID: int32(del.ModelID), Count: int64(del.Count),
			}
			if err := d.send(msg, root, chunkID); err != nil && firstErr == nil {
				firstErr = err
			}
		}
	}
	return firstErr
}

func (d *siteDriver) send(msg transport.Message, parent, chunkID int) error {
	s := d.spans.begin("netio.send", parent, chunkID)
	err := d.conn.Send(msg)
	rtt := d.spans.end(s)
	d.sendBusy += rtt
	d.seq++
	msg.Seq, msg.Epoch = d.seq, 1 // what Conn.Send stamped (RetryPolicy default epoch)
	d.sent = append(d.sent, sentMsg{msg: msg, acked: time.Since(d.epoch), send: rtt})
	return err
}

// record returns the next record of the site's stream: the pool's chunks
// in order, wrapping at the end.
func (d *siteDriver) record() linalg.Vector {
	if d.pos == len(d.pool) {
		d.pos = 0
	}
	d.pos++
	return d.pool[d.pos-1]
}

// feed hands the site one record; a chunk-closing record is timed from t0
// (read by the caller just before; its due time in an open loop) and
// logged as a closeSample.
func (d *siteDriver) feed(x linalg.Vector, closing bool, t0 time.Time) error {
	if !closing {
		return d.observe(x)
	}
	before := d.delivery().Acked
	err := d.observe(x)
	d.closes = append(d.closes, closeSample{
		start: t0.Sub(d.epoch), ret: time.Since(d.epoch), msgs: d.delivery().Acked - before,
	})
	return err
}

// warm feeds the first chunk, which is always clustered: set-up ends with
// every site's first model at the coordinator.
func (d *siteDriver) warm() error {
	for i := 0; i < chunkSize; i++ {
		if err := d.feed(d.record(), i == chunkSize-1, time.Now()); err != nil {
			return err
		}
	}
	return nil
}

// run feeds the window's fixed work of n records. Closed loop unless the
// workload is paced: Observe returns only after the coordinator's ack.
func (d *siteDriver) run(n int) {
	start := time.Now()
	blockStart := start
	interval := time.Duration(0)
	if d.w.pacedRate > 0 {
		interval = time.Duration(float64(time.Second) / d.w.pacedRate)
	}
	for d.records < n {
		closing := d.st.Pending() == chunkSize-1
		var t0 time.Time
		if interval > 0 {
			// Open loop: the record is timed from when it was due.
			t0 = start.Add(time.Duration(d.records) * interval)
			now := time.Now()
			if now.Before(t0) {
				time.Sleep(t0.Sub(now))
				now = time.Now()
			}
			d.late = append(d.late, now.Sub(t0))
			blockStart = now
		} else if closing {
			t0 = time.Now()
			if d.spans != nil {
				d.observeNs += t0.Sub(blockStart)
				d.observeRecs += chunkSize - 1
			}
		}
		if closing && time.Since(start) > windowTimeout {
			d.timedOut = true
			break
		}
		if err := d.feed(d.record(), closing, t0); err != nil {
			d.failed++
		}
		d.records++
		if closing {
			// The coordinator shares this process's scheduler, which it would
			// not in production: yield once per chunk so that its publish
			// ticker, if queued on this P, is not held up by the feed loop.
			runtime.Gosched()
			blockStart = time.Now()
		} else if d.spans != nil && interval > 0 {
			d.observeNs += time.Since(blockStart)
			d.observeRecs++
		}
	}
	d.wall = time.Since(start)
}
