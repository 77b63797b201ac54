// Package netsim is a small discrete-event simulator standing in for the
// C++Sim package the paper used "for easier control of experiments...to
// simulate the distributed processing effect". It provides a virtual clock,
// an event heap with deterministic FIFO tie-breaking, and point-to-point
// links that account every byte sent — the observable behind the paper's
// "total communication cost is collected every second".
package netsim

import (
	"container/heap"
	"fmt"
	"math"
	"math/rand"

	"cludistream/internal/telemetry"
)

// Simulator owns the virtual clock and the pending-event heap.
type Simulator struct {
	now    float64
	events eventHeap
	seq    int64
}

// NewSimulator returns a simulator at time 0.
func NewSimulator() *Simulator { return &Simulator{} }

// Now returns the current virtual time in seconds.
func (s *Simulator) Now() float64 { return s.now }

// ScheduleAt runs fn at absolute virtual time t (>= Now).
func (s *Simulator) ScheduleAt(t float64, fn func()) {
	if t < s.now {
		panic(fmt.Sprintf("netsim: scheduling into the past: %v < %v", t, s.now))
	}
	s.seq++
	heap.Push(&s.events, &event{at: t, seq: s.seq, fn: fn})
}

// Step executes the next event, returning false when the heap is empty.
func (s *Simulator) Step() bool {
	if s.events.Len() == 0 {
		return false
	}
	e := heap.Pop(&s.events).(*event)
	s.now = e.at
	e.fn()
	return true
}

// Run executes events until the heap drains.
func (s *Simulator) Run() {
	for s.Step() {
	}
}

// RunUntil executes events with timestamps <= t, then advances the clock to
// exactly t (even if no event lands there).
func (s *Simulator) RunUntil(t float64) {
	for s.events.Len() > 0 && s.events[0].at <= t {
		s.Step()
	}
	if t > s.now {
		s.now = t
	}
}

type event struct {
	at  float64
	seq int64 // FIFO among simultaneous events — determinism
	fn  func()
}

type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(*event)) }
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return e
}

// Outage is a time window during which nothing reaches the receiver —
// the simulated counterpart of a crashed or partitioned coordinator.
type Outage struct {
	Start, End float64 // [Start, End) in simulated seconds, by arrival time
}

// FaultPlan injects delivery faults on a Link: independent probabilistic
// message loss, duplicate delivery, and burst outage windows. Randomness
// comes from an injected source so fault sequences are reproducible.
type FaultPlan struct {
	// DropProb is the independent per-message loss probability.
	DropProb float64
	// DupProb is the independent probability that a delivered message is
	// delivered a second time — the network analogue of an ack lost after
	// the receiver already processed the original, forcing a blind
	// retransmit. Duplicates exercise receiver-side dedupe; they cost no
	// extra wire bytes and are accounted separately from goodput.
	DupProb float64
	// Rand drives the loss and duplication draws; required when DropProb
	// or DupProb is positive.
	Rand *rand.Rand
	// Outages lists receiver-down windows; a message whose arrival time
	// falls inside any window is lost.
	Outages []Outage
}

// Validate reports configuration errors: probabilities outside [0, 1],
// missing random sources, and inverted or negative outage windows. A nil
// plan is valid (a fault-free link).
func (p *FaultPlan) Validate() error {
	if p == nil {
		return nil
	}
	if math.IsNaN(p.DropProb) || p.DropProb < 0 || p.DropProb > 1 {
		return fmt.Errorf("netsim: FaultPlan.DropProb = %v, want [0, 1]", p.DropProb)
	}
	if math.IsNaN(p.DupProb) || p.DupProb < 0 || p.DupProb > 1 {
		return fmt.Errorf("netsim: FaultPlan.DupProb = %v, want [0, 1]", p.DupProb)
	}
	if (p.DropProb > 0 || p.DupProb > 0) && p.Rand == nil {
		return fmt.Errorf("netsim: FaultPlan with DropProb=%v DupProb=%v needs a Rand source", p.DropProb, p.DupProb)
	}
	for i, o := range p.Outages {
		if math.IsNaN(o.Start) || math.IsNaN(o.End) {
			return fmt.Errorf("netsim: outage %d has NaN bounds [%v, %v)", i, o.Start, o.End)
		}
		if o.Start < 0 {
			return fmt.Errorf("netsim: outage %d starts at negative time %v", i, o.Start)
		}
		if o.End <= o.Start {
			return fmt.Errorf("netsim: outage %d window inverted or empty: [%v, %v)", i, o.Start, o.End)
		}
	}
	return nil
}

// lost decides the fate of a message arriving at the given time. Outage
// checks come first so loss draws are only consumed outside outages.
func (p *FaultPlan) lost(arrive float64) bool {
	for _, o := range p.Outages {
		if arrive >= o.Start && arrive < o.End {
			return true
		}
	}
	return p.DropProb > 0 && p.Rand.Float64() < p.DropProb
}

// Link is a unidirectional site→coordinator channel with latency, optional
// finite bandwidth, optional fault injection, and exact byte accounting
// that separates goodput from retransmissions and losses.
type Link struct {
	sim       *Simulator
	latency   float64
	bandwidth float64 // bytes/second; 0 means infinite
	fault     *FaultPlan
	deliver   func([]byte)

	bytesSent       int
	messages        int
	goodputBytes    int
	retransmitBytes int
	droppedMessages int
	droppedBytes    int
	dupDelivered    int
	sendLog         []sendRecord
	// busyUntil serializes transmissions on a finite-bandwidth link.
	busyUntil float64

	tele linkTele
}

// linkTele holds a Link's instruments (all nil ⇒ no-op). Every link
// sharing a registry increments the same sim.* counters, so the registry
// view is the whole simulated network.
type linkTele struct {
	tracer     *telemetry.Tracer // wire-send spans; nil unless tracing enabled
	bytesSent  *telemetry.Counter
	messages   *telemetry.Counter
	goodput    *telemetry.Counter
	retransmit *telemetry.Counter
	dropped    *telemetry.Counter
	dropBytes  *telemetry.Counter
	dup        *telemetry.Counter
}

// SetTelemetry registers sim.* instruments for this link in reg (nil
// detaches). Attach before traffic flows; counters only cover subsequent
// sends.
func (l *Link) SetTelemetry(reg *telemetry.Registry) {
	if reg == nil {
		l.tele = linkTele{}
		return
	}
	l.tele = linkTele{
		tracer:     reg.Tracer(),
		bytesSent:  reg.Counter("sim.bytes_sent"),
		messages:   reg.Counter("sim.messages"),
		goodput:    reg.Counter("sim.goodput_bytes"),
		retransmit: reg.Counter("sim.retransmit_bytes"),
		dropped:    reg.Counter("sim.dropped_messages"),
		dropBytes:  reg.Counter("sim.dropped_bytes"),
		dup:        reg.Counter("sim.dup_delivered"),
	}
}

type sendRecord struct {
	at    float64
	bytes int
}

// NewFaultyLink creates a link on sim whose deliveries are subject to
// plan; a nil plan is a fault-free link. deliver is invoked (inside the
// simulation) when a payload arrives; it may be nil for fire-and-forget
// accounting. The latency, bandwidth and fault plan are
// validated here, at construction, so a misconfigured scenario fails with
// a clear error rather than panicking mid-simulation.
func (s *Simulator) NewFaultyLink(latency, bandwidth float64, plan *FaultPlan, deliver func([]byte)) (*Link, error) {
	if math.IsNaN(latency) || latency < 0 {
		return nil, fmt.Errorf("netsim: link latency %v, want >= 0", latency)
	}
	if math.IsNaN(bandwidth) || bandwidth < 0 {
		return nil, fmt.Errorf("netsim: link bandwidth %v, want >= 0 (0 = infinite)", bandwidth)
	}
	if err := plan.Validate(); err != nil {
		return nil, err
	}
	return &Link{sim: s, latency: latency, bandwidth: bandwidth, fault: plan, deliver: deliver}, nil
}

// Send transmits payload: bytes are accounted at send time; delivery is
// scheduled after transmission delay (serialized on the link) plus latency.
func (l *Link) Send(payload []byte) { l.TrySendTraced(payload, false, 0, 0) }

// TrySendTraced transmits payload, classifying it as an original send or a
// retransmission for the byte accounting, and reports whether delivery
// was scheduled — the simulation shorthand for the receiver's ack. Lost
// messages still consume wire bytes (and transmission time on a
// finite-bandwidth link); only delivered payload counts as goodput. When
// the link's registry has tracing enabled and traceID is non-zero, a
// "wire-send" span is recorded under parentSpan covering send-initiation →
// scheduled arrival (noting "retransmit" and "dropped" transmissions), one
// span per transmission attempt — so a trace's waterfall shows every time
// its update touched the wire.
func (l *Link) TrySendTraced(payload []byte, retransmit bool, traceID, parentSpan uint64) bool {
	n := len(payload)
	l.bytesSent += n
	l.messages++
	l.tele.bytesSent.Add(int64(n))
	l.tele.messages.Inc()
	if retransmit {
		l.retransmitBytes += n
		l.tele.retransmit.Add(int64(n))
	}
	l.sendLog = append(l.sendLog, sendRecord{at: l.sim.Now(), bytes: n})

	start := l.sim.Now()
	if l.bandwidth > 0 {
		if l.busyUntil > start {
			start = l.busyUntil
		}
		start += float64(n) / l.bandwidth
		l.busyUntil = start
	}
	arrive := start + l.latency
	if l.fault != nil && l.fault.lost(arrive) {
		l.droppedMessages++
		l.droppedBytes += n
		l.tele.dropped.Inc()
		l.tele.dropBytes.Add(int64(n))
		l.recordWireSpan(traceID, parentSpan, arrive, n, retransmit, true)
		return false
	}
	l.goodputBytes += n
	l.tele.goodput.Add(int64(n))
	// Duplicate-delivery draw: decided at send time (so the draw sequence
	// is a pure function of the send sequence), delivered shortly after
	// the original. Duplicates consume no extra wire bytes and never count
	// as goodput — they model receiver-side duplication, the input the
	// exactly-once dedupe layer exists to absorb.
	dup := l.fault != nil && l.fault.DupProb > 0 && l.fault.Rand.Float64() < l.fault.DupProb
	if dup {
		l.dupDelivered++
		l.tele.dup.Inc()
	}
	if l.deliver != nil {
		p := payload
		l.sim.ScheduleAt(arrive, func() { l.deliver(p) })
		if dup {
			l.sim.ScheduleAt(arrive+l.latency*0.5, func() { l.deliver(p) })
		}
	}
	l.recordWireSpan(traceID, parentSpan, arrive, n, retransmit, false)
	return true
}

// recordWireSpan emits one transmission attempt's "wire-send" span,
// spanning send initiation to the (scheduled or hypothetical) arrival.
func (l *Link) recordWireSpan(traceID, parentSpan uint64, arrive float64, n int, retransmit, dropped bool) {
	tr := l.tele.tracer
	if tr == nil || traceID == 0 {
		return
	}
	note := ""
	switch {
	case dropped && retransmit:
		note = "retransmit-dropped"
	case dropped:
		note = "dropped"
	case retransmit:
		note = "retransmit"
	}
	tr.Record(traceID, parentSpan, "wire-send", 0, 0, l.sim.Now(), arrive, n, note)
}

// BytesSent returns total bytes pushed onto the link, retransmissions
// and losses included — the wire-cost observable.
func (l *Link) BytesSent() int { return l.bytesSent }

// Messages returns the number of Send/TrySend calls.
func (l *Link) Messages() int { return l.messages }

// GoodputBytes returns the bytes of payloads that reached the receiver.
func (l *Link) GoodputBytes() int { return l.goodputBytes }

// RetransmitBytes returns the bytes of sends flagged as retransmissions.
func (l *Link) RetransmitBytes() int { return l.retransmitBytes }

// Dropped returns (messages, bytes) lost to the fault plan.
func (l *Link) Dropped() (messages, bytes int) { return l.droppedMessages, l.droppedBytes }

// DupDelivered returns how many messages were delivered twice by the
// fault plan's DupProb. Duplicates consume no wire bytes and no goodput.
func (l *Link) DupDelivered() int { return l.dupDelivered }

// CostSeries buckets the link's sent bytes into intervals of the given
// width, cumulatively: entry i is the total bytes sent in [0, (i+1)·width).
// This is the paper's "total communication cost collected every second"
// with width = 1.
func (l *Link) CostSeries(width float64, until float64) []int {
	n := int(math.Ceil(until / width))
	if n < 1 {
		n = 1
	}
	out := make([]int, n)
	for _, r := range l.sendLog {
		idx := int(r.at / width)
		if idx >= n {
			idx = n - 1
		}
		out[idx] += r.bytes
	}
	for i := 1; i < n; i++ {
		out[i] += out[i-1]
	}
	return out
}

// MergeCostSeries sums per-link cumulative series element-wise (series may
// have differing lengths; shorter ones are treated as flat after their
// end — they are cumulative).
func MergeCostSeries(series ...[]int) []int {
	var n int
	for _, s := range series {
		if len(s) > n {
			n = len(s)
		}
	}
	out := make([]int, n)
	for _, s := range series {
		for i := 0; i < n; i++ {
			v := 0
			if len(s) > 0 {
				if i < len(s) {
					v = s[i]
				} else {
					v = s[len(s)-1]
				}
			}
			out[i] += v
		}
	}
	return out
}
