package netio

import (
	"net"
	"sync"
	"sync/atomic"
)

// chaosProxy is a TCP fault injector: it forwards byte streams between
// clients and a target address, and can kill every connection after a
// per-connection byte budget or reject traffic entirely during a paused
// window. It is the real-network counterpart of netsim.FaultPlan: the
// chaos tests run Conn's retry and reconnect paths through it against
// genuine mid-frame connection loss.
type chaosProxy struct {
	ln     net.Listener
	target string

	mu        sync.Mutex
	killAfter int64 // forwarded-byte budget per connection pair; 0 = unlimited
	paused    bool
	conns     map[net.Conn]struct{}

	wg      sync.WaitGroup
	closing chan struct{}
}

// newChaosProxy listens on an ephemeral loopback port and forwards every
// accepted connection to target.
func newChaosProxy(target string) (*chaosProxy, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	p := &chaosProxy{ln: ln, target: target, conns: make(map[net.Conn]struct{}), closing: make(chan struct{})}
	p.wg.Add(1)
	go p.acceptLoop()
	return p, nil
}

// Addr returns the proxy's listening address; dial this instead of the
// target to route traffic through the fault injector.
func (p *chaosProxy) Addr() string { return p.ln.Addr().String() }

// KillAfter makes every future connection pair die after n forwarded
// bytes (both directions combined), tearing connections mid-frame. Zero
// disables the budget.
func (p *chaosProxy) KillAfter(n int64) {
	p.mu.Lock()
	p.killAfter = n
	p.mu.Unlock()
}

// SetPaused simulates a coordinator outage: while paused, live
// connections are severed and new ones are accepted and immediately
// closed (the listener stays up, as a crashed-but-respawning process
// would look to clients).
func (p *chaosProxy) SetPaused(paused bool) {
	p.mu.Lock()
	p.paused = paused
	p.mu.Unlock()
	if paused {
		p.killAll()
	}
}

// killAll severs every live connection pair.
func (p *chaosProxy) killAll() {
	p.mu.Lock()
	for c := range p.conns {
		c.Close()
	}
	p.mu.Unlock()
}

// Close stops the proxy and severs everything.
func (p *chaosProxy) Close() {
	close(p.closing)
	p.ln.Close()
	p.killAll()
	p.wg.Wait()
}

func (p *chaosProxy) acceptLoop() {
	defer p.wg.Done()
	for {
		conn, err := p.ln.Accept()
		if err != nil {
			return
		}
		p.mu.Lock()
		paused := p.paused
		budget := p.killAfter
		p.mu.Unlock()
		if paused {
			conn.Close()
			continue
		}
		upstream, err := net.Dial("tcp", p.target)
		if err != nil {
			conn.Close()
			continue
		}
		p.mu.Lock()
		p.conns[conn] = struct{}{}
		p.conns[upstream] = struct{}{}
		p.mu.Unlock()
		var remaining atomic.Int64
		useBudget := budget > 0
		remaining.Store(budget)
		kill := func() {
			conn.Close()
			upstream.Close()
			p.mu.Lock()
			delete(p.conns, conn)
			delete(p.conns, upstream)
			p.mu.Unlock()
		}
		p.wg.Add(2)
		go p.pipe(upstream, conn, useBudget, &remaining, kill)
		go p.pipe(conn, upstream, useBudget, &remaining, kill)
	}
}

// pipe copies src→dst, charging the shared budget; exhausting it (or any
// error) kills the whole pair.
func (p *chaosProxy) pipe(dst, src net.Conn, useBudget bool, remaining *atomic.Int64, kill func()) {
	defer p.wg.Done()
	defer kill()
	buf := make([]byte, 32<<10)
	for {
		n, err := src.Read(buf)
		if n > 0 {
			if useBudget && remaining.Add(-int64(n)) < 0 {
				return
			}
			if _, werr := dst.Write(buf[:n]); werr != nil {
				return
			}
		}
		if err != nil {
			return
		}
	}
}
