package netio

import (
	"errors"
	"io"
	"log"
	"net"
	"sync"
	"time"

	"cludistream/internal/coordinator"
	"cludistream/internal/durable"
	"cludistream/internal/telemetry"
	"cludistream/internal/transport"
)

// Server is the coordinator endpoint: it accepts site connections, decodes
// frames, and applies them to the shared Coordinator under a mutex. It is
// safe for any number of concurrent site connections. Every decodable frame
// runs through a durable.Receiver; with a durable.Store attached it is
// logged to the WAL *before* the dedupe-then-apply sequence runs, so a
// crash-recovered server replays the byte stream through the identical
// path and lands on identical state; a frame the WAL refuses is nacked with
// no state change and the site retries it.
type Server struct {
	ln net.Listener
	// Logf receives connection-level errors; nil silences them. Set before
	// Serve is running.
	Logf func(format string, args ...any)

	mu          sync.Mutex // guards recv (coordinator, store, dedupe state) and the counters
	bytesIn     int
	undecodable int
	// recv is the receive step. Its dedupe table tracks the highest
	// (epoch, seq) applied per site; retransmitted frames and frames from
	// dead incarnations are acked without re-applying, making delivery
	// exactly-once in effect.
	recv durable.Receiver
	tele serverTele

	connMu sync.Mutex
	conns  map[net.Conn]struct{}

	wg        sync.WaitGroup
	closing   chan struct{}
	closeOnce sync.Once
}

// serverTele holds the coordinator endpoint's receive-side instruments
// (all nil ⇒ no-op).
type serverTele struct {
	reg        *telemetry.Registry
	bytesIn    *telemetry.Counter
	applied    *telemetry.Counter
	applyErrs  *telemetry.Counter
	dups       *telemetry.Counter
	dupBytes   *telemetry.Counter
	siteResets *telemetry.Counter
	hellos     *telemetry.Counter
	walErrs    *telemetry.Counter
}

func newServerTele(reg *telemetry.Registry) serverTele {
	if reg == nil {
		return serverTele{}
	}
	return serverTele{
		reg:        reg,
		bytesIn:    reg.Counter("srv.bytes_in"),
		applied:    reg.Counter("srv.applied"),
		applyErrs:  reg.Counter("srv.apply_errors"),
		dups:       reg.Counter("srv.duplicates"),
		dupBytes:   reg.Counter("srv.duplicate_bytes"),
		siteResets: reg.Counter("srv.site_resets"),
		hellos:     reg.Counter("srv.hellos"),
		walErrs:    reg.Counter("srv.wal_errors"),
	}
}

// ServerOptions configures the optional server machinery.
type ServerOptions struct {
	// Telemetry registers srv.* instruments (nil ⇒ none).
	Telemetry *telemetry.Registry
	// Store, when non-nil, makes the server crash-durable: frames are
	// WAL-logged before applying and checkpoints rotate automatically.
	Store *durable.Store
	// Dedupe seeds the exactly-once table — pass the recovered table from
	// durable.Open so a restarted server drops already-applied
	// retransmissions. Nil starts empty.
	Dedupe *durable.Dedupe
}

// NewServerOpts listens on addr ("host:port", ":0" for an ephemeral port)
// and serves the given coordinator until Close, with optional telemetry
// and durability (a store and a recovered dedupe table from durable.Open).
// Serving starts immediately in background goroutines. Instruments are attached here because serving starts before it
// returns, so they cannot be added after the fact without racing apply.
func NewServerOpts(addr string, coord *coordinator.Coordinator, opts ServerOptions) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	ded := opts.Dedupe
	if ded == nil {
		ded = durable.NewDedupe()
	}
	s := &Server{
		ln:      ln,
		conns:   make(map[net.Conn]struct{}),
		closing: make(chan struct{}),
		recv:    durable.Receiver{Coord: coord, Dedupe: ded, Store: opts.Store},
		tele:    newServerTele(opts.Telemetry),
	}
	if opts.Telemetry != nil {
		s.recv.Tracer = opts.Telemetry.Tracer()
	}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr returns the listening address (useful with ":0").
func (s *Server) Addr() net.Addr { return s.ln.Addr() }

func (s *Server) logf(format string, args ...any) {
	if s.Logf != nil {
		s.Logf(format, args...)
		return
	}
	// Default: quiet about expected shutdown noise, loud otherwise.
	select {
	case <-s.closing:
	default:
		log.Printf(format, args...)
	}
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			select {
			case <-s.closing:
				return
			default:
				s.logf("netio: accept: %v", err)
				return
			}
		}
		s.wg.Add(1)
		go s.serveConn(conn)
	}
}

// serveConn handles one site connection: frame → decode → apply → ack
// (or hello → watermark reply).
func (s *Server) serveConn(conn net.Conn) {
	defer s.wg.Done()
	s.connMu.Lock()
	if s.conns == nil { // closed while this connection raced Accept
		s.connMu.Unlock()
		conn.Close()
		return
	}
	s.conns[conn] = struct{}{}
	s.connMu.Unlock()
	defer func() {
		s.connMu.Lock()
		delete(s.conns, conn)
		s.connMu.Unlock()
		conn.Close()
	}()
	for {
		payload, err := readFrame(conn)
		if err != nil {
			// EOF is the normal client hang-up; closed-connection errors
			// accompany shutdown. Anything else is worth a log line.
			if !errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) && !errors.Is(err, net.ErrClosed) {
				s.logf("netio: read from %v: %v", conn.RemoteAddr(), err)
			}
			return
		}
		if err := s.respond(conn, payload); err != nil {
			s.logf("netio: ack to %v: %v", conn.RemoteAddr(), err)
			return
		}
	}
}

// respond processes one frame and writes its reply to conn: a watermark
// ack for a hello, a one-byte status for everything else.
func (s *Server) respond(conn io.Writer, payload []byte) error {
	msg, err := transport.DecodeFor(payload, s.recv.Coord.Dim())
	if err != nil {
		s.logf("netio: decode: %v", err)
		s.mu.Lock()
		s.undecodable++
		s.mu.Unlock()
		s.tele.applyErrs.Inc()
		return writeAck(conn, false)
	}
	if msg.Kind == transport.MsgHello {
		s.mu.Lock()
		w := s.recv.Dedupe.Watermark(msg.SiteID)
		s.mu.Unlock()
		s.tele.hellos.Inc()
		// Grant the trace-suffix capability only when the site asked for it
		// and this server actually has a tracer to receive the context.
		traced := msg.Count&helloTraceBit != 0 && s.recv.Tracer != nil
		return writeWatermarkAck(conn, w.Epoch, w.MaxSeq, traced)
	}
	return writeAck(conn, s.apply(payload, msg))
}

// apply runs one decoded message through the receive step and returns the
// ack: a frame the WAL refused or the coordinator rejected is nacked, a
// duplicate is acked so the sender stops retrying.
func (s *Server) apply(payload []byte, msg transport.Message) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.bytesIn += len(payload)
	s.tele.bytesIn.Add(int64(len(payload)))
	res := s.recv.Receive(payload, msg)
	if res.AppendErr != nil {
		s.logf("netio: wal append: %v", res.AppendErr)
		s.tele.walErrs.Inc()
		return false
	}
	if res.Verdict.Dropped() {
		// Ack so the sender stops retrying; the message was never applied.
		s.tele.dups.Inc()
		s.tele.dupBytes.Add(int64(len(payload)))
		return true
	}
	if res.Verdict == durable.AdmitNewEpoch {
		s.tele.siteResets.Inc()
		s.logf("netio: site %d returned with epoch %d, state reset", msg.SiteID, msg.Epoch)
	}
	s.tele.applied.Inc()
	if res.ApplyErr != nil {
		s.tele.applyErrs.Inc()
		s.logf("netio: apply %v from site %d: %v", msg.Kind, msg.SiteID, res.ApplyErr)
	}
	if res.CheckpointErr != nil {
		s.logf("netio: checkpoint: %v", res.CheckpointErr)
		s.tele.walErrs.Inc()
	}
	return res.ApplyErr == nil
}

// Snapshot runs fn with the coordinator locked — the only safe way to read
// coordinator state while the server is live.
func (s *Server) Snapshot(fn func(*coordinator.Coordinator)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	fn(s.recv.Coord)
}

// ServerStats is the coordinator-side delivery accounting.
type ServerStats struct {
	// BytesIn counts every received payload byte, duplicates included.
	BytesIn int
	// Applied is the number of messages applied to the coordinator.
	Applied int
	// ApplyErrors counts undecodable or refused messages.
	ApplyErrors int
	// Duplicates / DuplicateBytes count retransmitted frames that were
	// acked without re-applying — the receive-side view of retransmission
	// overhead.
	Duplicates     int
	DuplicateBytes int
	// SiteResets counts epoch bumps that discarded a dead incarnation.
	SiteResets int
}

// DeliveryStats returns the full fault-tolerance counters.
func (s *Server) DeliveryStats() ServerStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.recv.Stats()
	return ServerStats{
		BytesIn:        s.bytesIn,
		Applied:        st.Applied,
		ApplyErrors:    st.ApplyErrors + s.undecodable,
		Duplicates:     st.Duplicates,
		DuplicateBytes: st.DuplicateBytes,
		SiteResets:     st.SiteResets,
	}
}

// Close stops accepting, severs every live site connection and waits for
// the connection goroutines to drain. With a store attached the WAL is
// flushed and closed but no checkpoint is written — restart replays the
// tail; Shutdown is the graceful path.
func (s *Server) Close() error {
	err := s.sever()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.recv.Store != nil {
		if cerr := s.recv.Store.Close(); err == nil {
			err = cerr
		}
		s.recv.Store = nil
	}
	return err
}

// Shutdown is the graceful stop: it stops accepting, waits up to timeout
// for connected sites to hang up on their own, severs stragglers, then
// writes a final checkpoint so the next start replays an empty WAL.
func (s *Server) Shutdown(timeout time.Duration) error {
	s.closeOnce.Do(func() { close(s.closing) })
	err := s.ln.Close()
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(timeout):
		s.sever() //nolint:errcheck — listener error already captured
		<-done
	}
	s.connMu.Lock()
	s.conns = nil
	s.connMu.Unlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	if st := s.recv.Store; st != nil {
		if cerr := st.Checkpoint(s.recv.Coord, s.recv.Dedupe); cerr != nil && err == nil {
			err = cerr
		}
		if cerr := st.Close(); cerr != nil && err == nil {
			err = cerr
		}
		s.recv.Store = nil
	}
	return err
}

// sever closes the listener and every live connection, then waits for the
// connection goroutines.
func (s *Server) sever() error {
	s.closeOnce.Do(func() { close(s.closing) })
	err := s.ln.Close()
	s.connMu.Lock()
	for conn := range s.conns {
		conn.Close()
	}
	s.conns = nil
	s.connMu.Unlock()
	s.wg.Wait()
	return err
}
