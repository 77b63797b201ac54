package daemon

import (
	"context"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"cludistream/internal/buildinfo"
	"cludistream/internal/coordinator"
	"cludistream/internal/durable"
	"cludistream/internal/gaussian"
	"cludistream/internal/hier"
	"cludistream/internal/netio"
	"cludistream/internal/persist"
	"cludistream/internal/query"
	"cludistream/internal/telemetry"
)

// CoordinatorConfig is cmd/coordd's flag set; the flags document each
// field. Coord.Telemetry instruments every layer and is what DebugAddr
// serves. Connect makes the node an aggregator that uploads its merged
// mixture to the parent as pseudo-site NodeID every Interval (when it
// changed), under the site rule: epoch Epoch (0 = wall-clock seconds) and
// the restart handshake. Stdout and Stderr default to the process's own.
type CoordinatorConfig struct {
	Listen       string
	Coord        coordinator.Config
	Status       time.Duration
	StateDir     string
	Durable      durable.Options
	DebugAddr    string
	QueryAddr    string
	PublishEvery time.Duration

	Connect  string
	NodeID   int
	Epoch    uint32
	Interval time.Duration
	MaxRetry int

	Stdout, Stderr io.Writer
}

// validate rejects a bad flag set before anything binds or touches
// StateDir: a -query-addr that collides with -debug-addr or -listen would
// otherwise surface as a bind failure only after a long WAL replay.
func (cfg CoordinatorConfig) validate() error {
	if _, err := persist.ParseFsyncMode(string(cfg.Durable.Fsync)); err != nil {
		return configErr("%v", err)
	}
	if err := validateAddrs(cfg.Listen, cfg.DebugAddr, cfg.QueryAddr); err != nil {
		return err
	}
	if cfg.QueryAddr != "" && cfg.PublishEvery <= 0 {
		return configErr("-publish-every must be positive when -query-addr is set")
	}
	if cfg.Connect != "" && cfg.Interval <= 0 {
		return configErr("-interval must be positive when -connect is set")
	}
	return nil
}

// Coordinator is a running coordd node.
type Coordinator struct {
	cfg            CoordinatorConfig
	stdout, stderr io.Writer

	srv    *netio.Server
	dbg    *telemetry.DebugServer
	qsrv   *query.Server
	pub    *query.Publisher
	parent *netio.Conn
	mirror *hier.UploadMirror

	stop chan struct{}
	wg   sync.WaitGroup // the status, publish and upload loops
}

// StartCoordinator validates cfg, recovers StateDir, binds every listener
// and starts the node's loops. With Connect set it also dials the parent,
// retrying per MaxRetry; ctx bounds that start-up wait only — the running
// node is ended by Stop. On error everything already started is closed.
func StartCoordinator(ctx context.Context, cfg CoordinatorConfig) (*Coordinator, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	c := &Coordinator{cfg: cfg, stop: make(chan struct{})}
	c.stdout, c.stderr = writers(cfg.Stdout, cfg.Stderr)
	if err := c.start(ctx); err != nil {
		c.shutdown(0, false)
		return nil, err
	}
	return c, nil
}

func (c *Coordinator) start(ctx context.Context) error {
	cfg := c.cfg
	reg := cfg.Coord.Telemetry
	var err error
	if cfg.DebugAddr != "" {
		if c.dbg, err = telemetry.Serve(cfg.DebugAddr, reg); err != nil {
			return err
		}
		fmt.Fprintf(c.stdout, "coordd: debug endpoints on http://%v/debug/vars\n", c.dbg.Addr())
	}

	srvOpts := netio.ServerOptions{Telemetry: reg}
	var coord *coordinator.Coordinator
	if cfg.StateDir != "" {
		opts := cfg.Durable
		opts.Telemetry = reg
		opts.Logf = func(format string, args ...any) { fmt.Fprintf(c.stderr, "coordd: "+format+"\n", args...) }
		store, rec, err := durable.Open(cfg.StateDir, cfg.Coord, opts)
		if err != nil {
			return err
		}
		defer func() {
			if c.srv == nil {
				store.Close()
			}
		}()
		if rec.CheckpointLoaded {
			fmt.Fprintf(c.stdout, "coordd: recovered %s — %d models over %d sites, %d WAL records replayed (%d torn bytes) in %v, %d applied total\n",
				cfg.StateDir, rec.Coord.NumModels(), rec.Dedupe.Len(), rec.RecordsReplayed,
				rec.TornBytes, rec.Duration.Round(time.Millisecond), rec.Applied)
		} else {
			fmt.Fprintf(c.stdout, "coordd: fresh state directory %s\n", cfg.StateDir)
		}
		coord, srvOpts.Store, srvOpts.Dedupe = rec.Coord, store, rec.Dedupe
	} else if coord, err = coordinator.New(cfg.Coord); err != nil {
		return configErr("%v", err)
	}
	if c.srv, err = netio.NewServerOpts(cfg.Listen, coord, srvOpts); err != nil {
		return err
	}
	fmt.Fprintf(c.stdout, "coordd: version=%s listen=%v dim=%d status=%v state_dir=%s fsync=%s debug_addr=%s parent=%s\n",
		buildinfo.Version, c.srv.Addr(), cfg.Coord.Dim, cfg.Status, cfg.StateDir, cfg.Durable.Fsync, cfg.DebugAddr, cfg.Connect)

	if cfg.QueryAddr != "" {
		c.pub = query.NewPublisher(query.Options{Telemetry: reg})
		if c.qsrv, err = query.Serve(cfg.QueryAddr, c.pub); err != nil {
			return fmt.Errorf("query listener: %w", err)
		}
		fmt.Fprintf(c.stdout, "coordd: query tier on http://%v/query/classify (publish every %v)\n", c.qsrv.Addr(), cfg.PublishEvery)
		c.loop(cfg.PublishEvery, c.publishTick())
	}
	if cfg.Status > 0 {
		c.loop(cfg.Status, c.printStatus)
	}
	if cfg.Connect != "" {
		pol := netio.RetryPolicy{Epoch: incarnation(cfg.Epoch), SiteID: int32(cfg.NodeID), Telemetry: reg}
		prefix := fmt.Sprintf("coordd: node %d", cfg.NodeID)
		c.parent, err = dialRetry(ctx, cfg.Connect, cfg.MaxRetry, c.stderr, prefix, func() (*netio.Conn, error) {
			return netio.DialConnRetry(cfg.Connect, pol)
		})
		if err != nil {
			return err
		}
		c.mirror = hier.NewUploadMirror(cfg.NodeID)
		fmt.Fprintf(c.stdout, "%s: uploading to %s (epoch %d)\n", prefix, cfg.Connect, pol.Epoch)
		c.loop(cfg.Interval, c.upload)
	}
	return nil
}

// loop runs fn every interval until Stop.
func (c *Coordinator) loop(interval time.Duration, fn func()) {
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-c.stop:
				return
			case <-t.C:
				fn()
			}
		}
	}()
}

// publishTick returns the publish loop's body: capture mixture, version
// and mass atomically under the apply lock, so the snapshot equals the
// coordinator state at an exact applied-update prefix, and publish when
// the version moved. The deep copy and kd-index build happen outside the
// lock (the captured mixture is immutable).
func (c *Coordinator) publishTick() func() {
	var lastVer uint64
	return func() {
		var mix *gaussian.Mixture
		var ver uint64
		var mass float64
		c.srv.Snapshot(func(co *coordinator.Coordinator) {
			if ver = co.MixtureVersion(); ver != lastVer {
				mix, mass = co.GlobalMixture(), co.TotalWeight()
			}
		})
		if mix == nil { // unchanged since last publish, or still empty
			return
		}
		if _, err := c.pub.Publish(mix, ver, mass); err != nil {
			fmt.Fprintln(c.stderr, "coordd: publish:", err)
			return
		}
		lastVer = ver
	}
}

func (c *Coordinator) printStatus() {
	ds := c.srv.DeliveryStats()
	c.srv.Snapshot(func(co *coordinator.Coordinator) {
		fmt.Fprintf(c.stdout, "coordd: %d models / %d leaves / %d groups | %d msgs, %d bytes, %d errors | %d dups dropped, %d site resets\n",
			co.NumModels(), co.NumLeaves(), len(co.Groups()), ds.Applied, ds.BytesIn, ds.ApplyErrors,
			ds.Duplicates, ds.SiteResets)
	})
}

// upload queues the merged mixture for the parent when it changed
// materially since the last upload (hier.UploadMirror's rule). A send
// error invalidates the mirror, so the next tick re-uploads; the
// connection's outbox retries delivery on its own.
func (c *Coordinator) upload() {
	var mix *gaussian.Mixture
	var weight float64
	c.srv.Snapshot(func(co *coordinator.Coordinator) { mix, weight = co.GlobalMixture(), co.TotalWeight() })
	msgs := c.mirror.Sync(mix, weight)
	for _, m := range msgs {
		if err := c.parent.Send(m); err != nil {
			c.mirror.Invalidate()
			fmt.Fprintf(c.stderr, "coordd: node %d upload: %v (will retry)\n", c.cfg.NodeID, err)
			return
		}
	}
	if len(msgs) > 0 {
		fmt.Fprintf(c.stdout, "coordd: node %d uploaded refreshed model (K=%d)\n", c.cfg.NodeID, mix.K())
	}
}

// Addr returns the address children connect to (useful with ":0").
func (c *Coordinator) Addr() net.Addr { return c.srv.Addr() }

// QueryAddr returns the query tier's address, or nil when it is off.
func (c *Coordinator) QueryAddr() net.Addr {
	if c.qsrv == nil {
		return nil
	}
	return c.qsrv.Addr()
}

// Stop is the SIGTERM path: stop accepting, wait up to timeout for
// children to hang up, write the final checkpoint, upload the final
// mixture and drain the uplink, join every loop and close every listener
// the node started. It prints the final model summary.
func (c *Coordinator) Stop(timeout time.Duration) error {
	fmt.Fprintf(c.stdout, "coordd: shutting down (waiting up to %v for children)\n", timeout)
	err := c.shutdown(timeout, true)
	if err == nil && c.cfg.StateDir != "" {
		fmt.Fprintf(c.stdout, "coordd: final checkpoint written to %s\n", c.cfg.StateDir)
	}
	ds := c.srv.DeliveryStats()
	c.srv.Snapshot(func(co *coordinator.Coordinator) {
		fmt.Fprintf(c.stdout, "coordd: final state — %d site models, %d merged groups\n", co.NumModels(), len(co.Groups()))
		if ds.Duplicates > 0 || ds.SiteResets > 0 {
			fmt.Fprintf(c.stdout, "coordd: exactly-once — %d duplicate msgs (%d bytes) dropped, %d site resets\n",
				ds.Duplicates, ds.DuplicateBytes, ds.SiteResets)
		}
		if gm := co.GlobalMixture(); gm != nil {
			for j := 0; j < gm.K(); j++ {
				fmt.Fprintf(c.stdout, "  component %2d: weight %.4f, mean %v\n", j, gm.Weight(j), gm.Component(j).Mean())
			}
		}
	})
	return err
}

// shutdown stops the server — gracefully (Stop), or as kill -9 does
// (StartCoordinator's unwinding, and the crash tests): severed
// connections and a closed WAL without a final checkpoint, so the next
// start replays its tail, and queued uploads lost. Then it joins the
// loops and closes the uplink and the query and debug listeners.
func (c *Coordinator) shutdown(timeout time.Duration, graceful bool) error {
	var err error
	switch {
	case c.srv == nil:
	case graceful:
		err = c.srv.Shutdown(timeout)
	default:
		err = c.srv.Close()
	}
	close(c.stop)
	c.wg.Wait()
	if c.parent != nil {
		if graceful {
			c.upload()
			if ferr := c.parent.Flush(timeout); ferr != nil {
				fmt.Fprintf(c.stderr, "coordd: node %d final upload drain: %v\n", c.cfg.NodeID, ferr)
			}
		}
		c.parent.Close()
	}
	if c.qsrv != nil {
		c.qsrv.Close()
	}
	if c.dbg != nil {
		c.dbg.Close()
	}
	return err
}

// validateAddrs rejects listen/debug/query address collisions. Two
// addresses collide when their ports match and their hosts overlap —
// equal hosts, or either side binding the wildcard.
func validateAddrs(listen, debug, query string) error {
	flags, addrs := []string{"-listen", "-debug-addr", "-query-addr"}, []string{listen, debug, query}
	for i := range addrs {
		for j := i + 1; j < len(addrs); j++ {
			if addrs[i] != "" && addrs[j] != "" && addrsCollide(addrs[i], addrs[j]) {
				return configErr("%s and %s would both bind %s — pick distinct addresses", flags[i], flags[j], addrs[j])
			}
		}
	}
	return nil
}

func addrsCollide(a, b string) bool {
	ha, pa, errA := net.SplitHostPort(a)
	hb, pb, errB := net.SplitHostPort(b)
	if errA != nil || errB != nil {
		// Unparseable addresses fail at bind with their own clear error.
		return a == b
	}
	if pa != pb || pa == "0" {
		return false // different ports, or ephemeral ports that never collide
	}
	wild := func(h string) bool { return h == "" || h == "0.0.0.0" || h == "::" }
	return ha == hb || wild(ha) || wild(hb)
}
