package daemon

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net"
	"net/http"
	"os"
	"regexp"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cludistream/internal/coordinator"
	"cludistream/internal/linalg"
	"cludistream/internal/netio"
	"cludistream/internal/persist"
	"cludistream/internal/site"
	"cludistream/internal/stream"
)

// Every test here runs coordd and sited bodies in the test process on
// 127.0.0.1:0 listeners; nothing is exec'd, so nothing can outlive the
// test binary.

// chunk is the sites' chunk size: small, so a test feeds few records.
const chunk = 200

// syncBuf is an operator log the daemons' goroutines write concurrently.
type syncBuf struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuf) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuf) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// waitFor polls cond until it holds, failing the test after 10 s.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// coordConfig is a root coordd on an ephemeral port.
func coordConfig(log *syncBuf) CoordinatorConfig {
	return CoordinatorConfig{Listen: "127.0.0.1:0", Coord: coordinator.Config{Dim: 4}, Stdout: log, Stderr: log}
}

func startCoord(t *testing.T, cfg CoordinatorConfig) *Coordinator {
	t.Helper()
	c, err := StartCoordinator(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// stationary is a Pd=0 synthetic stream: one mixture forever. A site fed
// one chunk of it sends exactly one model.
func stationary(t *testing.T, seed int64) func() linalg.Vector {
	t.Helper()
	gen, err := stream.NewSynthetic(stream.SyntheticConfig{Dim: 4, K: 5, Pd: 0, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return gen.Next
}

func siteConfig(id int) site.Config {
	return site.Config{SiteID: id, Dim: 4, K: 5, Epsilon: 0.02, FitEps: 0.25, Delta: 0.01, CMax: 4, Seed: int64(id), ChunkSize: chunk}
}

// runSite is sited: feed one chunk from next to the coordinator at addr.
func runSite(ctx context.Context, addr string, id int, epoch uint32, next func() linalg.Vector, log *syncBuf) error {
	return RunSite(ctx, SiteConfig{
		Connect: addr, Site: siteConfig(id), Next: next, Updates: chunk,
		MaxRetry: 1, ShutdownTimeout: 10 * time.Second, Epoch: epoch, Stdout: log, Stderr: log,
	})
}

func deliveryStats(c *Coordinator) netio.ServerStats { return c.srv.DeliveryStats() }

// modelsOf returns the coordinator's registered models of one (pseudo-)site.
func modelsOf(c *Coordinator, siteID int) []coordinator.ModelWeight {
	var out []coordinator.ModelWeight
	c.srv.Snapshot(func(co *coordinator.Coordinator) {
		for _, m := range co.ModelWeights() {
			if m.SiteID == siteID {
				out = append(out, m)
			}
		}
	})
	return out
}

// freeAddr returns a loopback address nothing listens on.
func freeAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

// TestDialRetry: a site started before its coordinator (-max-retry -1)
// logs its backoff, connects once the coordinator is up and finishes.
func TestDialRetry(t *testing.T) {
	addr := freeAddr(t)
	log := &syncBuf{}
	cfg := SiteConfig{
		Connect: addr, Site: siteConfig(1), Next: stationary(t, 1), Updates: chunk,
		MaxRetry: -1, ShutdownTimeout: 10 * time.Second, Epoch: 1, Stdout: log, Stderr: log,
	}
	done := make(chan error, 1)
	go func() { done <- RunSite(context.Background(), cfg) }()
	waitFor(t, "a dial retry", func() bool { return strings.Contains(log.String(), "retrying in") })

	ccfg := coordConfig(log)
	ccfg.Listen = addr
	c := startCoord(t, ccfg)
	defer c.Stop(time.Second)
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(20 * time.Second):
		t.Fatal("site never finished after the coordinator came up")
	}
	if !strings.Contains(log.String(), "sited 1: connected to "+addr) {
		t.Fatalf("no connect line:\n%s", log)
	}
	if got := modelsOf(c, 1); len(got) != 1 {
		t.Fatalf("coordinator holds %v for site 1, want one model", got)
	}
}

// TestDialRetryCancel: cancelling a retry-forever dial (what SIGINT does
// through signal.NotifyContext) returns promptly instead of sleeping out
// the backoff.
func TestDialRetryCancel(t *testing.T) {
	log := &syncBuf{}
	cfg := SiteConfig{
		Connect: freeAddr(t), Site: siteConfig(1), Next: stationary(t, 1), Updates: chunk,
		MaxRetry: -1, Epoch: 1, Stdout: log, Stderr: log,
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- RunSite(ctx, cfg) }()
	waitFor(t, "a dial retry", func() bool { return strings.Contains(log.String(), "retrying in") })
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) || ExitCode(err) != 1 {
			t.Fatalf("RunSite = %v, want context.Canceled (exit 1)", err)
		}
	case <-time.After(250 * time.Millisecond):
		t.Fatal("RunSite kept sleeping through its backoff after cancel")
	}
}

// TestEpochRestart: the same site id run twice, epochs 1 then 2, leaves one
// model (the second incarnation replaced the first instead of doubling it)
// and the status line counts one site reset.
func TestEpochRestart(t *testing.T) {
	log := &syncBuf{}
	cfg := coordConfig(log)
	cfg.Status = 10 * time.Millisecond
	c := startCoord(t, cfg)
	defer c.Stop(time.Second)
	addr := c.Addr().String()
	for epoch := uint32(1); epoch <= 2; epoch++ {
		if err := runSite(context.Background(), addr, 3, epoch, stationary(t, 3), log); err != nil {
			t.Fatal(err)
		}
	}
	if got := modelsOf(c, 3); len(got) != 1 {
		t.Fatalf("site 3 has %v after an epoch restart, want one model", got)
	}
	if ds := deliveryStats(c); ds.SiteResets != 1 || ds.ApplyErrors != 0 {
		t.Fatalf("delivery stats %+v, want 1 site reset and no apply errors", ds)
	}
	waitFor(t, "the status line", func() bool { return strings.Contains(log.String(), "0 dups dropped, 1 site resets") })
}

// ackHold forwards TCP to a coordinator; while held it swallows the
// coordinator's replies, so frames are applied but their acks are lost —
// what a crash between apply and ack looks like to a site.
type ackHold struct {
	ln     net.Listener
	target string
	held   atomic.Bool
	mu     sync.Mutex
	conns  []net.Conn
	wg     sync.WaitGroup
}

func newAckHold(t *testing.T, target string) *ackHold {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := &ackHold{ln: ln, target: target}
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		for {
			down, err := ln.Accept()
			if err != nil {
				return
			}
			up, err := net.Dial("tcp", target)
			if err != nil {
				down.Close() // the coordinator is down: refuse like it would
				continue
			}
			p.mu.Lock()
			p.conns = append(p.conns, down, up)
			p.mu.Unlock()
			p.wg.Add(2)
			go p.pipe(up, down, false)
			go p.pipe(down, up, true)
		}
	}()
	t.Cleanup(func() {
		ln.Close()
		p.mu.Lock()
		for _, c := range p.conns {
			c.Close()
		}
		p.mu.Unlock()
		p.wg.Wait()
	})
	return p
}

func (p *ackHold) pipe(dst, src net.Conn, replies bool) {
	defer p.wg.Done()
	defer dst.Close()
	defer src.Close()
	buf := make([]byte, 4096)
	for {
		n, err := src.Read(buf)
		if n > 0 && !(replies && p.held.Load()) {
			if _, werr := dst.Write(buf[:n]); werr != nil {
				return
			}
		}
		if err != nil {
			return
		}
	}
}

// stateBytes encodes the coordinator's snapshot for bit-level comparison.
func stateBytes(t *testing.T, c *Coordinator) []byte {
	t.Helper()
	var buf bytes.Buffer
	var err error
	c.srv.Snapshot(func(co *coordinator.Coordinator) {
		err = persist.SaveCoordinatorState(&buf, &persist.CoordinatorState{Snapshot: co.Snapshot()})
	})
	if err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestCrashDurability: a durable coordinator is killed (no final
// checkpoint) after applying a frame whose ack never reached the site.
// The restart on the same state dir replays the WAL to bit-identical
// state, and the reconnecting site's restart handshake prunes the applied
// frame, so it retransmits 0 bytes.
func TestCrashDurability(t *testing.T) {
	log := &syncBuf{}
	cfg := coordConfig(log)
	cfg.StateDir = t.TempDir()
	c1 := startCoord(t, cfg)
	cfg.Listen = c1.Addr().String()
	proxy := newAckHold(t, cfg.Listen)

	st, err := site.New(siteConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	client, err := netio.Dial(proxy.ln.Addr().String(), st, 1, netio.DialOptions{
		Retry: netio.RetryPolicy{Epoch: 1, BaseBackoff: time.Millisecond, MaxBackoff: 20 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	feed := func(next func() linalg.Vector) error {
		for i := 0; i < chunk; i++ {
			if err := client.Observe(next()); err != nil {
				return err
			}
		}
		return nil
	}
	if err := feed(stationary(t, 1)); err != nil { // model 1, acked
		t.Fatal(err)
	}
	if err := client.Flush(5 * time.Second); err != nil {
		t.Fatal(err)
	}

	// A chunk from another distribution refits and ships model 2; the
	// coordinator applies it, the ack is swallowed, and the coordinator
	// dies before the site learns the frame landed.
	proxy.held.Store(true)
	next := stationary(t, 2)
	fed := make(chan error, 1)
	go func() { fed <- feed(next) }()
	waitFor(t, "the held frame's apply", func() bool { return deliveryStats(c1).Applied == 2 })
	before := stateBytes(t, c1)
	if err := c1.shutdown(0, false); err != nil {
		t.Fatal(err)
	}
	if err := <-fed; err != nil {
		t.Fatal(err)
	}
	proxy.held.Store(false)

	c2 := startCoord(t, cfg)
	defer c2.Stop(time.Second)
	if !regexp.MustCompile(`recovered .* 2 WAL records replayed`).MatchString(log.String()) {
		t.Fatalf("no recovery line replaying 2 WAL records:\n%s", log)
	}
	if !bytes.Equal(stateBytes(t, c2), before) {
		t.Fatal("recovered coordinator state differs from the state at the crash")
	}
	if err := client.Flush(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	d := client.Delivery()
	if d.RetransmitBytes != 0 || d.HandshakePruned != 1 || d.Reconnects == 0 || d.Queued != 0 {
		t.Fatalf("site delivery %+v, want a reconnect whose handshake pruned the applied frame and 0 retransmitted bytes", d)
	}
	if ds := deliveryStats(c2); ds.Duplicates != 0 || ds.ApplyErrors != 0 {
		t.Fatalf("restarted coordinator %+v, want no duplicates or errors", ds)
	}
}

// TestStopLeavesOneGeneration: the graceful stop writes the final
// checkpoint and leaves exactly one checkpoint+WAL pair, so the next start
// replays nothing.
func TestStopLeavesOneGeneration(t *testing.T) {
	log := &syncBuf{}
	cfg := coordConfig(log)
	cfg.StateDir = t.TempDir()
	c := startCoord(t, cfg)
	if err := runSite(context.Background(), c.Addr().String(), 1, 1, stationary(t, 1), log); err != nil {
		t.Fatal(err)
	}
	if err := c.Stop(time.Second); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(log.String(), "final checkpoint written to "+cfg.StateDir) {
		t.Fatalf("no final checkpoint line:\n%s", log)
	}
	entries, err := os.ReadDir(cfg.StateDir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	var gen string
	if len(names) == 2 {
		gen = strings.TrimSuffix(strings.TrimPrefix(names[0], "checkpoint-"), ".ckpt")
	}
	if len(names) != 2 || names[0] != "checkpoint-"+gen+".ckpt" || names[1] != "wal-"+gen+".log" {
		t.Fatalf("state dir holds %v, want one checkpoint-N.ckpt + wal-N.log pair", names)
	}
	c = startCoord(t, cfg)
	defer c.Stop(time.Second)
	if !strings.Contains(log.String(), " 0 WAL records replayed") {
		t.Fatalf("restart after a graceful stop replayed the WAL:\n%s", log)
	}
}

// TestAddressCollisionRefused: colliding -listen/-debug-addr/-query-addr
// (and a bad -fsync) are configuration errors, refused before durable.Open
// creates the state directory.
func TestAddressCollisionRefused(t *testing.T) {
	addr := freeAddr(t)
	_, port, _ := net.SplitHostPort(addr)
	for name, mut := range map[string]func(*CoordinatorConfig){
		"listen=query":     func(c *CoordinatorConfig) { c.Listen, c.QueryAddr = addr, addr },
		"listen=debug":     func(c *CoordinatorConfig) { c.Listen, c.DebugAddr = addr, addr },
		"debug=wildcard":   func(c *CoordinatorConfig) { c.DebugAddr, c.QueryAddr = addr, ":"+port },
		"fsync":            func(c *CoordinatorConfig) { c.Durable.Fsync = "sometimes" },
		"publish-every":    func(c *CoordinatorConfig) { c.QueryAddr, c.PublishEvery = "127.0.0.1:0", 0 },
		"connect-interval": func(c *CoordinatorConfig) { c.Connect = addr },
	} {
		t.Run(name, func(t *testing.T) {
			log := &syncBuf{}
			cfg := coordConfig(log)
			cfg.PublishEvery = time.Second
			cfg.StateDir = t.TempDir() + "/state"
			mut(&cfg)
			c, err := StartCoordinator(context.Background(), cfg)
			if err == nil {
				c.Stop(time.Second)
				t.Fatal("started")
			}
			if ExitCode(err) != 2 {
				t.Fatalf("err = %v, want a configuration error (exit 2)", err)
			}
			if _, serr := os.Stat(cfg.StateDir); !os.IsNotExist(serr) {
				t.Fatalf("state dir touched before the config was refused (stat: %v)", serr)
			}
		})
	}
}

// TestQueryTier: every /query/* path answers 503 until the first publish
// and 200 after it; a bad point is a 400 and a far one a null density.
func TestQueryTier(t *testing.T) {
	log := &syncBuf{}
	cfg := coordConfig(log)
	cfg.QueryAddr, cfg.PublishEvery = "127.0.0.1:0", 5*time.Millisecond
	c := startCoord(t, cfg)
	defer c.Stop(time.Second)
	base := "http://" + c.QueryAddr().String()
	get := func(path string) (int, map[string]any) {
		t.Helper()
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var body map[string]any
		json.NewDecoder(resp.Body).Decode(&body)
		return resp.StatusCode, body
	}
	paths := []string{"/query/snapshot", "/query/classify?x=0,0,0,0", "/query/density?x=0,0,0,0", "/query/topk?x=0,0,0,0&k=2"}
	for _, p := range paths {
		if code, _ := get(p); code != http.StatusServiceUnavailable {
			t.Fatalf("%s before the first publish: %d, want 503", p, code)
		}
	}
	if err := runSite(context.Background(), c.Addr().String(), 1, 1, stationary(t, 1), log); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "the first publish", func() bool { code, _ := get(paths[0]); return code == http.StatusOK })
	for _, p := range paths {
		if code, _ := get(p); code != http.StatusOK {
			t.Fatalf("%s after the first publish: %d, want 200", p, code)
		}
	}
	_, cls := get(paths[1])
	_, den := get(paths[2])
	if cls["log_density"] != den["log_density"] {
		t.Fatalf("classify log_density %v != density %v", cls["log_density"], den["log_density"])
	}
	if code, _ := get("/query/density?x=0,NaN,0,0"); code != http.StatusBadRequest {
		t.Fatalf("non-finite x: %d, want 400", code)
	}
	if code, far := get("/query/density?x=1e200,0,0,0"); code != http.StatusOK || far["log_density"] != nil {
		t.Fatalf("far point: %d %v, want 200 with a null log_density", code, far)
	}
}

// TestAggregatorRestart: root ← aggregator (coordd -connect) ← sites. The
// aggregator uploads twice, stops, and a new incarnation (a higher epoch,
// fresh state) takes over with one new site. The root must hold exactly
// one pseudo-model for the node, carrying the new incarnation's weight, and
// no apply errors: under a fixed uplink epoch the new incarnation's first
// upload would be dropped as a duplicate of the old one's.
func TestAggregatorRestart(t *testing.T) {
	const node = 100
	log := &syncBuf{}
	root := startCoord(t, coordConfig(log))
	defer root.Stop(time.Second)
	aggConfig := func(epoch uint32) CoordinatorConfig {
		cfg := coordConfig(log)
		cfg.Connect, cfg.NodeID, cfg.Epoch = root.Addr().String(), node, epoch
		cfg.Interval, cfg.MaxRetry = 5*time.Millisecond, 1
		return cfg
	}
	uploaded := func(modelID, count int) func() bool {
		return func() bool {
			got := modelsOf(root, node)
			return len(got) == 1 && got[0].ModelID == modelID && (count == 0 || got[0].Counter == count)
		}
	}

	agg := startCoord(t, aggConfig(1))
	for id := 1; id <= 2; id++ { // two sites: the merged mixture changes, so two uploads
		if err := runSite(context.Background(), agg.Addr().String(), id, 1, stationary(t, int64(id)), log); err != nil {
			t.Fatal(err)
		}
		waitFor(t, "the aggregator's upload", uploaded(id, 0))
	}
	if err := agg.Stop(time.Second); err != nil {
		t.Fatal(err)
	}

	agg = startCoord(t, aggConfig(2))
	defer agg.Stop(time.Second)
	if err := runSite(context.Background(), agg.Addr().String(), 3, 1, stationary(t, 3), log); err != nil {
		t.Fatal(err)
	}
	var weight float64
	agg.srv.Snapshot(func(co *coordinator.Coordinator) { weight = co.TotalWeight() })
	want := int(weight + 0.5)
	var got []coordinator.ModelWeight
	for deadline := time.Now().Add(10 * time.Second); !uploaded(1, want)(); time.Sleep(5 * time.Millisecond) {
		if got = modelsOf(root, node); time.Now().After(deadline) {
			t.Fatalf("root holds %v for node %d, want only model 1 with counter %d", got, node, want)
		}
	}
	if ds := deliveryStats(root); ds.ApplyErrors != 0 || ds.SiteResets != 1 {
		t.Fatalf("root delivery %+v, want 0 apply errors and 1 site reset", ds)
	}
}
