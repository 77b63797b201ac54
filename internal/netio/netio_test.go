package netio

import (
	"bytes"
	"math"
	"math/rand"
	"net"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"cludistream"
	"cludistream/internal/coordinator"
	"cludistream/internal/gaussian"
	"cludistream/internal/linalg"
	"cludistream/internal/netsim"
	"cludistream/internal/site"
	"cludistream/internal/tree"
)

// NewServer is NewServerOpts with no telemetry and no durability.
func NewServer(addr string, coord *coordinator.Coordinator) (*Server, error) {
	return NewServerOpts(addr, coord, ServerOptions{})
}

func newCoord(t *testing.T) *coordinator.Coordinator {
	t.Helper()
	c, err := coordinator.New(coordinator.Config{Dim: 1, Merge: gaussian.MergeOptions{MomentOnly: true}})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func newSite(t *testing.T, id int) *site.Site {
	t.Helper()
	s, err := site.New(site.Config{
		SiteID: id, Dim: 1, K: 2, Epsilon: 0.1, FitEps: 0.8, Delta: 0.01,
		Seed: int64(id), ChunkSize: 200,
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func regime(mean float64) *gaussian.Mixture {
	return gaussian.MustMixture(
		[]float64{0.5, 0.5},
		[]*gaussian.Component{
			gaussian.Spherical(linalg.Vector{mean - 2}, 0.5),
			gaussian.Spherical(linalg.Vector{mean + 2}, 0.5),
		})
}

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	payloads := [][]byte{{}, {1}, bytes.Repeat([]byte{7}, 100000)}
	for _, p := range payloads {
		if err := writeFrame(&buf, p); err != nil {
			t.Fatal(err)
		}
	}
	for _, want := range payloads {
		got, err := readFrame(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("frame corrupted: %d bytes vs %d", len(got), len(want))
		}
	}
}

func TestFrameTooLarge(t *testing.T) {
	// A forged length prefix above the cap must be rejected without
	// allocating the claimed size.
	var buf bytes.Buffer
	buf.Write([]byte{0xFF, 0xFF, 0xFF, 0xFF})
	if _, err := readFrame(&buf); err != ErrFrameTooLarge {
		t.Fatalf("err = %v", err)
	}
	if err := writeFrame(&buf, make([]byte, maxFrameSize+1)); err != ErrFrameTooLarge {
		t.Fatalf("write err = %v", err)
	}
}

func TestAckRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	_ = writeAck(&buf, true)
	_ = writeAck(&buf, false)
	if err := readAck(&buf); err != nil {
		t.Fatalf("ok ack: %v", err)
	}
	if err := readAck(&buf); err != ErrRemote {
		t.Fatalf("err ack: %v", err)
	}
	buf.Write([]byte{0x42})
	if err := readAck(&buf); err == nil {
		t.Fatal("invalid ack byte accepted")
	}
}

func TestEndToEndOverTCP(t *testing.T) {
	coord := newCoord(t)
	srv, err := NewServer("127.0.0.1:0", coord)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	const sites = 3
	clients := make([]*Client, sites)
	for i := range clients {
		c, err := Dial(srv.Addr().String(), newSite(t, i+1), i+1, DialOptions{})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		clients[i] = c
	}

	rng := rand.New(rand.NewSource(1))
	mix := regime(0)
	for rec := 0; rec < 200*3; rec++ {
		for _, c := range clients {
			if err := c.Observe(mix.Sample(rng)); err != nil {
				t.Fatal(err)
			}
		}
	}

	// Synchronous acks mean everything sent has been applied.
	ds := srv.DeliveryStats()
	if ds.Applied != 3 {
		t.Fatalf("server applied %d messages, want 3", ds.Applied)
	}
	if ds.ApplyErrors != 0 {
		t.Fatalf("apply errors: %d", ds.ApplyErrors)
	}
	srv.Snapshot(func(c *coordinator.Coordinator) {
		if c.NumModels() != 3 {
			t.Fatalf("coordinator has %d models", c.NumModels())
		}
		gm := c.GlobalMixture()
		if gm == nil {
			t.Fatal("no global mixture")
		}
		if ll := gm.AvgLogLikelihood([]linalg.Vector{{-2}, {2}}); ll < -4 {
			t.Fatalf("global LL = %v", ll)
		}
	})

	// Client accounting matches server accounting.
	var clientBytes int
	for _, c := range clients {
		d := c.Delivery()
		clientBytes += d.GoodputBytes
		if d.Acked != 1 {
			t.Fatalf("client messages = %d", d.Acked)
		}
	}
	if serverBytes := srv.DeliveryStats().BytesIn; clientBytes != serverBytes {
		t.Fatalf("byte accounting: clients %d vs server %d", clientBytes, serverBytes)
	}
}

func TestConcurrentClients(t *testing.T) {
	coord := newCoord(t)
	srv, err := NewServer("127.0.0.1:0", coord)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	const sites = 8
	var wg sync.WaitGroup
	errs := make(chan error, sites)
	for i := 0; i < sites; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			c, err := Dial(srv.Addr().String(), newSite(t, id), id, DialOptions{})
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			rng := rand.New(rand.NewSource(int64(id)))
			mix := regime(float64(id) * 30)
			for rec := 0; rec < 200*2; rec++ {
				if err := c.Observe(mix.Sample(rng)); err != nil {
					errs <- err
					return
				}
			}
		}(i + 1)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	srv.Snapshot(func(c *coordinator.Coordinator) {
		if c.NumModels() != sites {
			t.Fatalf("models = %d, want %d", c.NumModels(), sites)
		}
	})
}

func TestSlidingWindowDeletionsOverTCP(t *testing.T) {
	coord := newCoord(t)
	srv, err := NewServer("127.0.0.1:0", coord)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	st := newSite(t, 1)
	// Sliding windows need the coordinator's weights synced to the site
	// counters.
	c, err := Dial(srv.Addr().String(), mustSlidingSite(t), 1, DialOptions{SlidingHorizonChunks: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	_ = st

	rng := rand.New(rand.NewSource(2))
	mix := regime(0)
	for rec := 0; rec < 200*6; rec++ {
		if err := c.Observe(mix.Sample(rng)); err != nil {
			t.Fatal(err)
		}
	}
	srv.Snapshot(func(co *coordinator.Coordinator) {
		var total float64
		for _, g := range co.Groups() {
			total += g.Weight()
		}
		if math.Abs(total-400) > 1e-6 {
			t.Fatalf("coordinator mass = %v, want 400 (horizon 2 × 200)", total)
		}
	})
}

// TestSlidingReactivatedModelIsNotLost drives a sliding sender whose horizon
// (2 chunks) is shorter than its regime cycle (3 chunks of A, 3 of B, A
// again): while B runs, every record of A's model expires, its weight drains
// to zero at the coordinator and Section 7's rule deletes it there. When A
// returns the site re-activates its archived model and emits a bare
// WeightUpdate, which the coordinator can only refuse; the sender, which
// emitted the deletions, must send the synopsis again instead. The one
// scenario runs through every sender: a netio.Client over TCP, the facade
// on perfect and on lossy, duplicating links, and a tree.Deployment whose
// sliding leaf sits behind an aggregator.
func TestSlidingReactivatedModelIsNotLost(t *testing.T) {
	const chunkSize, horizon = 200, 2
	// A sender returns its site, the record sink, and drain, which delivers
	// everything queued, fails the test on any rejection or apply error, and
	// returns the model weights of the coordinator the site sends to and
	// the record mass at the root.
	type drainFunc func() (weights []coordinator.ModelWeight, rootMass float64)
	type sender func(t *testing.T) (*site.Site, func(linalg.Vector) error, drainFunc)
	overTCP := func(t *testing.T) (*site.Site, func(linalg.Vector) error, drainFunc) {
		srv, err := NewServer("127.0.0.1:0", newCoord(t))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		st := mustSlidingSite(t)
		c, err := Dial(srv.Addr().String(), st, 1, DialOptions{SlidingHorizonChunks: horizon})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		return st, c.Observe, func() (weights []coordinator.ModelWeight, rootMass float64) {
			if err := c.Flush(5 * time.Second); err != nil {
				t.Fatal(err)
			}
			if got := c.Delivery().Rejected; got != 0 {
				t.Errorf("client: %d messages rejected", got)
			}
			if got := srv.DeliveryStats().ApplyErrors; got != 0 {
				t.Errorf("server: %d apply errors", got)
			}
			srv.Snapshot(func(co *coordinator.Coordinator) { weights, rootMass = co.ModelWeights(), co.TotalWeight() })
			return weights, rootMass
		}
	}
	facade := func(fault *netsim.FaultPlan) sender {
		return func(t *testing.T) (*site.Site, func(linalg.Vector) error, drainFunc) {
			// The facade builds mustSlidingSite's site: site 1, seed 1.
			sys, err := cludistream.New(cludistream.Config{
				NumSites: 1, Dim: 1, K: 2, Epsilon: 0.1, FitEps: 0.8, Delta: 0.01,
				Seed: 1, ChunkSize: chunkSize, Merge: gaussian.MergeOptions{MomentOnly: true},
				SlidingHorizonChunks: horizon, Fault: fault,
			})
			if err != nil {
				t.Fatal(err)
			}
			observe := func(x linalg.Vector) error { return sys.Feed(0, x) }
			// A rejected update is the facade's delivery error, surfacing
			// from Feed or Drain.
			return sys.Site(0), observe, func() ([]coordinator.ModelWeight, float64) {
				if err := sys.Drain(); err != nil {
					t.Fatal(err)
				}
				if d := sys.DeliveryStats(); d.Pending != 0 {
					t.Fatalf("%d messages still queued after Drain", d.Pending)
				}
				return sys.Coordinator().ModelWeights(), sys.Coordinator().TotalWeight()
			}
		}
	}
	// behindAggregator hangs the sliding leaf under one aggregator: the
	// aggregator receives the site's messages, the root its pseudo-model.
	behindAggregator := func(t *testing.T) (*site.Site, func(linalg.Vector) error, drainFunc) {
		topo, err := tree.Spec{Leaves: 1, AggLayers: 1, FanOut: 1, Link: tree.LinkSpec{Latency: 0.05}}.Build()
		if err != nil {
			t.Fatal(err)
		}
		dep, err := tree.NewDeployment(tree.Config{
			Topology: topo,
			Site: site.Config{
				Dim: 1, K: 2, Epsilon: 0.1, FitEps: 0.8, Delta: 0.01, ChunkSize: chunkSize,
			},
			Coord:                coordinator.Config{Dim: 1, Merge: gaussian.MergeOptions{MomentOnly: true}},
			Seed:                 1,
			SlidingHorizonChunks: horizon,
		})
		if err != nil {
			t.Fatal(err)
		}
		observe := func(x linalg.Vector) error { return dep.Feed(0, x) }
		// Every node's apply error is the deployment's delivery error.
		return dep.LeafSite(0), observe, func() ([]coordinator.ModelWeight, float64) {
			if err := dep.Drain(); err != nil {
				t.Fatal(err)
			}
			return dep.NodeCoordinator(1).ModelWeights(), dep.NodeCoordinator(0).TotalWeight()
		}
	}
	cases := []struct {
		name  string
		start sender
	}{
		{"netio.Client", overTCP},
		{"System", facade(nil)},
		{"System+Fault", facade(&netsim.FaultPlan{DropProb: 0.2, DupProb: 0.2, Rand: rand.New(rand.NewSource(5))})},
		{"tree.Deployment", behindAggregator},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			st, observe, drain := tc.start(t)
			rng := rand.New(rand.NewSource(3))
			for _, mix := range []*gaussian.Mixture{regime(0), regime(100), regime(0), regime(100)} {
				for rec := 0; rec < 3*chunkSize; rec++ {
					if err := observe(mix.Sample(rng)); err != nil {
						t.Fatal(err)
					}
				}
			}
			got, rootMass := drain()
			if n := len(st.Models()); n != 2 {
				t.Fatalf("site holds %d models, want 2 (the returning regimes re-activate the archive)", n)
			}
			// The coordinator's counters must be the site's in-window record
			// counts.
			inWindow := map[int]int{}
			h := st.History()
			for chunk := h.ChunksSeen - horizon + 1; chunk <= h.ChunksSeen; chunk++ {
				id, _ := h.ModelAt(chunk)
				inWindow[id] += chunkSize
			}
			var want []coordinator.ModelWeight
			var mass float64
			for _, m := range st.Models() {
				if n := inWindow[m.ID]; n > 0 {
					want = append(want, coordinator.ModelWeight{SiteID: 1, ModelID: m.ID, Counter: n})
					mass += float64(n)
				}
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("coordinator.ModelWeights() = %v, the site's window holds %v", got, want)
			}
			if rootMass != mass {
				t.Errorf("root holds %v records, the site's window %v", rootMass, mass)
			}
		})
	}
}

func mustSlidingSite(t *testing.T) *site.Site {
	t.Helper()
	s, err := site.New(site.Config{
		SiteID: 1, Dim: 1, K: 2, Epsilon: 0.1, FitEps: 0.8, Delta: 0.01,
		Seed: 1, ChunkSize: 200, EmitFitWeightUpdates: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestUploaderTwoLevelHierarchy(t *testing.T) {
	// Root coordinator ← aggregator ← site: the §7 tree over real TCP.
	rootCoord := newCoord(t)
	rootSrv, err := NewServer("127.0.0.1:0", rootCoord)
	if err != nil {
		t.Fatal(err)
	}
	defer rootSrv.Close()

	aggCoord := newCoord(t)
	aggSrv, err := NewServer("127.0.0.1:0", aggCoord)
	if err != nil {
		t.Fatal(err)
	}
	defer aggSrv.Close()

	upConn, err := DialConnRetry(rootSrv.Addr().String(), RetryPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	defer upConn.Close()
	up := newUploader(upConn, 100)

	// Two sites feed the aggregator.
	rng := rand.New(rand.NewSource(5))
	for i := 1; i <= 2; i++ {
		c, err := Dial(aggSrv.Addr().String(), newSite(t, i), i, DialOptions{})
		if err != nil {
			t.Fatal(err)
		}
		mix := regime(float64(i-1) * 40)
		for rec := 0; rec < 200*2; rec++ {
			if err := c.Observe(mix.Sample(rng)); err != nil {
				t.Fatal(err)
			}
		}
		c.Close()
	}

	// Sync the aggregator's merged model upward.
	syncOnce := func() bool {
		var sent bool
		aggSrv.Snapshot(func(co *coordinator.Coordinator) {
			var total float64
			for _, g := range co.Groups() {
				total += g.Weight()
			}
			var err error
			sent, err = up.Sync(co.GlobalMixture(), total)
			if err != nil {
				t.Fatal(err)
			}
		})
		return sent
	}
	if !syncOnce() {
		t.Fatal("first sync transmitted nothing")
	}
	// Unchanged model: second sync must be silent.
	if syncOnce() {
		t.Fatal("unchanged model re-uploaded")
	}
	rootSrv.Snapshot(func(co *coordinator.Coordinator) {
		if co.NumModels() != 1 {
			t.Fatalf("root has %d models, want the aggregator's 1", co.NumModels())
		}
		gm := co.GlobalMixture()
		for _, mean := range []float64{0, 40} {
			probe := []linalg.Vector{{mean - 2}, {mean + 2}}
			if ll := gm.AvgLogLikelihood(probe); ll < -8 {
				t.Fatalf("regime at %v missing from root: LL=%v", mean, ll)
			}
		}
	})

	// A third site with a new regime changes the aggregator's model; the
	// next sync must replace the root's copy (deletion + new model).
	c3, err := Dial(aggSrv.Addr().String(), newSite(t, 3), 3, DialOptions{})
	if err != nil {
		t.Fatal(err)
	}
	mix := regime(-40)
	for rec := 0; rec < 200*2; rec++ {
		if err := c3.Observe(mix.Sample(rng)); err != nil {
			t.Fatal(err)
		}
	}
	c3.Close()
	if !syncOnce() {
		t.Fatal("changed model not re-uploaded")
	}
	rootSrv.Snapshot(func(co *coordinator.Coordinator) {
		if co.NumModels() != 1 {
			t.Fatalf("stale upload not replaced: %d models", co.NumModels())
		}
		probe := []linalg.Vector{{-42}, {-38}}
		if ll := co.GlobalMixture().AvgLogLikelihood(probe); ll < -8 {
			t.Fatalf("new regime missing after re-upload: LL=%v", ll)
		}
	})
}

func TestServerRejectsGarbage(t *testing.T) {
	coord := newCoord(t)
	srv, err := NewServer("127.0.0.1:0", coord)
	if err != nil {
		t.Fatal(err)
	}
	srv.Logf = func(string, ...any) {} // expected noise
	defer srv.Close()

	conn, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := writeFrame(conn, []byte{9, 9, 9}); err != nil {
		t.Fatal(err)
	}
	if err := readAck(conn); err != ErrRemote {
		t.Fatalf("garbage frame ack = %v, want ErrRemote", err)
	}
	if applyErrs := srv.DeliveryStats().ApplyErrors; applyErrs != 1 {
		t.Fatalf("applyErrs = %d", applyErrs)
	}
}

func TestClientObserveAndSite(t *testing.T) {
	coord := newCoord(t)
	srv, err := NewServer("127.0.0.1:0", coord)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	st := newSite(t, 1)
	c, err := Dial(srv.Addr().String(), st, 1, DialOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if c.Site() != st {
		t.Fatal("Site accessor mismatch")
	}
	rng := rand.New(rand.NewSource(7))
	batch := make([]linalg.Vector, 200*2)
	mix := regime(0)
	for i := range batch {
		batch[i] = mix.Sample(rng)
	}
	if err := observe(c, batch); err != nil {
		t.Fatal(err)
	}
	if acked := c.Delivery().Acked; acked != 1 {
		t.Fatalf("messages = %d", acked)
	}
	// A wrong-dimension record fails with the site's error.
	if err := c.Observe(linalg.Vector{1, 2, 3}); err == nil {
		t.Fatal("bad record accepted")
	}
}

func TestServerCustomLogf(t *testing.T) {
	coord := newCoord(t)
	srv, err := NewServer("127.0.0.1:0", coord)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	var logged int
	srv.Logf = func(string, ...any) { logged++ }
	conn, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := writeFrame(conn, []byte{1, 2, 3}); err != nil { // undecodable
		t.Fatal(err)
	}
	if err := readAck(conn); err != ErrRemote {
		t.Fatalf("ack = %v", err)
	}
	if logged == 0 {
		t.Fatal("custom Logf never invoked")
	}
}

func TestDialFailure(t *testing.T) {
	if _, err := Dial("127.0.0.1:1", newSite(t, 1), 1, DialOptions{Retry: RetryPolicy{DialTimeout: 200 * time.Millisecond}}); err == nil {
		t.Fatal("dial to closed port succeeded")
	}
}

func TestDialInvalidHorizon(t *testing.T) {
	coord := newCoord(t)
	srv, err := NewServer("127.0.0.1:0", coord)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if _, err := Dial(srv.Addr().String(), newSite(t, 1), 1, DialOptions{SlidingHorizonChunks: -1}); err == nil {
		t.Fatal("negative horizon accepted")
	}
}

// TestDialRejectsForeignSiteID: updates carry the site's own id, so a
// siteID argument (or a handshake RetryPolicy.SiteID) naming another site
// would send this site's deletions and watermark prune under that site's
// id. Dial refuses the mismatch against a live coordinator.
func TestDialRejectsForeignSiteID(t *testing.T) {
	coord := newCoord(t)
	srv, err := NewServer("127.0.0.1:0", coord)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	for _, tc := range []struct {
		name   string
		siteID int
		opts   DialOptions
	}{
		{"siteID argument", 2, DialOptions{SlidingHorizonChunks: 2}},
		{"handshake SiteID", 1, DialOptions{Retry: RetryPolicy{SiteID: 2}}},
	} {
		c, err := Dial(srv.Addr().String(), newSite(t, 1), tc.siteID, tc.opts)
		if err == nil {
			c.Close()
			t.Fatalf("%s: dial as site %d for site 1 accepted", tc.name, tc.siteID)
		}
	}
	c, err := Dial(srv.Addr().String(), newSite(t, 1), 1, DialOptions{Retry: RetryPolicy{SiteID: 1}})
	if err != nil {
		t.Fatalf("matching ids refused: %v", err)
	}
	c.Close()
}

func TestServerCloseDegradesGracefully(t *testing.T) {
	coord := newCoord(t)
	srv, err := NewServer("127.0.0.1:0", coord)
	if err != nil {
		t.Fatal(err)
	}
	c, err := Dial(srv.Addr().String(), newSite(t, 1), 1, DialOptions{
		Retry: RetryPolicy{AttemptTimeout: 300 * time.Millisecond, BaseBackoff: time.Millisecond, MaxBackoff: 20 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := srv.Close(); err != nil && !strings.Contains(err.Error(), "use of closed") {
		t.Fatalf("close: %v", err)
	}
	// With the coordinator gone, the site must keep clustering locally:
	// Observe queues updates in the outbox instead of failing or hanging.
	rng := rand.New(rand.NewSource(3))
	mix := regime(0)
	for rec := 0; rec < 200*2; rec++ {
		if err := c.Observe(mix.Sample(rng)); err != nil {
			t.Fatalf("observe against a dead coordinator: %v", err)
		}
	}
	d := c.Delivery()
	if d.Queued == 0 {
		t.Fatal("no updates queued while disconnected")
	}
	if d.Acked != 0 {
		t.Fatalf("acked %d messages against a closed server", d.Acked)
	}
	// A bounded flush against a dead coordinator reports the backlog.
	if err := c.Flush(100 * time.Millisecond); err == nil {
		t.Fatal("flush against a dead coordinator succeeded")
	}
	if st := c.Site().Stats(); st.Chunks == 0 {
		t.Fatal("site stopped clustering while disconnected")
	}
}
