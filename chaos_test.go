package cludistream

import (
	"bytes"
	"math/rand"
	"sort"
	"testing"

	"cludistream/internal/gaussian"
	"cludistream/internal/linalg"
	"cludistream/internal/netsim"
)

// chaosStream is a deterministic single-site stream crossing three
// well-separated regimes — several NewModel transmissions, so there is
// real state to lose and recover.
func chaosStream() []linalg.Vector {
	rng := rand.New(rand.NewSource(17))
	recs := make([]linalg.Vector, 3000)
	means := []float64{-50, 0, 50}
	for i := range recs {
		recs[i] = bimodal(means[3*i/len(recs)]).Sample(rng)
	}
	return recs
}

func singleSiteConfig() Config {
	return Config{
		NumSites:  1,
		Dim:       1,
		K:         2,
		Epsilon:   0.5,
		Delta:     0.01,
		Seed:      1,
		ChunkSize: 200,
		Merge:     gaussian.MergeOptions{MomentOnly: true},
	}
}

// encodeGlobal canonicalizes the final model to its exact codec bytes:
// "recovered" means bit-identical, not merely close.
func encodeGlobal(t *testing.T, sys *System) []byte {
	t.Helper()
	gm := sys.GlobalMixture()
	if gm == nil {
		t.Fatal("nil global mixture")
	}
	return gaussian.AppendMixture(nil, gm)
}

// TestChaosBitIdenticalRecovery is the acceptance scenario: 20% message
// loss, a 5-second coordinator outage, and a site crash/restart with full
// replay. The final global mixture must be byte-for-byte identical to a
// fault-free run over the same records.
func TestChaosBitIdenticalRecovery(t *testing.T) {
	records := chaosStream()

	clean, err := New(singleSiteConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range records {
		if err := clean.Feed(0, x); err != nil {
			t.Fatal(err)
		}
	}
	if err := clean.Drain(); err != nil {
		t.Fatal(err)
	}
	want := encodeGlobal(t, clean)

	cfg := singleSiteConfig()
	cfg.Fault = &netsim.FaultPlan{
		DropProb: 0.2,
		Rand:     rand.New(rand.NewSource(9)),
		// The records span ~3 simulated seconds at the default arrival
		// rate; this 5-second window blacks out the coordinator from
		// mid-stream until well past the end, so recovery rides entirely
		// on the sites' retransmissions during Drain.
		Outages: []netsim.Outage{{Start: 1.2, End: 6.2}},
	}
	faulty, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// First incarnation processes half the stream, then the process dies.
	for _, x := range records[:1500] {
		if err := faulty.Feed(0, x); err != nil {
			t.Fatal(err)
		}
	}
	if err := faulty.CrashSite(0); err != nil {
		t.Fatal(err)
	}
	// The restarted site replays the stream from the beginning — the
	// model list is the replay log (Section 6 recovery).
	for _, x := range records {
		if err := faulty.Feed(0, x); err != nil {
			t.Fatal(err)
		}
	}
	if err := faulty.Drain(); err != nil {
		t.Fatal(err)
	}

	d := faulty.DeliveryStats()
	if d.Pending != 0 {
		t.Fatalf("%d payloads still pending after Drain", d.Pending)
	}
	if d.DroppedMessages == 0 || d.RetransmitBytes == 0 || d.Retries == 0 {
		t.Fatalf("fault plan never bit: %+v", d)
	}
	if d.SiteResets != 1 {
		t.Fatalf("site resets = %d, want 1", d.SiteResets)
	}
	if got := encodeGlobal(t, faulty); !bytes.Equal(got, want) {
		t.Fatalf("final mixture diverged under faults:\n got %d bytes\nwant %d bytes", len(got), len(want))
	}
	// A fault-free system has zero overhead: every wire byte is goodput.
	cd := clean.DeliveryStats()
	if cd.RetransmitBytes != 0 || cd.DroppedMessages != 0 || cd.Retries != 0 || cd.SiteResets != 0 {
		t.Fatalf("clean run has fault-tolerance overhead: %+v", cd)
	}
	if cd.GoodputBytes != clean.TotalBytes() {
		t.Fatalf("clean goodput %d != wire total %d", cd.GoodputBytes, clean.TotalBytes())
	}
}

// TestCrashSiteWithoutFaultPlan: a site crash needs no fault plan. On
// fault-free links the restarted site's first frame discards its dead
// incarnation at the coordinator, so the root holds exactly the records
// the surviving incarnations were fed. The horizon outlasts the stream:
// nothing expires, and every chunk reports its weight.
func TestCrashSiteWithoutFaultPlan(t *testing.T) {
	cfg := smallConfig()
	cfg.NumSites = 2
	cfg.SlidingHorizonChunks = 100
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(8))
	var fed [2]int
	feed := func(n int, mean float64) {
		t.Helper()
		for i := 0; i < n; i++ {
			for s := range fed {
				if err := sys.Feed(s, bimodal(mean).Sample(rng)); err != nil {
					t.Fatal(err)
				}
				fed[s]++
			}
		}
	}
	feed(600, 0)
	if err := sys.CrashSite(1); err != nil {
		t.Fatal(err)
	}
	fed[1] = 0
	feed(800, 20)
	if err := sys.Drain(); err != nil {
		t.Fatal(err)
	}
	if d := sys.DeliveryStats(); d.SiteResets != 1 || d.Pending != 0 {
		t.Fatalf("delivery after one site crash: %+v, want 1 site reset and nothing pending", d)
	}
	if got, want := sys.Coordinator().TotalWeight(), float64(fed[0]+fed[1]); got != want {
		t.Fatalf("root weight %v, want the %v records of the surviving incarnations", got, want)
	}
}

// TestChaosCoordinatorCrashRecovery kills the coordinator twice mid-merge
// under 20% message loss and recovers it from its checkpoint + WAL store.
// The final global mixture must be byte-for-byte identical to a crash-free,
// fault-free run over the same records — recovery is bit-identical, not
// merely close.
func TestChaosCoordinatorCrashRecovery(t *testing.T) {
	records := chaosStream()

	clean, err := New(singleSiteConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range records {
		if err := clean.Feed(0, x); err != nil {
			t.Fatal(err)
		}
	}
	if err := clean.Drain(); err != nil {
		t.Fatal(err)
	}
	want := encodeGlobal(t, clean)

	cfg := singleSiteConfig()
	cfg.Fault = &netsim.FaultPlan{
		DropProb: 0.2,
		Rand:     rand.New(rand.NewSource(9)),
	}
	cfg.Durability = &DurabilityConfig{
		Dir: t.TempDir(),
		// No automatic checkpoint inside this run: every recovery must
		// rebuild through a genuine WAL replay, not a fresh checkpoint.
		CheckpointEvery: 1 << 20,
		Fsync:           "always",
		SelfCheck:       true,
	}
	faulty, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, x := range records {
		if i == len(records)/3 || i == 2*len(records)/3 {
			if err := faulty.CrashCoordinator(); err != nil {
				t.Fatal(err)
			}
		}
		if err := faulty.Feed(0, x); err != nil {
			t.Fatal(err)
		}
	}
	if err := faulty.Drain(); err != nil {
		t.Fatal(err)
	}

	d := faulty.DeliveryStats()
	if d.Pending != 0 {
		t.Fatalf("%d payloads still pending after Drain", d.Pending)
	}
	if d.DroppedMessages == 0 || d.RetransmitBytes == 0 || d.Retries == 0 {
		t.Fatalf("fault plan never bit: %+v", d)
	}
	rec := faulty.Recovery()
	if rec.Restarts != 2 {
		t.Fatalf("coordinator restarts = %d, want 2", rec.Restarts)
	}
	if rec.RecordsReplayed == 0 {
		t.Fatal("recovery never replayed a WAL record — the crash path was not exercised")
	}
	if got := encodeGlobal(t, faulty); !bytes.Equal(got, want) {
		t.Fatalf("final mixture diverged across coordinator crashes:\n got %d bytes\nwant %d bytes", len(got), len(want))
	}
}

// canonicalComponents returns (weight, mean, variance) triples sorted by
// mean — the order-free fingerprint of a 1-d mixture.
func canonicalComponents(t *testing.T, sys *System) [][3]float64 {
	t.Helper()
	gm := sys.GlobalMixture()
	if gm == nil {
		t.Fatal("nil global mixture")
	}
	out := make([][3]float64, gm.K())
	for j := 0; j < gm.K(); j++ {
		c := gm.Component(j)
		out[j] = [3]float64{gm.Weight(j), c.Mean()[0], c.Cov().At(0, 0)}
	}
	sort.Slice(out, func(a, b int) bool { return out[a][1] < out[b][1] })
	return out
}

// TestChaosMultiSiteLoss runs three sites with far-separated regimes under
// 20% loss. Retransmission delays reorder arrivals across sites — so group
// ids differ — but the recovered component set must match the fault-free
// run exactly, component for component.
func TestChaosMultiSiteLoss(t *testing.T) {
	cfg := smallConfig()
	records := make([]linalg.Vector, 3600)
	rng := rand.New(rand.NewSource(23))
	for i := range records {
		// Round-robin feed: record i goes to site i%3, each site with its
		// own distant regime.
		records[i] = bimodal(float64(i%3) * 200).Sample(rng)
	}

	run := func(fault *netsim.FaultPlan) *System {
		c := cfg
		c.Fault = fault
		sys, err := New(c)
		if err != nil {
			t.Fatal(err)
		}
		if err := sys.FeedRoundRobin(records); err != nil {
			t.Fatal(err)
		}
		if err := sys.Drain(); err != nil {
			t.Fatal(err)
		}
		return sys
	}

	clean := run(nil)
	faulty := run(&netsim.FaultPlan{DropProb: 0.2, Rand: rand.New(rand.NewSource(31))})

	d := faulty.DeliveryStats()
	if d.DroppedMessages == 0 || d.RetransmitBytes == 0 {
		t.Fatalf("loss never bit: %+v", d)
	}
	if d.Pending != 0 {
		t.Fatalf("%d payloads pending after Drain", d.Pending)
	}
	// Every wire byte is either goodput or a loss; retransmissions are the
	// overhead subset flagged separately.
	if faulty.TotalBytes() != d.GoodputBytes+d.DroppedBytes {
		t.Fatalf("byte accounting inconsistent: total=%d stats=%+v", faulty.TotalBytes(), d)
	}
	if d.RetransmitBytes >= faulty.TotalBytes() {
		t.Fatalf("retransmit bytes %d exceed wire total %d", d.RetransmitBytes, faulty.TotalBytes())
	}

	got, want := canonicalComponents(t, faulty), canonicalComponents(t, clean)
	if len(got) != len(want) {
		t.Fatalf("component count %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("component %d diverged:\n got %v\nwant %v", i, got[i], want[i])
		}
	}
}
