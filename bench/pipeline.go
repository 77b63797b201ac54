package main

import (
	"fmt"
	"os"
	"sync/atomic"
	"time"

	"cludistream/internal/coordinator"
	"cludistream/internal/durable"
	"cludistream/internal/gaussian"
	"cludistream/internal/netio"
	"cludistream/internal/query"
	"cludistream/internal/site"
)

// The config-mirroring rule: every layer is built by the constructor its
// daemon calls, with that daemon's flag defaults and nothing else. The
// three functions below are the only place a config literal appears;
// TestConfigMirrorsDaemonDefaults pins them.

const (
	dim = 4
	// slidingHorizon is sited's -sliding-chunks for the sliding and query
	// workloads: one palette cycle (3 regimes × regimeChunks), so a model
	// is never drained at the coordinator before the site re-activates it
	// (README findings ledger, item a).
	slidingHorizon = 12
	// publishEvery replaces coordd's 200 ms -publish-every: at the
	// daemon's default, ingest→visible would measure the ticker.
	publishEvery = 2 * time.Millisecond
)

// siteConfig is cmd/sited's site.Config at its flag defaults (-k 5
// -epsilon 0.02 -fit-eps 0.25 -delta 0.01 -cmax 4, d=4 ⇒ M=1567);
// sliding mirrors sited's `EmitFitWeightUpdates: *horizon > 0`.
func siteConfig(id int, seed int64, sliding bool) site.Config {
	return site.Config{
		SiteID: id, Dim: dim, K: 5, Epsilon: 0.02, FitEps: 0.25, Delta: 0.01, CMax: 4,
		Seed: seed, EmitFitWeightUpdates: sliding,
	}
}

// coordConfig is cmd/coordd's coordinator.Config: the paper's
// simplex-fitted L1 merge (no MomentOnly), no telemetry registry.
func coordConfig() coordinator.Config { return coordinator.Config{Dim: dim} }

// storeOptions is cmd/coordd's durable.Options at its flag defaults:
// the zero value selects fsync always and a checkpoint every 256 records.
func storeOptions() durable.Options { return durable.Options{} }

// tick is one iteration of the publish loop. capture is read before the
// apply lock is requested, so a capture at or after the moment an
// Observe call returned contains that call's (already acked) updates.
// snap is nil when the mixture version had not changed.
type tick struct {
	capture, done time.Duration // since the pipeline's epoch
	version       uint64
	snap          *query.Snapshot
}

// maxTicks bounds the preallocated tick log: 2 ms ticks for 120 s.
const maxTicks = 60_000

// pipeline is coordd in one process: durable store → netio server →
// publish loop → query HTTP tier, all on loopback ephemeral ports.
type pipeline struct {
	epoch time.Time
	dir   string
	store *durable.Store
	ded   *durable.Dedupe
	srv   *netio.Server
	pub   *query.Publisher
	qsrv  *query.Server

	ticks    []tick
	stopPub  chan struct{}
	pubDone  chan struct{}
	srvLogs  atomic.Int64 // lines the server logged: each is a failed op
	pubFails atomic.Int64
}

// openPipeline builds the receive side in dir, which must not exist yet.
func openPipeline(dir string) (*pipeline, error) {
	store, rec, err := durable.Open(dir, coordConfig(), storeOptions())
	if err != nil {
		return nil, fmt.Errorf("open store: %w", err)
	}
	p := &pipeline{
		epoch: time.Now(), dir: dir, store: store, ded: rec.Dedupe,
		ticks:   make([]tick, 0, maxTicks),
		stopPub: make(chan struct{}), pubDone: make(chan struct{}),
	}
	p.srv, err = netio.NewServerOpts("127.0.0.1:0", rec.Coord, netio.ServerOptions{Store: store, Dedupe: rec.Dedupe})
	if err != nil {
		store.Close()
		return nil, fmt.Errorf("listen: %w", err)
	}
	p.srv.Logf = func(string, ...any) { p.srvLogs.Add(1) }
	p.pub = query.NewPublisher(query.Options{})
	p.qsrv, err = query.Serve("127.0.0.1:0", p.pub)
	if err != nil {
		p.srv.Close()
		return nil, fmt.Errorf("query listener: %w", err)
	}
	go p.publishLoop()
	return p, nil
}

func (p *pipeline) since() time.Duration { return time.Since(p.epoch) }

// publishLoop mirrors the publish goroutine of cmd/coordd/main.go (it
// lives in package main there, so it cannot be called): capture mixture,
// version and mass under the apply lock, build and swap the snapshot
// outside it, republish only on a version change. The additions are the
// tick log and the retained snapshot.
func (p *pipeline) publishLoop() {
	defer close(p.pubDone)
	t := time.NewTicker(publishEvery)
	defer t.Stop()
	var lastVer uint64
	for {
		select {
		case <-p.stopPub:
			return
		case <-t.C:
		}
		tk := tick{capture: p.since()}
		var mix *gaussian.Mixture
		var ver uint64
		var mass float64
		p.srv.Snapshot(func(c *coordinator.Coordinator) {
			if ver = c.MixtureVersion(); ver != lastVer {
				mix = c.GlobalMixture()
				mass = c.TotalWeight()
			}
		})
		if mix != nil {
			sn, err := p.pub.Publish(mix, ver, mass)
			if err != nil {
				p.pubFails.Add(1)
				continue
			}
			lastVer = ver
			tk.snap = sn
		}
		tk.version = lastVer
		tk.done = p.since()
		if len(p.ticks) < cap(p.ticks) {
			p.ticks = append(p.ticks, tk)
		}
	}
}

// stopPublisher ends the publish loop; p.ticks may be read afterwards.
func (p *pipeline) stopPublisher() {
	close(p.stopPub)
	<-p.pubDone
}

// close tears the pipeline down and removes its state directory. The
// publisher must already be stopped.
func (p *pipeline) close() {
	p.qsrv.Close()
	p.srv.Close()
	os.RemoveAll(p.dir)
}
