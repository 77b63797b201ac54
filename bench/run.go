package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"cludistream/internal/coordinator"
	"cludistream/internal/linalg"
	"cludistream/internal/query"
)

// metric is one reported number; N is how many samples are behind it.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n"`
}

// result is the outcome of one rep of one workload: a whole pipeline set
// up, driven through the workload's fixed work, checked and torn down.
type result struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Rep       int               `json:"rep"`
	Traced    bool              `json:"traced"`
	Reruns    int               `json:"reruns"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Failures  []string          `json:"failures,omitempty"`
	Known     []string          `json:"known_failures,omitempty"`
	Metrics   map[string]metric `json:"metrics"`
	// Counts are the exact counts of the rep: the work is fixed, so they
	// repeat for one input seed (TestSmoke compares a rep with its twin).
	Counts map[string]int `json:"counts"`

	// speed is the rep's calib.speed: how fast the machine ran, by the
	// memory-walk probe, relative to the reference reading.
	speed float64
}

func (r *result) set(name string, v float64, unit string, n int) {
	r.Metrics[name] = metric{Value: v, Unit: unit, N: n}
}

// setTimed reports a wall-clock quantity twice: as measured under rawName,
// and under name at the reference machine speed — a duration multiplied by
// the rep's calib.speed, a rate (perSecond) divided by it.
func (r *result) setTimed(name, rawName string, v float64, unit string, n int, perSecond bool) {
	r.set(rawName, v, unit, n)
	if perSecond {
		v /= r.speed
	} else {
		v *= r.speed
	}
	r.set(name, v, unit, n)
}

// setP50P99 reports the median and 99th percentile of ds in ms as
// name_p50 and name_p99.
func (r *result) setP50P99(name string, ds []time.Duration) {
	v := ms(ds)
	r.set(name+"_p50", quantile(v, 0.50), "ms", len(v))
	r.set(name+"_p99", quantile(v, 0.99), "ms", len(v))
}

// check records one self-check; a violated check is a failed operation.
func (r *result) check(ok bool, format string, args ...any) {
	r.Attempted++
	if !ok {
		r.Failed++
		if len(r.Failures) < 20 {
			r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
		}
	}
}

// runOpts selects one rep.
type runOpts struct {
	w    *workload
	seed int64
	// chunks is the window's fixed work per site: w.chunks, or
	// w.smokeChunks under -smoke.
	chunks int
	traced bool
	// recover ends the rep with the crash/recover check.
	recover bool
}

// stateRoot is where coordinator state directories are created (and
// removed); resultsDir receives the result lines and span files.
const (
	stateRoot  = ".bench_build/state"
	resultsDir = "bench/results"
)

// rig is one set-up system: the pipeline plus its load generators.
type rig struct {
	p       *pipeline
	drivers []*siteDriver
	qc      *queryClient
}

func (g *rig) close() {
	for _, d := range g.drivers {
		d.close()
	}
	if g.qc != nil {
		g.qc.close()
	}
	g.p.close()
}

var stateSeq atomic.Int64

// setUp is everything before the first timed record: pool generation,
// store open, listeners up, each site's first chunk clustered and the
// snapshot holding every first model published.
func setUp(o runOpts) (_ *rig, err error) {
	dir := filepath.Join(stateRoot, fmt.Sprintf("state-%d-%d", os.Getpid(), stateSeq.Add(1)))
	if err := os.MkdirAll(stateRoot, 0o755); err != nil {
		return nil, err
	}
	p, err := openPipeline(dir)
	if err != nil {
		return nil, err
	}
	g := &rig{p: p}
	defer func() {
		if err != nil {
			p.stopPublisher()
			g.close()
		}
	}()
	var pools [][]linalg.Vector
	for i := 0; i < o.w.sites; i++ {
		d, err := newSiteDriver(o, i, p.srv.Addr().String(), p.epoch)
		if err != nil {
			return nil, fmt.Errorf("site %d: %w", i+1, err)
		}
		g.drivers = append(g.drivers, d)
		pools = append(pools, d.pool)
	}
	g.qc = newQueryClient(p.qsrv.Addr().String(), queryPoints(o.seed, pools))
	for _, d := range g.drivers {
		if err := d.warm(); err != nil {
			return nil, fmt.Errorf("site %d first chunk: %w", d.id, err)
		}
	}
	if err := p.awaitVersion(uint64(o.w.sites)); err != nil {
		return nil, err
	}
	return g, nil
}

// awaitVersion waits until the served snapshot has reached version v.
func (p *pipeline) awaitVersion(v uint64) error {
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); time.Sleep(200 * time.Microsecond) {
		if sn := p.pub.Current(); sn != nil && sn.Version() >= v {
			return nil
		}
	}
	return fmt.Errorf("snapshot version %d not published within 10s", v)
}

func (p *pipeline) coordVersion() (v uint64) {
	p.srv.Snapshot(func(c *coordinator.Coordinator) { v = c.MixtureVersion() })
	return v
}

// runRep sets the system up, drives the workload's fixed work through it
// and derives the metrics; with o.traced the window runs on the decomposed
// ingest path and the per-layer work (staged replay, kernel probes)
// follows it.
func runRep(o runOpts) (*result, error) {
	r := &result{Workload: o.w.name, Seed: o.seed, Traced: o.traced, Metrics: map[string]metric{}}
	r.set("calib.quadform_ns", calibQuadform(), "ns", 1)
	walks := memwalk(nil)

	t0 := time.Now()
	g, err := setUp(o)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer g.close()
	setup := time.Since(t0).Seconds()

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	total0, steal0 := cpuJiffies()

	// The timed window.
	var ingestDone atomic.Bool
	var wg, qwg sync.WaitGroup
	for _, d := range g.drivers {
		wg.Add(1)
		go func() { defer wg.Done(); d.run(o.chunks * chunkSize) }()
	}
	if o.w.liveQuery {
		qwg.Add(1)
		go func() { defer qwg.Done(); g.qc.run(0, &ingestDone) }()
	}
	wg.Wait()
	ingestDone.Store(true)
	qwg.Wait()

	runtime.ReadMemStats(&m1)
	total1, steal1 := cpuJiffies()
	r.set("proc.steal_share", ratio(steal1-steal0, total1-total0), "ratio", int(total1-total0))
	r.set("calib.quadform_after_ns", calibQuadform(), "ns", 1)
	// The median over the walks on both sides of the rep: a burst that
	// hits one side does not move it.
	walks = memwalk(walks)
	slices.Sort(walks)
	r.set("calib.memwalk_ns", walks[len(walks)/2], "ns", len(walks))
	r.speed = memwalkRef / walks[len(walks)/2]
	r.set("calib.speed", r.speed, "ratio", len(walks))

	// Drain and let the publisher catch up with the coordinator; a workload
	// without a live reader then reads the drained pipeline's end state.
	for _, d := range g.drivers {
		err := d.flush(10 * time.Second)
		r.check(err == nil && !d.timedOut, "site %d: flush %v, window timed out %v", d.id, err, d.timedOut)
	}
	r.check(g.p.awaitVersion(g.p.coordVersion()) == nil, "final mixture version never published")
	g.p.stopPublisher()
	if !o.w.liveQuery {
		g.qc.run(readBatches, new(atomic.Bool))
	}

	var records, failed int
	var wall time.Duration
	for _, d := range g.drivers {
		records += d.records
		failed += d.failed
		wall = max(wall, d.wall)
	}
	r.Attempted += records + len(g.qc.rtts)
	r.Failed += failed + g.qc.failed

	counts(r, g)
	r.setTimed("setup_s", "pipeline.setup_raw_s", setup, "s", 1, false)
	e2eMetrics(r, g, records, wall)
	selfChecks(r, o, g)
	if o.traced {
		layerMetrics(r, o, g, records, wall, &m0, &m1)
	}
	if o.recover {
		recoverProbe(r, g)
	}
	return r, nil
}

// counts sums the sites' decision and delivery counters.
func counts(r *result, g *rig) {
	c := map[string]int{}
	for _, d := range g.drivers {
		st, dl := d.st.Stats(), d.delivery()
		c["records"] += st.Records
		c["site.chunks"] += st.Chunks
		c["site.tests"] += st.Tests
		c["site.fits"] += st.Fits
		c["site.reactivated"] += st.Reactivated
		c["site.refits"] += st.Refits
		c["site.em_runs"] += st.EMRuns
		c["site.warm_refits"] += st.WarmRefits
		c["site.prune_hits"] += st.PruneHits
		c["site.prune_fallbacks"] += st.PruneFallbacks
		c["netio.acked"] += dl.Acked
		c["netio.goodput_bytes"] += dl.GoodputBytes
		c["netio.retries"] += dl.Retries
		c["netio.reconnects"] += dl.Reconnects
		c["netio.dropped"] += dl.Dropped
		c["netio.rejected"] += dl.Rejected
	}
	r.Counts = c
}

// e2eMetrics derives what a user of the system sees.
func e2eMetrics(r *result, g *rig, records int, wall time.Duration) {
	secs := wall.Seconds()
	if g.drivers[0].w.pacedRate > 0 {
		// An open loop's rate is set by the clock, not by the machine.
		r.set("records_per_s", ratio(float64(records), secs), "records/s", records)
		r.set("pipeline.records_per_s_raw", ratio(float64(records), secs), "records/s", records)
	} else {
		r.setTimed("records_per_s", "pipeline.records_per_s_raw", ratio(float64(records), secs), "records/s", records, true)
	}

	// Messages and bytes are netio.Client.Stats, which count from the dial:
	// each site's first model is in them, so the set-up chunk's records are
	// counted with the bytes.
	acked := r.Counts["netio.acked"]
	r.set("netio.updates_per_s", ratio(float64(acked), secs), "msgs/s", acked)
	r.set("wire_bytes_per_record", ratio(float64(r.Counts["netio.goodput_bytes"]), float64(r.Counts["records"])), "B/record", acked)

	var closes []closeSample
	for _, d := range g.drivers {
		closes = append(closes, d.closes...)
	}
	vis := ingestToVisible(g.p.ticks, closes)
	r.set("pipeline.ingest_to_visible_p50_ms", quantile(vis, 0.50), "ms", len(vis))
	r.set("pipeline.ingest_to_visible_p90_ms", quantile(vis, 0.90), "ms", len(vis))
	r.set("pipeline.ingest_to_visible_p99_ms", quantile(vis, 0.99), "ms", len(vis))

	q := g.qc
	rtt := ms(q.rtts)
	r.set("query.points_per_s", ratio(float64(len(q.replies)*batchPoints), q.wall.Seconds()), "points/s", len(q.replies))
	r.setTimed("query_batch_p50_ms", "query.batch_p50_raw_ms", quantile(rtt, 0.50), "ms", len(rtt), false)
	r.set("query.batch_p99_ms", quantile(rtt, 0.99), "ms", len(rtt))
}

// ingestToVisible returns, sorted in ms, the time from each chunk-closing
// record that produced a message to the moment a snapshot containing its
// update was served: the end of the first publish-loop tick that began
// capturing after Observe returned, or — when that tick found nothing
// new — of the earlier tick that had already published the version.
func ingestToVisible(ticks []tick, closes []closeSample) []float64 {
	var out []float64
	for _, c := range closes {
		if c.msgs == 0 {
			continue
		}
		i := sort.Search(len(ticks), func(i int) bool { return ticks[i].capture >= c.ret })
		if i == len(ticks) {
			continue // the run ended before the next tick
		}
		for i > 0 && ticks[i].snap == nil {
			i--
		}
		out = append(out, float64(ticks[i].done-c.start)/1e6)
	}
	sort.Float64s(out)
	return out
}

// calibQuadform times a fixed 128×4 QuadFormPanel — the machine-speed
// stamp that brackets every rep — in ns. It is the fastest of nine
// 2000-call batches: on the reference box (a shared VM) the median of the
// batches spread 70 % over 40 readings taken 0.2 s apart and the minimum
// 6 %, and a stamp must not carry the noise it is there to detect.
func calibQuadform() float64 {
	cov := linalg.NewSym(dim)
	for i := 0; i < dim; i++ {
		cov.Set(i, i, 2)
		for j := 0; j < i; j++ {
			cov.Set(i, j, 0.3)
		}
	}
	chol, err := linalg.CholeskyDecompose(cov)
	if err != nil {
		panic(err) // a fixed positive-definite matrix
	}
	const block = 128
	src := make([]float64, dim*block)
	for i := range src {
		src[i] = float64(i%17) - 8
	}
	panel := make([]float64, len(src))
	dst := make([]float64, block)
	batches := make([]float64, 9)
	for b := range batches {
		t0 := time.Now()
		for i := 0; i < 2000; i++ {
			copy(panel, src)
			chol.QuadFormPanel(panel, block, block, dst)
		}
		batches[b] = float64(time.Since(t0)) / 2000
	}
	return slices.Min(batches)
}

// memwalkRef is calib.memwalk_ns on the reference box when its neighbours
// are quiet; a rep's calib.speed is memwalkRef over its own reading.
const memwalkRef = 1.65e6

var memwalkBuf = make([]float64, 1<<20) // 8 MB: past the second-level cache

// memwalk times a fixed walk over 8 MB — one sequential and one scattered
// access per cache line, two passes — eleven times and appends the
// durations in ns. It is the benchmark's own code on purpose: a probe made
// of the program's kernels would hide a change to them. On the reference
// box (a shared VM) what moves the workloads by ±25 % over minutes is
// contention for the shared cache and memory, which this walk feels and a
// register-resident loop does not (README, "Machine speed").
func memwalk(walks []float64) []float64 {
	n := len(memwalkBuf)
	for w := 0; w < 11; w++ {
		t0 := time.Now()
		s := 0.0
		for pass := 0; pass < 2; pass++ {
			for i := 0; i < n; i += 8 {
				memwalkBuf[i]++
				s += memwalkBuf[(i*7+pass)&(n-1)]
			}
		}
		memwalkBuf[0] = s
		walks = append(walks, float64(time.Since(t0)))
	}
	return walks
}

// cpuJiffies reads the machine's cumulative CPU time from /proc/stat:
// all of it, and the part a hypervisor gave to somebody else (steal).
func cpuJiffies() (total, steal float64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	for i, f := range strings.Fields(line) {
		v, err := strconv.ParseFloat(f, 64)
		if err != nil || i > 8 { // "cpu", then user … steal; guest time is already in user
			continue
		}
		total += v
		if i == 8 {
			steal = v
		}
	}
	return total, steal
}

// peakRSSMB reads the process's high-water resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// snapshotsByVersion indexes the snapshots the publish loop retained.
func (p *pipeline) snapshotsByVersion() map[uint64]*query.Snapshot {
	m := make(map[uint64]*query.Snapshot)
	for _, t := range p.ticks {
		if t.snap != nil {
			m[t.version] = t.snap
		}
	}
	return m
}
