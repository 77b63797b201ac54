package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"sync"
	"testing"
	"time"

	"cludistream/internal/coordinator"
	"cludistream/internal/durable"
	"cludistream/internal/persist"
	"cludistream/internal/query"
	"cludistream/internal/site"
)

// repoRoot is the repository's root; the tests run in a scratch directory
// so that state directories, result lines and span files land there.
var repoRoot string

func TestMain(m *testing.M) {
	wd, err := os.Getwd()
	if err != nil {
		panic(err)
	}
	repoRoot = filepath.Dir(wd)
	tmp, err := os.MkdirTemp("", "bench-test-")
	if err != nil {
		panic(err)
	}
	if err := os.Chdir(tmp); err != nil {
		panic(err)
	}
	code := m.Run()
	os.RemoveAll(tmp)
	os.Exit(code)
}

// TestConfigMirrorsDaemonDefaults pins the config-mirroring rule: the
// harness builds every layer from the daemons' flag defaults and nothing
// else — no MomentOnly, fsync always, checkpoint every 256, no telemetry
// registry — and those defaults are still what cmd/sited and cmd/coordd
// declare.
func TestConfigMirrorsDaemonDefaults(t *testing.T) {
	want := site.Config{SiteID: 3, Dim: 4, K: 5, Epsilon: 0.02, FitEps: 0.25, Delta: 0.01, CMax: 4, Seed: 7, EmitFitWeightUpdates: true}
	if got := siteConfig(3, 7, true); !reflect.DeepEqual(got, want) {
		t.Errorf("siteConfig = %+v, want %+v", got, want)
	}
	if got := siteConfig(3, 7, false); got.EmitFitWeightUpdates || got.Telemetry != nil {
		t.Errorf("landmark siteConfig = %+v", got)
	}
	if got := coordConfig(); !reflect.DeepEqual(got, coordinator.Config{Dim: 4}) || got.Merge.MomentOnly || got.Telemetry != nil {
		t.Errorf("coordConfig = %+v, want coordinator.Config{Dim: 4}", got)
	}
	if got := storeOptions(); !reflect.DeepEqual(got, durable.Options{}) {
		t.Errorf("storeOptions = %+v, want the zero value (fsync always, checkpoint every 256)", got)
	}
	if chunkSize != 1567 {
		t.Errorf("chunk size M = %d, want 1567", chunkSize)
	}
	for file, flags := range map[string][]string{
		"cmd/sited/main.go": {
			`flag\.Int\("dim", 4,`, `flag\.Int\("k", 5,`, `flag\.Float64\("epsilon", 0\.02,`,
			`flag\.Float64\("fit-eps", 0\.25,`, `flag\.Float64\("delta", 0\.01,`, `flag\.Int\("cmax", 4,`,
			`EmitFitWeightUpdates: \*horizon > 0`,
		},
		"cmd/coordd/main.go": {
			`flag\.Int\("dim", 4,`, `flag\.Int\("checkpoint-every", 256,`, `flag\.String\("fsync", "always",`,
			`coordinator\.Config\{Dim: \*dim, Telemetry: reg\}`,
		},
	} {
		src, err := os.ReadFile(filepath.Join(repoRoot, file))
		if err != nil {
			t.Fatal(err)
		}
		for _, re := range flags {
			if !regexp.MustCompile(re).Match(src) {
				t.Errorf("%s no longer declares %s: update bench/pipeline.go to the daemon's new default", file, re)
			}
		}
	}
}

// TestSmoke runs all four workloads at -smoke sizes, each rep followed by
// its traced twin, with every self-check: no operation may fail, every
// end-to-end metric must be non-zero, every per-layer metric present, and
// the two same-seed reps of a workload — one through netio.Client.Observe,
// one through the decomposed path — must agree on every exact count.
func TestSmoke(t *testing.T) {
	ws := make([]*workload, len(workloads))
	for i := range workloads {
		ws[i] = &workloads[i]
	}
	kept := 0
	s, err := plan{seed: 1, traced: true, smoke: true}.run(ws, func(*result) error { kept++; return nil })
	if err != nil {
		t.Fatal(err)
	}
	if s.failed != 0 || kept != 2*len(ws) {
		t.Errorf("%d of %d operations failed, %d reps kept: %v", s.failed, s.attempted, kept, s.reported)
	}
	for _, w := range ws {
		un, tr := s.runs[w.name][0], s.trace[w.name][0]
		for _, m := range endToEnd {
			if got, ok := un.Metrics[m.Name]; !ok || got.Value <= 0 || got.Unit != m.Unit {
				t.Errorf("%s: end-to-end metric %s = %+v", w.name, m.Name, got)
			}
		}
		if !reflect.DeepEqual(un.Counts, tr.Counts) {
			t.Errorf("%s: same seed, different counts:\nuntraced %v\ntraced   %v", w.name, un.Counts, tr.Counts)
		}
		if un.Counts["site.refits"] < w.sites || un.Counts["site.chunks"] != w.sites*(w.smokeChunks+1) {
			t.Errorf("%s: implausible counts %v", w.name, un.Counts)
		}
		if _, err := os.Stat(filepath.Join(resultsDir, "trace-"+w.name+".json")); err != nil {
			t.Errorf("%s: span file: %v", w.name, err)
		}
	}
	var out bytes.Buffer
	s.print(&out, true, true)
	for _, w := range ws {
		for _, m := range perLayer {
			if got, ok := s.trace[w.name][0].Metrics[m.Name]; !ok || got.Unit != m.Unit {
				t.Errorf("%s: per-layer metric %s = %+v (present %v)", w.name, m.Name, got, ok)
			}
		}
	}
	lines := bytes.Split(bytes.TrimSpace(out.Bytes()), []byte("\n"))
	var final struct {
		Correct   bool
		Attempted int
		Failed    int
		Metrics   map[string]struct {
			Value float64
			Unit  string
		}
	}
	if err := json.Unmarshal(lines[len(lines)-1], &final); err != nil {
		t.Fatalf("last line is not the result object: %v", err)
	}
	if !final.Correct || final.Attempted < 1 || final.Failed != 0 || len(final.Metrics) != len(ws)*len(perLayer) {
		t.Errorf("result object: correct=%v attempted=%d failed=%d metrics=%d", final.Correct, final.Attempted, final.Failed, len(final.Metrics))
	}
}

// TestTracedPathParity proves the traced run's decomposed path —
// site.Observe + Tracker.Expire + FromSiteUpdate + Conn.Send — puts the
// byte-identical message sequence on the wire as netio.Client.Observe:
// the coordinator's WAL, which logs every frame before the dedupe verdict,
// must hold the same records for the same seed.
func TestTracedPathParity(t *testing.T) {
	for _, name := range []string{"drift", "sliding"} {
		w, err := findWorkload(name)
		if err != nil {
			t.Fatal(err)
		}
		one := *w
		one.sites = 1 // one connection, so the WAL order is the send order
		var wals [2][][]byte
		for i, traced := range []bool{false, true} {
			o := runOpts{w: &one, seed: 1, chunks: 14, traced: traced}
			g, err := setUp(o)
			if err != nil {
				t.Fatal(err)
			}
			var wg sync.WaitGroup
			for _, d := range g.drivers {
				wg.Add(1)
				go func() { defer wg.Done(); d.run(o.chunks * chunkSize) }()
			}
			wg.Wait()
			g.p.stopPublisher()
			path := filepath.Join(g.p.dir, fmt.Sprintf("wal-%016d.log", g.p.store.Gen()))
			_, records, torn, err := persist.ReadWALFile(path)
			g.close()
			if err != nil || torn != 0 {
				t.Fatalf("%s: read WAL: %v (torn %d)", name, err, torn)
			}
			wals[i] = records
		}
		if len(wals[0]) < 6 {
			t.Fatalf("%s: only %d messages — not a meaningful comparison", name, len(wals[0]))
		}
		if !reflect.DeepEqual(wals[0], wals[1]) {
			t.Errorf("%s: Client.Observe sent %d messages, the decomposed path %d, or their bytes differ", name, len(wals[0]), len(wals[1]))
		}
	}
}

// TestIngestToVisible pins the visibility rule on a hand-made tick log.
func TestIngestToVisible(t *testing.T) {
	msx := func(v int) time.Duration { return time.Duration(v) * time.Millisecond }
	ticks := []tick{
		{capture: msx(10), done: msx(11), version: 1},
		{capture: msx(20), done: msx(23), version: 2},
		{capture: msx(30), done: msx(31), version: 2},
		{capture: msx(40), done: msx(44), version: 3},
	}
	// Ticks 1 and 3 published; 0 and 2 found the version unchanged.
	sn, err := query.NewPublisher(query.Options{}).Publish(synthetic(0, 1, 1)[0], 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	ticks[1].snap, ticks[3].snap = sn, sn
	closes := []closeSample{
		{start: msx(12), ret: msx(15), msgs: 1}, // next capture 20 publishes: visible at 23
		{start: msx(18), ret: msx(25), msgs: 2}, // capture 30 found nothing new: tick 1 had it, visible at 23
		{start: msx(33), ret: msx(35), msgs: 1}, // visible at 44
		{start: msx(36), ret: msx(38), msgs: 0}, // produced no message: no sample
		{start: msx(41), ret: msx(50), msgs: 1}, // no tick after it: no sample
	}
	got := ingestToVisible(ticks, closes)
	want := []float64{5, 11, 11}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("ingestToVisible = %v, want %v", got, want)
	}
}

// TestBenchmarkJSONMatchesCatalogue keeps BENCHMARK.json and the metric
// and workload tables of this package the same list.
func TestBenchmarkJSONMatchesCatalogue(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join(repoRoot, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type jm struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var bj struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []jm `json:"end_to_end"`
		PerLayer   []jm `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bj); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(bj.Paths, []string{"bench"}) || !reflect.DeepEqual(bj.Command, []string{"bash", "bench/run.sh"}) {
		t.Errorf("paths %v command %v", bj.Paths, bj.Command)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d here", len(bj.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bj.Workloads[i].Name != w.name || bj.Workloads[i].Why != w.why || len(w.why) > 200 {
			t.Errorf("workload %d: %q/%q (why is %d characters)", i, bj.Workloads[i].Name, w.name, len(w.why))
		}
	}
	same := func(kind string, got []jm, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d here", kind, len(got), len(want))
		}
		for i, m := range want {
			g := got[i]
			if g.Name != m.Name || g.Unit != m.Unit || g.Better != m.Better {
				t.Errorf("%s %d: BENCHMARK.json has %+v, catalogue %+v", kind, i, g, m)
			}
			if bounded != (g.Bound != nil) || (bounded && (*g.Bound <= 0 || *g.Bound > 0.25)) {
				t.Errorf("%s %s: bound %v", kind, g.Name, g.Bound)
			}
		}
	}
	same("end_to_end", bj.EndToEnd, endToEnd, true)
	same("per_layer", bj.PerLayer, perLayer, false)
}
