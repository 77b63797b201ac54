// Command bench is the repository's benchmark: it assembles the real
// daemon pipeline in one process — sited's site.Site and netio.Client over
// loopback TCP, coordd's durable store, netio server, publish loop and
// query HTTP tier, all at the daemons' flag defaults — drives it with four
// seeded workloads of fixed work, checks its outputs, and prints every
// end-to-end metric (and, traced, every per-layer metric) by name. See
// README.md.
//
//	go run ./bench -workload all -seed 1 -reps 3 -trace 1
//	go run ./bench --workload drift --seed 7 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
	"time"
)

func main() {
	name := flag.String("workload", "all", "steady, drift, sliding, query or all")
	seed := flag.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := flag.Float64("seconds", 20, "time box per workload: reps are started while the next one still fits")
	reps := flag.Int("reps", 0, "run exactly this many reps per workload instead of filling -seconds")
	trace := flag.Int("trace", 0, "1 follows every rep by a traced twin and reports the per-layer metrics")
	smoke := flag.Bool("smoke", false, "tiny sizes, one rep")
	flag.Parse()

	var ws []*workload
	if *name == "all" {
		for i := range workloads {
			ws = append(ws, &workloads[i])
		}
	} else {
		w, err := findWorkload(*name)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(2)
		}
		ws = []*workload{w}
	}
	if *smoke {
		*reps, *seconds = 0, 0 // a time box of nothing: one rep
	}
	stamp := machineStamp()
	fmt.Printf("# bench: %s\n", stampLine(stamp))

	p := plan{seed: *seed, seconds: *seconds, reps: *reps, traced: *trace != 0, smoke: *smoke}
	s, err := p.run(ws, func(r *result) error {
		return appendResult(filepath.Join(resultsDir, stamp["commit"]+".json"), r, stamp)
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	s.print(os.Stdout, len(ws) > 1, p.traced)
	if s.failed > 0 {
		os.Exit(1)
	}
}

// plan is one invocation: which reps to run.
type plan struct {
	seed    int64
	seconds float64 // time box per workload, when reps is 0
	reps    int
	traced  bool
	smoke   bool
}

// summary is every rep of one invocation, by workload.
type summary struct {
	order             []string
	runs              map[string][]*result // untraced reps, in order
	trace             map[string][]*result // their traced twins, if any
	attempted, failed int                  // over every rep run, discarded ones too
	reported          []string             // failed and known-failed checks, re-runs
}

// repSeed is the input seed of a run's rep-th rep. Every rep draws its own
// records and EM seeds: what the same fixed work costs moves by a factor
// of two and a half with them (on drift, where they decide which fitted
// components end up in one group), so a run reports the median over as
// many draws as it has reps, not the luck of one.
func repSeed(seed int64, rep int) int64 { return seed*1000 + int64(rep) }

// maxReruns is how often a rep whose two calibration readings disagree is
// discarded and run again.
const maxReruns = 2

// run interleaves the workloads' reps (A B C D, A B C D …); with tracing
// every rep is followed by its traced twin. A workload gets p.reps reps,
// or as many as fit its time box: a rep is started while the previous
// one's duration still fits. With a fixed rep count, a rep whose
// bracketing calib.quadform_ns readings differ by more than a tenth is
// discarded and re-run, at most twice, and the re-runs are reported; a
// time box keeps every rep, because on a machine whose speed moves that
// much (the reference box: every second rep) re-runs would eat the box.
// keep is called with every kept rep.
func (p plan) run(ws []*workload, keep func(*result) error) (*summary, error) {
	s := &summary{runs: map[string][]*result{}, trace: map[string][]*result{}}
	for _, w := range ws {
		s.order = append(s.order, w.name)
	}
	one := func(w *workload, rep int, traced bool) (*result, error) {
		// The crash/recover check replays the WAL, which costs about what
		// the window did: every traced rep ends with it, and the first
		// untraced rep of a sliding-window workload.
		o := runOpts{w: w, seed: repSeed(p.seed, rep), chunks: w.chunks, traced: traced, recover: traced || (w.sliding && rep == 0)}
		if p.smoke {
			o.chunks = w.smokeChunks
		}
		for try := 0; ; try++ {
			r, err := runRep(o)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", w.name, err)
			}
			r.Rep, r.Reruns = rep, try
			s.attempted += r.Attempted
			s.failed += r.Failed
			for _, f := range r.Failures {
				s.reported = append(s.reported, fmt.Sprintf("FAILED %s seed %d rep %d: %s", w.name, r.Seed, rep, f))
			}
			for _, f := range r.Known {
				s.reported = append(s.reported, fmt.Sprintf("FAILED-EXPECTED %s seed %d rep %d: %s", w.name, r.Seed, rep, f))
			}
			a, b := r.Metrics["calib.quadform_ns"].Value, r.Metrics["calib.quadform_after_ns"].Value
			if p.reps == 0 || try == maxReruns || (a <= 1.1*b && b <= 1.1*a) {
				return r, nil
			}
			s.reported = append(s.reported, fmt.Sprintf("%s rep %d: calib.quadform_ns %.0f → %.0f differ by more than 10%%, discarded and re-run", w.name, rep, a, b))
		}
	}
	spent := make(map[string]time.Duration)
	for rep, ran := 0, true; ran; rep++ {
		ran = false
		for _, w := range ws {
			// Time-boxed: one more rep of the mean duration so far must fit.
			wanted := rep == 0 || (spent[w.name]+spent[w.name]/time.Duration(rep)).Seconds() <= p.seconds
			if p.reps > 0 {
				wanted = rep < p.reps
			}
			if !wanted {
				continue
			}
			ran = true
			t0 := time.Now()
			r, err := one(w, rep, false)
			if err == nil {
				err = keep(r)
			}
			if err != nil {
				return nil, err
			}
			s.runs[w.name] = append(s.runs[w.name], r)
			if p.traced {
				tr, err := one(w, rep, true)
				if err != nil {
					return nil, err
				}
				// The twins do the same fixed work, so the overhead shows as time.
				tr.set("trace.overhead_share", ratio(r.Metrics["records_per_s"].Value, tr.Metrics["records_per_s"].Value)-1, "ratio", 1)
				if err := keep(tr); err != nil {
					return nil, err
				}
				s.trace[w.name] = append(s.trace[w.name], tr)
			}
			spent[w.name] += time.Since(t0)
		}
	}
	return s, nil
}

func appendResult(path string, r *result, stamp map[string]string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	line, err := json.Marshal(struct {
		*result
		Machine map[string]string `json:"machine"`
	}{r, stamp})
	if err == nil {
		_, err = f.Write(append(line, '\n'))
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// values returns one metric over the reps that measured it.
func values(rs []*result, name string) (v []float64, n int) {
	for _, r := range rs {
		if m, ok := r.Metrics[name]; ok {
			v = append(v, m.Value)
			n += m.N
		}
	}
	return v, n
}

// print writes every metric as `name value unit` — the median over the
// reps, with quartiles, sample count and rep count — the failed
// self-checks, and, as the last line, the contract's JSON object: the
// end-to-end metrics, or with tracing the per-layer metrics. With several
// workloads the names are prefixed with the workload's.
func (s *summary) print(w io.Writer, prefixed, traced bool) {
	type valueUnit struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	final := struct {
		Correct   bool                 `json:"correct"`
		Attempted int                  `json:"attempted"`
		Failed    int                  `json:"failed"`
		Metrics   map[string]valueUnit `json:"metrics"`
	}{Correct: s.failed == 0, Attempted: s.attempted, Failed: s.failed, Metrics: map[string]valueUnit{}}
	for _, line := range s.reported {
		fmt.Fprintf(w, "# %s\n", line)
	}
	for _, wl := range s.order {
		prefix := ""
		if prefixed {
			prefix = wl + "."
		}
		section := func(title string, defs []metricDef, rs []*result, inFinal bool) {
			fmt.Fprintf(w, "# workload %s: %s, %d reps\n", wl, title, len(rs))
			for _, m := range defs {
				v, n := values(rs, m.Name)
				if len(v) == 0 {
					continue // recover_s, where no untraced rep crashes the store
				}
				sv := sortedCopy(v)
				med := quantile(sv, 0.5)
				fmt.Fprintf(w, "%s%s %v %s n=%d q1=%v q3=%v reps=%d\n", prefix, m.Name, med, m.Unit,
					n, quantile(sv, 0.25), quantile(sv, 0.75), len(v))
				if inFinal {
					final.Metrics[prefix+m.Name] = valueUnit{med, m.Unit}
				}
			}
		}
		section("end to end (untraced)", endToEnd, s.runs[wl], !traced)
		section("also measured untraced", alsoUntraced, s.runs[wl], false)
		if traced {
			section("per layer (traced)", perLayer, s.trace[wl], true)
		}
	}
	fmt.Fprintf(w, "failed_ops_share %v ratio n=%d\n", ratio(float64(s.failed), float64(s.attempted)), s.attempted)
	line, _ := json.Marshal(final) // strings and finite numbers: cannot fail
	fmt.Fprintf(w, "%s\n", line)
}

// machineStamp identifies where and from what the numbers were taken.
func machineStamp() map[string]string {
	m := map[string]string{
		"cpu": "unknown", "nproc": fmt.Sprint(runtime.NumCPU()), "gomaxprocs": fmt.Sprint(runtime.GOMAXPROCS(0)),
		"go": runtime.Version(), "commit": "unknown", "state_fs": "unknown",
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				m["cpu"] = strings.TrimSpace(v)
				break
			}
		}
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, kv := range bi.Settings {
			if kv.Key == "vcs.revision" && len(kv.Value) >= 12 {
				m["commit"] = kv.Value[:12]
			}
		}
	}
	if err := os.MkdirAll(stateRoot, 0o755); err == nil {
		var fs syscall.Statfs_t
		if syscall.Statfs(stateRoot, &fs) == nil {
			m["state_fs"] = fmt.Sprintf("0x%x", fs.Type)
		}
	}
	return m
}

func stampLine(m map[string]string) string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = k + "=" + m[k]
	}
	return strings.Join(parts, " ")
}
