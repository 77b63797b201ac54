// Command obsdump pretty-prints the telemetry of a running daemon (sited
// or coordd, root or aggregator, started with -debug-addr) or of a
// snapshot file written by `experiments -telemetry out.json`.
//
// Usage:
//
//	obsdump -addr localhost:7171              # one formatted snapshot
//	obsdump -addr localhost:7171 -json        # raw JSON snapshot
//	obsdump -addr localhost:7171 -events      # dump the event journal
//	obsdump -addr localhost:7171 -events -follow 1s   # tail it forever
//	obsdump -addr localhost:7171 trace        # slowest-trace span waterfalls
//	obsdump -addr localhost:7171 trace 42     # waterfall of one trace by ID
//	obsdump -addr localhost:7171 query        # query-tier view: version, qps, staleness
//	obsdump out.json                          # pretty-print a saved snapshot
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"cludistream/internal/buildinfo"
	"cludistream/internal/telemetry"
)

func main() {
	addr := flag.String("addr", "", "debug address of a running daemon (host:port)")
	events := flag.Bool("events", false, "dump the event journal instead of the snapshot")
	after := flag.Uint64("after", 0, "with -events: only events with sequence > this")
	limit := flag.Int("limit", 0, "with -events: at most this many events per fetch (0 = all)")
	follow := flag.Duration("follow", 0, "with -events: poll at this interval forever (0 = once)")
	raw := flag.Bool("json", false, "emit raw JSON instead of formatted text")
	interval := flag.Duration("interval", time.Second, "with query: sample window for per-op qps")
	version := flag.Bool("version", false, "print version and exit")
	flag.Parse()
	if *version {
		fmt.Println(buildinfo.String("obsdump"))
		return
	}

	var err error
	switch {
	case *addr != "" && flag.NArg() >= 1 && flag.Arg(0) == "trace":
		var id string
		if flag.NArg() >= 2 {
			id = flag.Arg(1)
		}
		err = dumpTrace(os.Stdout, *addr, id, *raw)
	case *addr != "" && flag.NArg() >= 1 && flag.Arg(0) == "query":
		err = dumpQuery(os.Stdout, *addr, *interval, *raw)
	case *addr == "" && flag.NArg() == 1:
		err = dumpFile(os.Stdout, flag.Arg(0), *raw)
	case *addr != "" && *events:
		err = dumpEvents(os.Stdout, *addr, *after, *limit, *follow)
	case *addr != "":
		err = dumpSnapshot(os.Stdout, *addr, *raw)
	default:
		fmt.Fprintln(os.Stderr, "usage: obsdump -addr host:port [-events] [-json] [trace [ID] | query] | obsdump snapshot.json")
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "obsdump:", err)
		os.Exit(1)
	}
}

func fetch(rawURL string) ([]byte, error) {
	resp, err := http.Get(rawURL)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s: %s: %s", rawURL, resp.Status, strings.TrimSpace(string(body)))
	}
	return body, nil
}

func dumpSnapshot(w io.Writer, addr string, raw bool) error {
	body, err := fetch("http://" + addr + "/debug/vars")
	if err != nil {
		return err
	}
	if raw {
		_, err = w.Write(body)
		return err
	}
	var snap telemetry.Snapshot
	if err := json.Unmarshal(body, &snap); err != nil {
		return fmt.Errorf("decode snapshot: %w", err)
	}
	printSnapshot(w, &snap)
	return nil
}

func dumpFile(w io.Writer, path string, raw bool) error {
	body, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if raw {
		_, err = w.Write(body)
		return err
	}
	var snap telemetry.Snapshot
	if err := json.Unmarshal(body, &snap); err != nil {
		return fmt.Errorf("decode %s: %w", path, err)
	}
	printSnapshot(w, &snap)
	return nil
}

func printSnapshot(w io.Writer, snap *telemetry.Snapshot) {
	if snap.TakenUnixNs > 0 {
		fmt.Fprintf(w, "snapshot taken %s\n", time.Unix(0, snap.TakenUnixNs).Format(time.RFC3339))
	}
	if len(snap.Counters) > 0 {
		fmt.Fprintln(w, "\ncounters:")
		for _, name := range sortedKeys(snap.Counters) {
			fmt.Fprintf(w, "  %-28s %d\n", name, snap.Counters[name])
		}
	}
	if len(snap.Gauges) > 0 {
		fmt.Fprintln(w, "\ngauges:")
		for _, name := range sortedKeys(snap.Gauges) {
			fmt.Fprintf(w, "  %-28s %g\n", name, snap.Gauges[name])
		}
	}
	if len(snap.Histograms) > 0 {
		fmt.Fprintln(w, "\nhistograms:")
		for _, name := range sortedKeys(snap.Histograms) {
			h := snap.Histograms[name]
			mean := 0.0
			if h.Count > 0 {
				mean = h.Sum / float64(h.Count)
			}
			fmt.Fprintf(w, "  %-28s count=%d mean=%.4g\n", name, h.Count, mean)
			for _, b := range h.Buckets {
				fmt.Fprintf(w, "    ≤ %-10g %-8d %s\n", b.Le, b.Count, bar(b.Count, h.Count))
			}
			if h.Overflow > 0 {
				fmt.Fprintf(w, "    > %-10g %-8d %s\n", h.Buckets[len(h.Buckets)-1].Le, h.Overflow, bar(h.Overflow, h.Count))
			}
		}
	}
	fmt.Fprintf(w, "\njournal: %d events buffered, last seq %d, %d evicted\n",
		snap.Journal.Len, snap.Journal.LastSeq, snap.Journal.Dropped)
}

// bar renders count/total as a proportional text bar.
func bar(count, total int64) string {
	if total <= 0 || count <= 0 {
		return ""
	}
	n := int(40 * count / total)
	if n == 0 {
		n = 1
	}
	return strings.Repeat("#", n)
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// dumpTrace renders /debug/traces: with an ID, one trace's span
// waterfall; without, the tracer overview (span counts plus the
// slowest-trace exemplars, each as a waterfall).
func dumpTrace(w io.Writer, addr, id string, raw bool) error {
	u := "http://" + addr + "/debug/traces"
	if id != "" {
		u += "?id=" + url.QueryEscape(id)
	}
	body, err := fetch(u)
	if err != nil {
		return err
	}
	if raw {
		_, err = w.Write(body)
		return err
	}
	if id != "" {
		var tr telemetry.Trace
		if err := json.Unmarshal(body, &tr); err != nil {
			return fmt.Errorf("decode trace: %w", err)
		}
		printTrace(w, &tr)
		return nil
	}
	var snap telemetry.TracerSnapshot
	if err := json.Unmarshal(body, &snap); err != nil {
		return fmt.Errorf("decode traces: %w", err)
	}
	fmt.Fprintf(w, "tracer: %d active traces, %d evicted\n", snap.Active, snap.Evicted)
	if len(snap.SpanCounts) > 0 {
		fmt.Fprintln(w, "\nspan counts:")
		for _, name := range sortedKeys(snap.SpanCounts) {
			fmt.Fprintf(w, "  %-28s %d\n", name, snap.SpanCounts[name])
		}
	}
	if len(snap.Slowest) == 0 {
		fmt.Fprintln(w, "\nno completed traces yet")
		return nil
	}
	fmt.Fprintf(w, "\nslowest %d ingest→visible traces:\n", len(snap.Slowest))
	for i := range snap.Slowest {
		printTrace(w, &snap.Slowest[i])
	}
	return nil
}

// waterfallWidth is the character width of the waterfall column.
const waterfallWidth = 32

// printTrace renders one trace as a span waterfall: spans sorted by start
// time, each with its offset from the trace's first instant, duration,
// and a proportional position bar.
func printTrace(w io.Writer, tr *telemetry.Trace) {
	spans := make([]telemetry.Span, len(tr.Spans))
	copy(spans, tr.Spans)
	sort.SliceStable(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	t0, t1 := tr.IngestT, tr.VisibleT
	if len(spans) > 0 {
		if !tr.Origin || t0 > spans[0].Start {
			t0 = spans[0].Start
		}
		for _, sp := range spans {
			if sp.End > t1 {
				t1 = sp.End
			}
		}
	}
	total := t1 - t0
	fmt.Fprintf(w, "\ntrace %d  site %d chunk %d", tr.ID, tr.Site, tr.Chunk)
	if tr.Completed {
		fmt.Fprintf(w, "  ingest→visible %.6gs", tr.VisibleT-t0)
	} else {
		fmt.Fprintf(w, "  (in flight, %.6gs so far)", total)
	}
	fmt.Fprintln(w)
	for _, sp := range spans {
		off, dur := sp.Start-t0, sp.End-sp.Start
		var pos, width int
		if total > 0 {
			pos = int(off / total * waterfallWidth)
			width = int(dur / total * waterfallWidth)
		}
		if pos > waterfallWidth-1 {
			pos = waterfallWidth - 1
		}
		if width < 1 {
			width = 1
		}
		if pos+width > waterfallWidth {
			width = waterfallWidth - pos
		}
		lane := strings.Repeat(" ", pos) + strings.Repeat("#", width) + strings.Repeat(" ", waterfallWidth-pos-width)
		line := fmt.Sprintf("  +%-9.6g %-9.6g |%s| %s", off, dur, lane, sp.Name)
		if sp.Site != 0 {
			line += fmt.Sprintf(" site=%d", sp.Site)
		}
		if sp.Model != 0 {
			line += fmt.Sprintf(" model=%d", sp.Model)
		}
		if sp.N != 0 {
			line += fmt.Sprintf(" n=%d", sp.N)
		}
		if sp.Note != "" {
			line += fmt.Sprintf(" (%s)", sp.Note)
		}
		fmt.Fprintln(w, line)
	}
}

// queryOps are the per-op query counters rated into qps by dumpQuery,
// in display order.
var queryOps = []string{"query.classify", "query.density", "query.topk", "query.publishes"}

// dumpQuery renders the query-tier view of a daemon's /debug/vars: the
// served snapshot version (against the coordinator's mixture version),
// per-op qps computed from two samples an interval apart, and the
// read-path staleness histogram.
func dumpQuery(w io.Writer, addr string, interval time.Duration, raw bool) error {
	grab := func() (*telemetry.Snapshot, error) {
		body, err := fetch("http://" + addr + "/debug/vars")
		if err != nil {
			return nil, err
		}
		var snap telemetry.Snapshot
		if err := json.Unmarshal(body, &snap); err != nil {
			return nil, fmt.Errorf("decode snapshot: %w", err)
		}
		return &snap, nil
	}
	first, err := grab()
	if err != nil {
		return err
	}
	if interval <= 0 {
		interval = time.Second
	}
	t0 := time.Now()
	time.Sleep(interval)
	snap, err := grab()
	if err != nil {
		return err
	}
	dt := time.Since(t0).Seconds()
	if raw {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(snap)
	}
	if _, ok := snap.Gauges["query.snapshot_version"]; !ok {
		fmt.Fprintln(w, "no query tier published yet (query.snapshot_version gauge absent)")
		return nil
	}
	fmt.Fprintf(w, "query tier @ %s (window %.3gs)\n\n", addr, dt)
	fmt.Fprintf(w, "  %-28s %.0f\n", "snapshot version", snap.Gauges["query.snapshot_version"])
	if v, ok := snap.Gauges["coord.mixture_version"]; ok {
		fmt.Fprintf(w, "  %-28s %.0f\n", "coordinator mixture version", v)
		if lag := v - snap.Gauges["query.snapshot_version"]; lag > 0 {
			fmt.Fprintf(w, "  %-28s %.0f version(s) behind\n", "publish lag", lag)
		}
	}
	fmt.Fprintln(w, "\nper-op rates:")
	for _, name := range queryOps {
		delta := snap.Counters[name] - first.Counters[name]
		fmt.Fprintf(w, "  %-28s %12.4g qps  (total %d)\n", name, float64(delta)/dt, snap.Counters[name])
	}
	for _, name := range []string{"query.staleness_seconds", "query.refresh_seconds"} {
		h, ok := snap.Histograms[name]
		if !ok || h.Count == 0 {
			continue
		}
		fmt.Fprintf(w, "\n%s: count=%d mean=%.4g\n", name, h.Count, h.Sum/float64(h.Count))
		for _, b := range h.Buckets {
			fmt.Fprintf(w, "  ≤ %-10g %-8d %s\n", b.Le, b.Count, bar(b.Count, h.Count))
		}
		if h.Overflow > 0 {
			fmt.Fprintf(w, "  > %-10g %-8d %s\n", h.Buckets[len(h.Buckets)-1].Le, h.Overflow, bar(h.Overflow, h.Count))
		}
	}
	return nil
}

// eventsPage mirrors the /debug/events response shape.
type eventsPage struct {
	LastSeq uint64            `json:"last_seq"`
	Events  []telemetry.Event `json:"events"`
}

func dumpEvents(w io.Writer, addr string, after uint64, limit int, follow time.Duration) error {
	for {
		q := url.Values{}
		if after > 0 {
			q.Set("after", strconv.FormatUint(after, 10))
		}
		if limit > 0 {
			q.Set("limit", strconv.Itoa(limit))
		}
		u := "http://" + addr + "/debug/events"
		if enc := q.Encode(); enc != "" {
			u += "?" + enc
		}
		body, err := fetch(u)
		if err != nil {
			return err
		}
		var page eventsPage
		if err := json.Unmarshal(body, &page); err != nil {
			return fmt.Errorf("decode events: %w", err)
		}
		for _, e := range page.Events {
			printEvent(w, e)
		}
		if page.LastSeq > after {
			after = page.LastSeq
		}
		if follow <= 0 {
			return nil
		}
		time.Sleep(follow)
	}
}

func printEvent(w io.Writer, e telemetry.Event) {
	var b strings.Builder
	fmt.Fprintf(&b, "%8d %s %-18s", e.Seq, time.Unix(0, e.UnixNs).Format("15:04:05.000"), e.Kind)
	if e.Site != 0 {
		fmt.Fprintf(&b, " site=%d", e.Site)
	}
	if e.Model != 0 {
		fmt.Fprintf(&b, " model=%d", e.Model)
	}
	if e.Value != 0 {
		fmt.Fprintf(&b, " value=%.6g", e.Value)
	}
	if e.N != 0 {
		fmt.Fprintf(&b, " n=%d", e.N)
	}
	if e.Note != "" {
		fmt.Fprintf(&b, " (%s)", e.Note)
	}
	fmt.Fprintln(w, b.String())
}
