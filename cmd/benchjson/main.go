// Command benchjson converts `go test -bench` text output on stdin into
// machine-readable JSON on stdout, keeping both the standard measurements
// (ns/op, B/op, allocs/op) and any custom b.ReportMetric units the
// benchmarks emit (figure metrics like clud-bytes or avgLL, per-record
// timings). `make bench` pipes through it to produce BENCH_quick.json.
// Comparing two commits is `make bench-pair`'s job (paired end-to-end
// runs), not a diff of two single-sample reports.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"

	"cludistream/internal/buildinfo"
)

// Benchmark is one parsed result line.
type Benchmark struct {
	// Name is the benchmark name with the Benchmark prefix and the -N
	// GOMAXPROCS suffix stripped (sub-benchmark paths are kept).
	Name string `json:"name"`
	// Iterations is b.N for the reported run.
	Iterations int64 `json:"iterations"`
	// Metrics maps unit → value for every "<value> <unit>" pair on the
	// line; JSON encoding sorts the keys, so output is deterministic.
	Metrics map[string]float64 `json:"metrics"`
}

// Report is the top-level JSON document.
type Report struct {
	Goos   string `json:"goos,omitempty"`
	Goarch string `json:"goarch,omitempty"`
	Pkg    string `json:"pkg,omitempty"`
	CPU    string `json:"cpu,omitempty"`
	// GoVersion and Gomaxprocs stamp the converting toolchain and core
	// count, so archived reports say what produced them even when the
	// bench output lacks a cpu: header.
	GoVersion  string `json:"go_version"`
	Gomaxprocs int    `json:"gomaxprocs"`
	// Commit is the git commit the Makefile stamped into this binary
	// ("unknown" under plain `go run`), so an archived baseline records
	// exactly which tree produced it.
	Commit     string      `json:"commit,omitempty"`
	Benchmarks []Benchmark `json:"benchmarks"`
}

// trimProcs removes the trailing -N GOMAXPROCS marker go test appends to
// benchmark names ("BenchmarkFoo-8" → "BenchmarkFoo"), but leaves names
// whose final dash segment is not a number alone.
func trimProcs(name string) string {
	i := strings.LastIndexByte(name, '-')
	if i < 0 {
		return name
	}
	if _, err := strconv.Atoi(name[i+1:]); err != nil {
		return name
	}
	return name[:i]
}

// parseLine parses one benchmark result line; ok is false for headers,
// PASS/ok trailers, and anything else that is not a result.
func parseLine(line string) (Benchmark, bool) {
	fields := strings.Fields(line)
	if len(fields) < 2 || !strings.HasPrefix(fields[0], "Benchmark") {
		return Benchmark{}, false
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Benchmark{}, false
	}
	b := Benchmark{
		Name:       strings.TrimPrefix(trimProcs(fields[0]), "Benchmark"),
		Iterations: iters,
		Metrics:    make(map[string]float64),
	}
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			continue
		}
		b.Metrics[fields[i+1]] = v
	}
	return b, len(b.Metrics) > 0
}

// commitStamp returns the ldflags-injected commit, or "" (omitting the
// field) when the binary was built without the Makefile's stamp.
func commitStamp() string {
	if buildinfo.Commit == "unknown" {
		return ""
	}
	return buildinfo.Commit
}

func main() {
	flag.Parse()
	rep := Report{GoVersion: runtime.Version(), Gomaxprocs: runtime.GOMAXPROCS(0), Commit: commitStamp()}
	var lines int
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	for sc.Scan() {
		line := sc.Text()
		if strings.TrimSpace(line) != "" {
			lines++
		}
		switch {
		case strings.HasPrefix(line, "goos: "):
			rep.Goos = strings.TrimPrefix(line, "goos: ")
		case strings.HasPrefix(line, "goarch: "):
			rep.Goarch = strings.TrimPrefix(line, "goarch: ")
		case strings.HasPrefix(line, "pkg: "):
			rep.Pkg = strings.TrimPrefix(line, "pkg: ")
		case strings.HasPrefix(line, "cpu: "):
			rep.CPU = strings.TrimPrefix(line, "cpu: ")
		default:
			if b, ok := parseLine(line); ok {
				rep.Benchmarks = append(rep.Benchmarks, b)
			}
		}
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
	// No results is an error, not an empty report: a typo'd -bench regex or
	// a compile failure upstream of the pipe should fail `make bench`
	// loudly instead of archiving a hollow BENCH file.
	if len(rep.Benchmarks) == 0 {
		if lines == 0 {
			fmt.Fprintln(os.Stderr, "benchjson: empty input — expected `go test -bench` output on stdin")
		} else {
			fmt.Fprintf(os.Stderr, "benchjson: no benchmark result lines in %d lines of input — malformed or filtered-out bench output\n", lines)
		}
		os.Exit(1)
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(&rep); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
}
