GO ?= go
VERSION ?= $(shell git describe --tags --always --dirty 2>/dev/null || echo dev)
COMMIT ?= $(shell git rev-parse --short HEAD 2>/dev/null || echo unknown)
LDFLAGS := -ldflags "-X cludistream/internal/buildinfo.Version=$(VERSION) -X cludistream/internal/buildinfo.Commit=$(COMMIT)"

.PHONY: all build vet lint test race race-score race-query alloc-gate alloc-gate-query recover check no-strays tier1 fuzz bench bench-e2e bench-pair bench-e2e-test bench-smoke obs-demo trace-demo dst dst-long

all: check

build:
	$(GO) build $(LDFLAGS) ./...

vet:
	$(GO) vet ./...

# Static hygiene gate: vet plus gofmt, failing loudly on any unformatted
# file instead of silently reformatting it, and no recipe line in this
# Makefile may start a background job (a lone ampersand, not part of a
# logical and): an interrupted target must leave nothing running.
lint: vet
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi
	@amp=$$(printf '\046'); tab=$$(printf '\t'); \
	if grep -nE "^$$tab.*(^|[^$$amp])$$amp([^$$amp]|\$$)" Makefile; then \
		echo "Makefile: the recipe lines above start a background job; run them in the foreground"; exit 1; \
	fi

test:
	$(GO) test ./...

# The chaos and concurrency suites must be race-clean.
race:
	$(GO) test -race ./...

# Every gate below first checks that each of its -run/-bench patterns
# selects a test in each package it names (scripts/require-tests.sh), so a
# renamed or deleted test fails the gate instead of silently emptying it.
REQUIRE_TESTS = GO=$(GO) bash scripts/require-tests.sh

# The J_fit and remerge fast paths under the race detector at several
# GOMAXPROCS settings: concurrent interval scoring of one mixture, and the
# interval-verdict and dirty-group remerge parity tests against their test
# oracles (the exact scan, the every-group sweep).
RACE_SCORE_TESTS = TestIntervalConcurrentScoring|TestPrunedPathBitIdenticalToExact|TestIntervalParityDaemonShape|TestPrunedParityQuick|TestIncrementalRemergeMatchesExact
race-score:
	$(REQUIRE_TESTS) '$(RACE_SCORE_TESTS)' ./internal/site/ ./internal/gaussian/ ./internal/coordinator/
	for procs in 1 2 4; do \
		GOMAXPROCS=$$procs $(GO) test -race -count=1 -run '$(RACE_SCORE_TESTS)' \
		  ./internal/site/ ./internal/gaussian/ ./internal/coordinator/ || exit 1; \
	done

# The RCU query tier under the race detector at several GOMAXPROCS
# settings: concurrent readers hammer Classify/LogDensity/TopK while a
# writer keeps ingesting and republishing snapshots, plus the deep-copy
# immutability pin.
race-query:
	for procs in 1 2 4; do \
		GOMAXPROCS=$$procs $(GO) test -race -count=1 \
		  -run 'TestQueryRaceHammer|TestSnapshotImmutableUnderIngest' \
		  ./internal/query/ || exit 1; \
	done

# The query read path must not allocate: Classify, LogDensity, TopK,
# Current and the CLUQ batch ops (decoded and scored block by block
# through a Querier) are all asserted at 0 allocs/op via
# testing.AllocsPerRun.
alloc-gate-query:
	$(REQUIRE_TESTS) 'TestQueryReadPathZeroAlloc' ./internal/query/
	$(GO) test -run 'TestQueryReadPathZeroAlloc' -count=1 ./internal/query/

# Steady-state ingest must not allocate: the benchmark itself asserts
# 0 allocs/record via testing.AllocsPerRun before timing, so a handful of
# iterations is enough to enforce the gate. The regex is a prefix match,
# so it covers BenchmarkSiteSteadyState (the daemons' K=5) and
# BenchmarkSiteSteadyStatePruned (K=16); both also fail unless the
# interval verdict decided tests, so the gate covers that path.
# Neither may one evaluation of the merge objective: FitMerge's simplex
# runs ~160 of them per group re-fit on the coordinator's critical path;
# and one whole re-fit stays at most 50 allocations (the panel, the
# vertices and the result — none per iteration).
alloc-gate:
	$(REQUIRE_TESTS) 'BenchmarkSiteSteadyState' .
	$(REQUIRE_TESTS) 'TestMergeObjectiveDoesNotAllocate|TestFitMergeAllocs' ./internal/gaussian/
	$(GO) test -run '^$$' -bench 'BenchmarkSiteSteadyState' -benchtime 100x .
	$(GO) test -run 'TestMergeObjectiveDoesNotAllocate|TestFitMergeAllocs' -count=1 ./internal/gaussian/

# Crash-recovery gate: the coordinator is killed mid-merge under 20%
# message loss and must recover bit-identical state from its checkpoint +
# WAL store — in-process (chaos test) and across a real TCP server
# restart with the reconnect handshake. A quick named gate: `race` runs
# the same tests inside `check`.
recover:
	$(REQUIRE_TESTS) 'TestChaosCoordinatorCrashRecovery' .
	$(REQUIRE_TESTS) 'TestServerRestartRecoveryOverTCP|TestHandshakePrunesRecoveredSuffix' ./internal/netio/
	$(GO) test -race -run 'TestChaosCoordinatorCrashRecovery' .
	$(GO) test -race -run 'TestServerRestartRecoveryOverTCP|TestHandshakePrunesRecoveredSuffix' ./internal/netio/

# Full pre-merge gate. Its last step fails if anything a target started
# (a daemon, the example, the benchmark, a bench-pair) is still running.
check: build lint race-score race-query alloc-gate alloc-gate-query race dst bench-e2e-test bench-smoke no-strays

# Lists, and fails on, every process of this repository's targets that is
# still running (scripts/no-strays.sh); it prints nothing when none is.
no-strays:
	@bash scripts/no-strays.sh

# Deterministic simulation testing (internal/dst): sweep seeded
# whole-system scenarios — flat stars, then random 1-2-layer trees of 100+
# sites with heterogeneous links, node partitions and aggregator
# crash/recovery — under one invariant suite checked at every hop. Seeds
# fan out across cores. A failure prints the lowest failing seed and
# writes a replayable artifact; `go run ./cmd/dst replay -scenario <file>`
# reproduces it bit-identically.
dst:
	$(GO) run ./cmd/dst run -seeds 150
	$(GO) run ./cmd/dst run -tree -seeds 150

# Nightly depth: more seeds, larger deployments and drift programs, and
# tree topologies up to 1000 sites and 3 aggregator layers.
dst-long:
	$(GO) run ./cmd/dst run -seeds 500 -long
	$(GO) run ./cmd/dst run -seeds 1500
	$(GO) run ./cmd/dst run -tree -long -seeds 100

# The repo's minimal health check (see ROADMAP.md).
tier1:
	$(GO) build ./... && $(GO) test ./...

# Short fuzz pass, 10 s per target, over every fuzz target
# scripts/fuzz.sh lists (the mixture codec, the wire decoders, the receive
# step, the frame/ack protocol, the delivery state machine, the durable
# formats and tree topologies); a target its pattern no longer selects
# fails the pass instead of fuzzing nothing.
fuzz:
	GO=$(GO) bash scripts/fuzz.sh 10s

# Machine-readable benchmark snapshot: one pass over every figure
# reproduction (-benchtime 1x — each figure is a full experiment) plus the
# hot-path micro-benchmarks, converted to JSON. Commit the refreshed file
# when performance-relevant code changes.
bench:
	{ $(GO) test -run '^$$' -bench 'BenchmarkFig|BenchmarkAblation' -benchtime 1x . ; \
	  $(GO) test -run '^$$' -bench 'BenchmarkMixture|BenchmarkEMFit|BenchmarkSite|BenchmarkSystem|BenchmarkCholesky|BenchmarkFitMerge|BenchmarkCoordinator|BenchmarkSMEM|BenchmarkScore|BenchmarkPosterior|BenchmarkQuadForm|BenchmarkMultiTest|BenchmarkRemerge' -benchmem . ; \
	  $(GO) test -run '^$$' -bench 'BenchmarkSiteRefit' -benchmem ./internal/site/ ; \
	  $(GO) test -run '^$$' -bench 'BenchmarkQuery' -benchmem ./internal/query/ ; \
	  $(GO) test -run '^$$' -bench 'BenchmarkTreeLoad' -benchtime 1x ./internal/tree/ ; } \
	  | tee /dev/stderr | $(GO) run $(LDFLAGS) ./cmd/benchjson > BENCH_quick.json

# The end-to-end benchmark BENCHMARK.json declares: the real daemon
# pipeline on four workloads, every metric printed by name (see
# bench/README.md). Runs in the foreground and exits on its own; ARGS
# passes flags through, e.g.
# `make bench-e2e ARGS="-workload sliding -seed 11 -trace 1"`.
bench-e2e:
	bash bench/run.sh $(ARGS)

# Paired runs of bench-e2e on a base revision and the working tree, which
# is how a gain is claimed: the sides alternate with the order flipped every
# pair, seeds from FIRST_SEED up, and the script prints each end-to-end
# metric's medians, quartiles, per-pair ratios and win count. The recipe
# execs the script, so a SIGTERM to make reaches it and it stops its run
# before exiting. Foreground only, e.g.
# `make bench-pair BASE=HEAD~1 WORKLOAD=steady PAIRS=10 RUN_SECONDS=28`;
# ten 28 s pairs split into PAIRS=5 with FIRST_SEED=11, then FIRST_SEED=16.
WORKLOAD ?= steady
PAIRS ?= 10
RUN_SECONDS ?= 28
FIRST_SEED ?= 11
bench-pair:
	@test -n "$(BASE)" || { echo "bench-pair: set BASE=<rev>"; exit 2; }
	exec bash scripts/bench-pair.sh "$(BASE)" "$(WORKLOAD)" "$(PAIRS)" "$(RUN_SECONDS)" "$(FIRST_SEED)"

# The benchmark's own tests: every workload smoke-run with all self-checks,
# traced-path parity, BENCHMARK.json ↔ metric catalogue, and the pin that
# its configuration mirrors the daemons' defaults.
bench-e2e-test:
	$(GO) test -count=1 ./bench/

# The benchmark binary end to end at smoke sizes, every workload once: it
# must exit on its own. A handshake the coordinator refuses would keep a
# site retrying forever, and this target would hang instead of passing
# on to no-strays.
bench-smoke:
	bash bench/run.sh -smoke

# Live observability demo: a small traced deployment in process (a
# coordinator with its query tier and two sites over loopback TCP) behind
# the debug endpoints, rendered from the live endpoints by obsdump's own
# views: the snapshot, the event journal, the causal traces and the query
# tier. Runs in the foreground and closes everything it started.
obs-demo:
	$(GO) test -count=1 -v -run 'TestObsdumpViews' ./cmd/obsdump/

# Tracing demo: the same deployment, rendered as the causal-trace view —
# cumulative span counts plus the slowest ingest→visible chunk traces as
# span waterfalls.
trace-demo:
	$(GO) test -count=1 -v -run 'TestObsdumpViews/trace' ./cmd/obsdump/
