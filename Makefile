GO ?= go
VERSION ?= $(shell git describe --tags --always --dirty 2>/dev/null || echo dev)
COMMIT ?= $(shell git rev-parse --short HEAD 2>/dev/null || echo unknown)
LDFLAGS := -ldflags "-X cludistream/internal/buildinfo.Version=$(VERSION) -X cludistream/internal/buildinfo.Commit=$(COMMIT)"

.PHONY: all build vet lint test race race-score race-query alloc-gate alloc-gate-query recover check tier1 fuzz bench bench-e2e bench-pair bench-e2e-test obs-demo trace-demo dst dst-long

all: check

build:
	$(GO) build $(LDFLAGS) ./...

vet:
	$(GO) vet ./...

# Static hygiene gate: vet plus gofmt, failing loudly on any unformatted
# file instead of silently reformatting it.
lint: vet
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi

test:
	$(GO) test ./...

# The chaos and concurrency suites must be race-clean.
race:
	$(GO) test -race ./...

# The sublinear hot paths under the race detector at several GOMAXPROCS
# settings: the per-model score index builds lazily on first use, and the
# pruned-J_fit and dirty-group remerge parity tests hammer it against their
# test oracles (the exact scan, the every-group sweep).
race-score:
	for procs in 1 2 4; do \
		GOMAXPROCS=$$procs $(GO) test -race -count=1 \
		  -run 'TestScoreIndexConcurrentBuild|TestPrunedPathBitIdenticalToExact|TestPrunedParityQuick|TestIncrementalRemergeMatchesExact' \
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
	$(GO) test -run 'TestQueryReadPathZeroAlloc' -count=1 ./internal/query/

# Steady-state ingest must not allocate: the benchmark itself asserts
# 0 allocs/record via testing.AllocsPerRun before timing, so a handful of
# iterations is enough to enforce the gate. The regex is a prefix match,
# so it covers BenchmarkSiteSteadyState (K=5: exact scan, since pruning
# needs K ≥ 8) and BenchmarkSiteSteadyStatePruned (K=16) — the latter
# gates the k-d candidate walk and bound accumulators.
# Neither may one evaluation of the merge objective: FitMerge's simplex
# runs ~160 of them per group re-fit on the coordinator's critical path.
alloc-gate:
	$(GO) test -run '^$$' -bench 'BenchmarkSiteSteadyState' -benchtime 100x .
	$(GO) test -run 'TestMergeObjectiveDoesNotAllocate' -count=1 ./internal/gaussian/

# Crash-recovery gate: the coordinator is killed mid-merge under 20%
# message loss and must recover bit-identical state from its checkpoint +
# WAL store — in-process (chaos test) and across a real TCP server
# restart with the reconnect handshake. A quick named gate: `race` runs
# the same tests inside `check`.
recover:
	$(GO) test -race -run 'TestChaosCoordinatorCrashRecovery' .
	$(GO) test -race -run 'TestServerRestartRecoveryOverTCP|TestHandshakePrunesRecoveredSuffix' ./internal/netio/

# Full pre-merge gate.
check: build lint race-score race-query alloc-gate alloc-gate-query race dst bench-e2e-test

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

# Short fuzz pass over the wire decoders (sites' and the CLUQ batch
# endpoint's), the coordinator's receive step behind them, the frame/ack
# protocol and its restart handshake, the durable formats (site archive, coordinator checkpoint,
# WAL), and tree topologies as scenario files carry them.
fuzz:
	$(GO) test -run=^$$ -fuzz=FuzzDecode -fuzztime=10s ./internal/transport/
	$(GO) test -run=^$$ -fuzz=FuzzReceive -fuzztime=10s ./internal/durable/
	$(GO) test -run=^$$ -fuzz=FuzzBatch -fuzztime=10s ./internal/query/
	$(GO) test -run=^$$ -fuzz=FuzzReadFrame -fuzztime=10s ./internal/netio/
	$(GO) test -run=^$$ -fuzz=FuzzReadAck -fuzztime=5s ./internal/netio/
	$(GO) test -run=^$$ -fuzz=FuzzWatermarkAck -fuzztime=10s ./internal/netio/
	$(GO) test -run=^$$ -fuzz=FuzzLoad$$ -fuzztime=10s ./internal/persist/
	$(GO) test -run=^$$ -fuzz=FuzzLoadCoordinatorState -fuzztime=10s ./internal/persist/
	$(GO) test -run=^$$ -fuzz=FuzzReadWAL -fuzztime=10s ./internal/persist/
	$(GO) test -run=^$$ -fuzz=FuzzTopology -fuzztime=10s ./internal/tree/

# Machine-readable benchmark snapshot: one pass over every figure
# reproduction (-benchtime 1x — each figure is a full experiment) plus the
# hot-path micro-benchmarks, converted to JSON. Commit the refreshed file
# when performance-relevant code changes.
bench:
	{ $(GO) test -run '^$$' -bench 'BenchmarkFig|BenchmarkAblation' -benchtime 1x . ; \
	  $(GO) test -run '^$$' -bench 'BenchmarkMixture|BenchmarkEMFit|BenchmarkSite|BenchmarkSystem|BenchmarkCholesky|BenchmarkFitMerge|BenchmarkCoordinator|BenchmarkSMEM|BenchmarkScore|BenchmarkPosterior|BenchmarkQuadForm|BenchmarkMultiTest|BenchmarkRemerge' -benchmem . ; \
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
# pair, seeds from 11 up, and the script prints each end-to-end metric's
# medians, quartiles, per-pair ratios and win count. Foreground only, e.g.
# `make bench-pair BASE=HEAD~1 WORKLOAD=steady PAIRS=10 RUN_SECONDS=28`.
WORKLOAD ?= steady
PAIRS ?= 10
RUN_SECONDS ?= 28
bench-pair:
	@test -n "$(BASE)" || { echo "bench-pair: set BASE=<rev>"; exit 2; }
	bash scripts/bench-pair.sh "$(BASE)" "$(WORKLOAD)" "$(PAIRS)" "$(RUN_SECONDS)"

# The benchmark's own tests: every workload smoke-run with all self-checks,
# traced-path parity, BENCHMARK.json ↔ metric catalogue, and the pin that
# its configuration mirrors the daemons' defaults.
bench-e2e-test:
	$(GO) test -count=1 ./bench/

# Live observability demo: run the distributed example with debug
# endpoints up, snapshot them mid-flight with obsdump, and print the
# event journal. Everything runs on loopback and exits on its own.
obs-demo:
	$(GO) run ./examples/distributed -debug-addr 127.0.0.1:7171 -linger 4s & \
	sleep 2.5; \
	$(GO) run ./cmd/obsdump -addr 127.0.0.1:7171; \
	echo; echo "--- event journal ---"; \
	$(GO) run ./cmd/obsdump -addr 127.0.0.1:7171 -events -limit 20; \
	wait

# Tracing demo: same distributed example, but the mid-flight snapshot is
# the causal-trace view — cumulative span counts plus the slowest
# ingest→visible chunk traces rendered as span waterfalls.
trace-demo:
	$(GO) run ./examples/distributed -debug-addr 127.0.0.1:7171 -linger 4s & \
	sleep 2.5; \
	$(GO) run ./cmd/obsdump -addr 127.0.0.1:7171 trace; \
	wait
