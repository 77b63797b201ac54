#!/bin/bash
# fuzz: run every fuzz target of the repository for the given time each.
# Each target is first looked up with scripts/require-tests.sh: `go test
# -fuzz` with a pattern that selects no fuzz test prints "no fuzz tests to
# fuzz" and exits 0, so a renamed or deleted target would otherwise leave
# its step silently empty.
#
#	bash scripts/fuzz.sh <fuzztime>    # e.g. 10s (make fuzz), 30s (CI)
set -euo pipefail

if [ $# -ne 1 ]; then
	echo "usage: $0 <fuzztime>" >&2
	exit 2
fi
fuzztime=$1
go=${GO:-go}
dir=$(dirname "$0")

# target package — the mixture codec every format below shares, the three
# AVX2 kernels against their Go paths (the exact Mahalanobis kernel behind
# QuadFormRows, the J_fit interval's, the log-sum-exp chains'), the wire
# decoders (sites' and the CLUQ batch endpoint's), the coordinator's
# receive step behind them, the frame/ack protocol and its restart
# handshake, the delivery state machine both runtimes drive, the durable
# formats (site archive, coordinator checkpoint, WAL), and tree topologies
# as scenario files carry them.
targets=(
	"FuzzMixtureCodec ./internal/gaussian/"
	"FuzzQuadFormRowsSIMDMatchesGo ./internal/linalg/"
	"FuzzIntervalSIMDMatchesGo ./internal/gaussian/"
	"FuzzLSESIMDMatchesGo ./internal/gaussian/"
	"FuzzDecode ./internal/transport/"
	"FuzzReceive ./internal/durable/"
	"FuzzBatch ./internal/query/"
	"FuzzReadFrame ./internal/netio/"
	"FuzzReadAck ./internal/netio/"
	"FuzzWatermarkAck ./internal/netio/"
	"FuzzSender ./internal/sender/"
	"FuzzLoad ./internal/persist/"
	"FuzzLoadCoordinatorState ./internal/persist/"
	"FuzzReadWAL ./internal/persist/"
	"FuzzTopology ./internal/tree/"
)
for t in "${targets[@]}"; do
	read -r name pkg <<< "$t"
	GO=$go bash "$dir/require-tests.sh" "^$name\$" "$pkg"
	"$go" test -run='^$' -fuzz="^$name\$" -fuzztime="$fuzztime" "$pkg"
done
