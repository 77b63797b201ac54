#!/bin/bash
# no-strays: fail if anything this repository's targets start is still
# running — a coordd or sited daemon, the distributed example, the
# benchmark's binary or its run.sh, or a bench-pair comparison. It prints
# each survivor's PID and name and exits 1; it prints nothing and exits 0
# when none is left.
#
#	bash scripts/no-strays.sh
#	make no-strays
#
# The bracketed letters keep each alternative from matching the command line
# of a shell that carries the pattern itself.
set -uo pipefail

if pgrep -fl '[c]oordd|[s]ited|[e]xamples/distributed|[.]bench_build/bench|bench-pair[.]sh|bench/run[.]sh'; then
	echo "no-strays: the processes above are still running; stop them" >&2
	exit 1
fi
