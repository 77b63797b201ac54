#!/bin/bash
# no-strays: fail if anything this repository's targets start is still
# running — a coordd or sited daemon, the benchmark's binary or its
# run.sh, or a bench-pair comparison. It prints
# each survivor's PID and name and exits 1; it prints nothing and exits 0
# when none is left.
#
#	bash scripts/no-strays.sh
#	make no-strays
#
# The bracketed letters keep each alternative from matching the command line
# of a shell that carries the pattern itself. The script's own ancestors are
# skipped too: the shell of `bash -c 'bash bench/run.sh -smoke; bash
# scripts/no-strays.sh'` names the benchmark and is still running.
set -uo pipefail

ancestors=" "
pid=$$
while [ -n "$pid" ] && [ "$pid" -gt 1 ]; do
	ancestors+="$pid "
	pid=$(ps -o ppid= -p "$pid" | tr -d ' ')
done

strays=$(pgrep -fl '[c]oordd|[s]ited|[.]bench_build/bench|bench-pair[.]sh|bench/run[.]sh' |
	while read -r pid name; do
		case "$ancestors" in
		*" $pid "*) ;;
		*) echo "$pid $name" ;;
		esac
	done)
if [ -n "$strays" ]; then
	echo "$strays"
	echo "no-strays: the processes above are still running; stop them" >&2
	exit 1
fi
