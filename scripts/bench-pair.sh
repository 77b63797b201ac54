#!/bin/bash
# bench-pair: paired runs of the benchmark on a base revision and on the
# working tree, for claiming (or refuting) a gain on one workload.
#
#	bash scripts/bench-pair.sh <base-rev> <workload> <pairs> <run-seconds>
#	make bench-pair BASE=<rev> WORKLOAD=<w> PAIRS=<n> RUN_SECONDS=<s>
#
# Each side runs the command BENCHMARK.json names, unmodified, from its own
# checkout: `bash bench/run.sh --workload <w> --seed <k> --seconds <s>
# --trace 0`, pair i with seed 10+i on both sides. The sides alternate and
# the order flips every pair (base first in odd pairs, the working tree first
# in even ones), so a box that speeds up or slows down mid-session moves both
# sides alike. At the end it prints, per end-to-end metric, each side's
# median [q1, q3] over the runs (statistics.quantiles' exclusive method),
# the change/base ratio of every pair, and how many pairs the working tree
# won (ties count for neither side).
#
# The base is extracted with `git archive` into a temporary directory,
# which leaves nothing behind in .git. Everything runs in the foreground;
# the EXIT trap removes the temporary directory on every exit path.
set -euo pipefail

if [ $# -ne 4 ]; then
	echo "usage: $0 <base-rev> <workload> <pairs> <run-seconds>" >&2
	exit 2
fi
base_rev=$1 workload=$2 pairs=$3 run_seconds=$4
command -v jq >/dev/null || { echo "bench-pair: needs jq to read the runs' JSON" >&2; exit 2; }
case $pairs in '' | *[!0-9]*) echo "bench-pair: PAIRS must be a positive integer" >&2; exit 2 ;; esac
[ "$pairs" -ge 1 ] || { echo "bench-pair: PAIRS must be a positive integer" >&2; exit 2; }

repo=$(git -C "$(dirname "$0")/.." rev-parse --show-toplevel)
rev=$(git -C "$repo" rev-parse --verify "$base_rev^{commit}")

tmp=$(mktemp -d "${TMPDIR:-/tmp}/bench-pair.XXXXXX")
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/base"
git -C "$repo" archive "$rev" | tar -x -C "$tmp/base"

# run <side> <dir> <seed>: one run; its output is kept as $tmp/<side>.<seed>
# and its last line, the JSON result, as $tmp/<side>.<seed>.json. A run
# whose self-checks fail exits non-zero but still prints its result, which
# counts the failures; a run that prints no result stops the comparison.
run() {
	local out=$tmp/$1.$3
	echo "# $1 seed $3" >&2
	(cd "$2" && bash bench/run.sh --workload "$workload" --seed "$3" --seconds "$run_seconds" --trace 0) >"$out" || true
	tail -n 1 "$out" >"$out.json"
	if ! jq -r '"#   correct=\(.correct) failed=\(.failed)/\(.attempted) " + ([.metrics | to_entries[] | "\(.key)=\(.value.value)"] | join(" "))' <"$out.json" >&2; then
		echo "bench-pair: $1 seed $3 printed no result; its output ends:" >&2
		tail -n 20 "$out" >&2
		exit 1
	fi
}

echo "# bench-pair: $workload, $pairs pairs of $run_seconds s, base $base_rev (${rev:0:12}) vs the working tree of $repo" >&2
for ((i = 1; i <= pairs; i++)); do
	seed=$((10 + i))
	if ((i % 2)); then
		run base "$tmp/base" "$seed"
		run change "$repo" "$seed"
	else
		run change "$repo" "$seed"
		run base "$tmp/base" "$seed"
	fi
done

# quartiles: reads numbers, prints "median q1 q3" (statistics.quantiles,
# method exclusive, n=4; one value is its own quartiles).
quartiles() {
	sort -g | awk '{ v[++n] = $1 }
	function q(i,   m, j, d) {
		if (n == 1) return v[1]
		m = n + 1; j = int(i * m / 4)
		if (j < 1) j = 1
		if (j > n - 1) j = n - 1
		d = i * m - j * 4
		return (v[j] * (4 - d) + v[j + 1] * d) / 4
	}
	END { printf "%.6g %.6g %.6g\n", q(2), q(1), q(3) }'
}

value() { jq -r --arg m "$2" '.metrics[$m].value // empty' <"$tmp/$1.json"; }

printf '\n%-24s %-6s  %-42s  %-42s  %s\n' metric better "base median [q1, q3]" "change median [q1, q3]" "change/base per pair (seed 11 up), wins"
failed=0
for ((i = 1; i <= pairs; i++)); do
	for side in base change; do
		f=$(jq -r '.failed' <"$tmp/$side.$((10 + i)).json")
		failed=$((failed + f))
	done
done
jq -r '.end_to_end[] | "\(.name) \(.better)"' <"$repo/BENCHMARK.json" | while read -r metric better; do
	b=() c=() ratios=() wins=0 ties=0
	for ((i = 1; i <= pairs; i++)); do
		bv=$(value "base.$((10 + i))" "$metric") cv=$(value "change.$((10 + i))" "$metric")
		[ -n "$bv" ] && [ -n "$cv" ] || continue
		b+=("$bv") c+=("$cv")
		ratios+=("$(awk -v b="$bv" -v c="$cv" 'BEGIN { printf (b == 0 ? "-" : "%.3f"), c / (b == 0 ? 1 : b) }')")
		if awk -v b="$bv" -v c="$cv" -v better="$better" 'BEGIN { exit !(better == "higher" ? c > b : c < b) }'; then
			wins=$((wins + 1))
		elif awk -v b="$bv" -v c="$cv" 'BEGIN { exit !(b == c) }'; then
			ties=$((ties + 1))
		fi
	done
	[ ${#b[@]} -gt 0 ] || continue # the workload does not report it
	read -r bm bq1 bq3 < <(printf '%s\n' "${b[@]}" | quartiles)
	read -r cm cq1 cq3 < <(printf '%s\n' "${c[@]}" | quartiles)
	printf '%-24s %-6s  %-42s  %-42s  %s  %d/%d, %d ties\n' "$metric" "$better" "$bm [$bq1, $bq3]" "$cm [$cq1, $cq3]" "${ratios[*]}" "$wins" "${#b[@]}" "$ties"
done
echo "failed operations over all $((2 * pairs)) runs: $failed"
