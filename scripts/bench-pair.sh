#!/bin/bash
# bench-pair: paired runs of the benchmark on a base revision and on the
# working tree, for claiming (or refuting) a gain on one workload.
#
#	bash scripts/bench-pair.sh <base-rev> <workload> <pairs> <run-seconds> [first-seed]
#	make bench-pair BASE=<rev> WORKLOAD=<w> PAIRS=<n> RUN_SECONDS=<s> FIRST_SEED=<k>
#
# Each side runs the command BENCHMARK.json names, unmodified, from its own
# checkout: `bash bench/run.sh --workload <w> --seed <k> --seconds <s>
# --trace 0`, pair i with seed first-seed+i−1 on both sides (first-seed
# defaults to 11). The sides alternate and the order flips every pair (base
# first on odd seeds, the working tree first on even ones), so a box that
# speeds up or slows down mid-session moves both sides alike, and a
# comparison split over consecutive seed ranges — PAIRS=5 FIRST_SEED=11,
# then PAIRS=5 FIRST_SEED=16 — runs the pairs one call of PAIRS=10 would. At the end it prints, per end-to-end metric, each side's
# median [q1, q3] over the runs (statistics.quantiles' exclusive method),
# the change/base ratio of every pair, how many pairs the working tree
# won (ties count for neither side), the one-sided sign-test p of those
# wins (the chance of at least as many among the non-tied pairs if either
# side won each with probability ½), and a verdict against the metric's
# `bound` in BENCHMARK.json:
#   worse         the change's median is worse than the base's by more
#                 than the bound;
#   unresolved    the base's own IQR ÷ median exceeds the bound, unless
#                 every change run beats every base run;
#   gain          the change won ≥ 9/10 of the pairs, the sign-test p is
#                 at most 0.05 and the medians differ, in its favour, by
#                 more than the base's IQR; 4 pairs or fewer never give
#                 a gain (4/4 wins is p = 1/16);
#   within bound  otherwise.
#
# Both sides run from fresh sibling directories of one temporary directory,
# each with its own cold build cache and its own bench/results: the base is
# extracted there with `git archive`, which leaves nothing behind in .git,
# and the working tree's tracked and untracked, not ignored files are copied
# next to it, so neither side gets a warm .bench_build/ or earlier result
# files the other lacks. The log names each run's directory and UTC start
# time. Each run is a tracked child in its own
# process group that the script waits for, so an interrupted comparison
# (SIGINT, SIGTERM, SIGHUP) kills the run — its build or the benchmark
# binary — and then removes the temporary directory; so does every other
# exit path.
set -euo pipefail
set -m # each background run gets its own process group

if [ $# -ne 4 ] && [ $# -ne 5 ]; then
	echo "usage: $0 <base-rev> <workload> <pairs> <run-seconds> [first-seed]" >&2
	exit 2
fi
base_rev=$1 workload=$2 pairs=$3 run_seconds=$4 first_seed=${5:-11}
command -v jq >/dev/null || { echo "bench-pair: needs jq to read the runs' JSON" >&2; exit 2; }
case $pairs in '' | *[!0-9]*) echo "bench-pair: PAIRS must be a positive integer" >&2; exit 2 ;; esac
[ "$pairs" -ge 1 ] || { echo "bench-pair: PAIRS must be a positive integer" >&2; exit 2; }
case $first_seed in '' | *[!0-9]*) echo "bench-pair: FIRST_SEED must be a non-negative integer" >&2; exit 2 ;; esac

repo=$(git -C "$(dirname "$0")/.." rev-parse --show-toplevel)
rev=$(git -C "$repo" rev-parse --verify "$base_rev^{commit}")

tmp=$(mktemp -d "${TMPDIR:-/tmp}/bench-pair.XXXXXX")
child=
cleanup() {
	if [ -n "$child" ]; then
		kill -TERM -- "-$child" 2>/dev/null || true
		wait "$child" 2>/dev/null || true
	fi
	rm -rf "$tmp"
}
trap cleanup EXIT
trap 'exit 129' HUP
trap 'exit 130' INT
trap 'exit 143' TERM
mkdir "$tmp/base" "$tmp/change"
git -C "$repo" archive "$rev" | tar -x -C "$tmp/base"
# The working tree as `git status` sees it: tracked files that still exist,
# plus untracked files that no .gitignore excludes.
git -C "$repo" ls-files -z --cached --others --exclude-standard |
	(cd "$repo" && while IFS= read -r -d '' f; do
		if [ -e "$f" ] || [ -L "$f" ]; then printf '%s\0' "$f"; fi
	done | tar --null -T - -cf -) | tar -x -C "$tmp/change"

# run <side> <dir> <seed>: one run; its output is kept as $tmp/<side>.<seed>
# and its last line, the JSON result, as $tmp/<side>.<seed>.json. A run
# whose self-checks fail exits non-zero but still prints its result, which
# counts the failures; a run that prints no result stops the comparison.
run() {
	local out=$tmp/$1.$3
	echo "# $1 seed $3 in $2, start $(date -u +%Y-%m-%dT%H:%M:%SZ)" >&2
	(cd "$2" && exec bash bench/run.sh --workload "$workload" --seed "$3" --seconds "$run_seconds" --trace 0) >"$out" &
	child=$!
	wait "$child" || true
	child=
	tail -n 1 "$out" >"$out.json"
	if ! jq -r '"#   correct=\(.correct) failed=\(.failed)/\(.attempted) " + ([.metrics | to_entries[] | "\(.key)=\(.value.value)"] | join(" "))' <"$out.json" >&2; then
		echo "bench-pair: $1 seed $3 printed no result; its output ends:" >&2
		tail -n 20 "$out" >&2
		exit 1
	fi
}

echo "# bench-pair: $workload, $pairs pairs of $run_seconds s from seed $first_seed, base $base_rev (${rev:0:12}) vs the working tree of $repo" >&2
for ((i = 1; i <= pairs; i++)); do
	seed=$((first_seed + i - 1))
	if ((seed % 2)); then
		run base "$tmp/base" "$seed"
		run change "$tmp/change" "$seed"
	else
		run change "$tmp/change" "$seed"
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

# signp <wins> <losses>: the one-sided sign-test p, P(X ≥ wins) for X ~
# Binomial(wins + losses, ½); 1 when every pair tied.
signp() {
	awk -v w="$1" -v l="$2" 'BEGIN {
		n = w + l; c = 1; p = 0
		for (i = 0; i <= n; i++) { if (i >= w) p += c; c = c * (n - i) / (i + 1) }
		printf "%.4f\n", n == 0 ? 1 : p / 2 ^ n
	}'
}

# verdict <better> <bound> <base median> <q1> <q3> <change median> <wins>
# <pairs> <base min> <base max> <change min> <change max> <sign-test p>:
# the rule above.
verdict() {
	awk -v better="$1" -v bound="$2" -v bm="$3" -v bq1="$4" -v bq3="$5" -v cm="$6" \
		-v wins="$7" -v n="$8" -v bmin="$9" -v bmax="${10}" -v cmin="${11}" -v cmax="${12}" -v p="${13}" 'BEGIN {
		up = better == "higher"
		gap = up ? cm - bm : bm - cm # > 0: the change is better
		# every metric is ≥ 0; a zero median takes any worsening or spread
		worse = bm == 0 ? gap < 0 : -gap / bm > bound
		spread = bm == 0 ? (bq3 > bq1 ? bound + 1 : 0) : (bq3 - bq1) / bm
		apart = up ? cmin > bmax : cmax < bmin
		if (worse) print "worse"
		else if (spread > bound && !apart) print "unresolved"
		else if (wins >= 0.9 * n && p <= 0.05 && gap > bq3 - bq1) print "gain"
		else print "within bound"
	}'
}

printf '\n%-24s %-6s  %-42s  %-42s  %s\n' metric better "base median [q1, q3]" "change median [q1, q3]" "change/base per pair (seed $first_seed up), wins, sign-test p, verdict"
failed=0
for ((i = 1; i <= pairs; i++)); do
	for side in base change; do
		f=$(jq -r '.failed' <"$tmp/$side.$((first_seed + i - 1)).json")
		failed=$((failed + f))
	done
done
jq -r '.end_to_end[] | "\(.name) \(.better) \(.bound)"' <"$repo/BENCHMARK.json" | while read -r metric better bound; do
	b=() c=() ratios=() wins=0 ties=0
	for ((i = 1; i <= pairs; i++)); do
		seed=$((first_seed + i - 1))
		bv=$(value "base.$seed" "$metric") cv=$(value "change.$seed" "$metric")
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
	read -r bmin bmax < <(printf '%s\n' "${b[@]}" | sort -g | sed -n '1p;$p' | paste -sd ' ')
	read -r cmin cmax < <(printf '%s\n' "${c[@]}" | sort -g | sed -n '1p;$p' | paste -sd ' ')
	p=$(signp "$wins" $((${#b[@]} - wins - ties)))
	v=$(verdict "$better" "$bound" "$bm" "$bq1" "$bq3" "$cm" "$wins" "${#b[@]}" "$bmin" "$bmax" "$cmin" "$cmax" "$p")
	printf '%-24s %-6s  %-42s  %-42s  %s  %d/%d, %d ties, p=%s, %s\n' "$metric" "$better" "$bm [$bq1, $bq3]" "$cm [$cq1, $cq3]" "${ratios[*]}" "$wins" "${#b[@]}" "$ties" "$p" "$v"
done
echo "failed operations over all $((2 * pairs)) runs: $failed"
