#!/bin/bash
# require-tests: fail unless a `go test -run`/`-bench` pattern selects at
# least one test in every listed package, and every |-separated alternative
# of it selects one in some listed package — so renaming or deleting a test
# cannot silently turn a make gate into a no-op.
#
#	bash scripts/require-tests.sh '<pattern>' <package>...
#
# It asks `go test -list`, which compiles each package's tests without
# running them.
set -euo pipefail

if [ $# -lt 2 ]; then
	echo "usage: $0 <pattern> <package>..." >&2
	exit 2
fi
pattern=$1
shift
go=${GO:-go}

listed=""
for pkg in "$@"; do
	names=$("$go" test -list "$pattern" "$pkg" | grep -E '^(Test|Benchmark|Fuzz|Example)' || true)
	if [ -z "$names" ]; then
		echo "require-tests: '$pattern' selects no test in $pkg" >&2
		exit 1
	fi
	listed+="$names"$'\n'
done

IFS='|' read -ra alternatives <<< "$pattern"
for alt in "${alternatives[@]}"; do
	if ! grep -Eq -- "$alt" <<< "$listed"; then
		echo "require-tests: '$alt' (of '$pattern') selects no test in $*" >&2
		exit 1
	fi
done
