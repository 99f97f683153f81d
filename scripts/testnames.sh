#!/usr/bin/env bash
# Fails unless every |-separated name of a go test -run or -fuzz pattern
# selects at least one test, fuzz target, benchmark or example of the
# package. go test passes silently when a pattern matches nothing, so a
# renamed or deleted test would otherwise drop out of a CI step unseen.
# Each name is matched on its own, with go test's own (unanchored)
# regexp rules, through go test -list.
#
#   bash scripts/testnames.sh <package> <pattern>
set -euo pipefail
pkg=$1
IFS='|' read -ra names <<<"$2"
status=0
for name in "${names[@]}"; do
	listed=$(go test -list "$name" "$pkg")
	if ! grep -qv '^ok ' <<<"$listed"; then
		echo "testnames: $pkg: $name matches no test" >&2
		status=1
	fi
done
exit "$status"
