#!/usr/bin/env bash
# Hand-off gate for a change to this repository. Runs, in order:
#
#   1. tier-1: go build ./... && go vet ./... && go test ./...; the test
#      binaries of core, metrics, cluster, serve, stream, frame
#      and the serve, cluster and train commands also fail when their
#      tests leave goroutines running (internal/leakcheck is their
#      TestMain)
#   2. go test -race over the concurrency-critical packages (RACE_PKGS;
#      CI runs this script, so the list lives only here)
#   3. a process check: nothing this repository builds or runs
#      (isasgd binaries, test binaries under a go-buildNNN temp dir, the
#      benchmark's .bench_build tree, go run/test/build) may still be
#      running afterwards
#
# Both go test runs time out after 3 minutes, so a protocol deadlock
# fails with a goroutine dump instead of hanging the gate.
#
# Exits non-zero if any check fails or any process is left.
#
#   bash scripts/handoff.sh
set -u
cd "$(dirname "$0")/.."

RACE_PKGS=(
	./internal/serve/ ./cmd/isasgd-serve/ ./internal/stream/ ./internal/core/
	./internal/model/ ./internal/kernel/ ./internal/snapshot/ ./internal/obs/
	./internal/cluster/ ./internal/httpx/
	./internal/adaptive/ ./internal/dataset/
	./internal/frame/
)

status=0
check() {
	local name=$1
	shift
	if "$@"; then
		echo "handoff: PASS $name"
	else
		echo "handoff: FAIL $name"
		status=1
	fi
}

tier1() { go build ./... && go vet ./... && go test -timeout 3m ./...; }
check "build, vet, test" tier1
check "race (${#RACE_PKGS[@]} packages)" go test -race -timeout 3m "${RACE_PKGS[@]}"

# The bracketed first characters keep the pattern from matching its own
# command line; pgrep runs as a direct child writing to a file, so no
# subshell of this script is listed, and the script and its parent are
# skipped by PID.
procs=$(mktemp)
pgrep -fa '[i]sasgd|[.]bench_build|[g]o (run|test|build)|[g]o-build[0-9]+/' >"$procs"
left=0
while read -r pid cmd; do
	if [ "$pid" = "$$" ] || [ "$pid" = "$PPID" ]; then
		continue
	fi
	echo "handoff: still running: $pid $cmd"
	left=$((left + 1))
done <"$procs"
rm -f "$procs"
if [ "$left" -eq 0 ]; then
	echo "handoff: PASS no process left"
else
	echo "handoff: FAIL $left process(es) left"
	status=1
fi

exit "$status"
