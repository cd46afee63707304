#!/usr/bin/env bash
# Builds the live-plane launch benchmark from source and runs it with the
# given arguments. Run it from the root of a checkout:
#
#   bash livebench/run.sh --workload cold-stream --seed 1 --seconds 30 --trace 0
#
# The binary, the Go build cache and the traced runs' spans stay under
# .bench_build/livebench in the checkout. The last line of standard
# output is the JSON result.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build/livebench"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp"
export GOENV=off GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOWORK=off \
	GOFLAGS=-buildvcs=false CGO_ENABLED=0 \
	GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp"
(cd "$root/livebench" && go build -o "$out/livebench" .) >&2
commit=unknown
if [ -d "$root/.git" ]; then
	commit=$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)
fi
LIVEBENCH_COMMIT=$commit exec "$out/livebench" "$@"
