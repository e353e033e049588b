#!/usr/bin/env bash
# Builds the benchmark from the sources in this checkout and runs it with
# the given arguments, for example
#
#   bash bench/run.sh --workload serve-cold --seed 3 --seconds 15 --trace 0
#
# Run it from the repository root. The Go build cache, temporary files and
# span files all go under .bench_build there, so nothing is written
# outside the checkout and nothing is downloaded.
set -euo pipefail
mkdir -p .bench_build/tmp
out="$(cd .bench_build && pwd)"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off
(cd bench && go build -o "$out/incdb-bench" .)
exec "$out/incdb-bench" "$@"
