#!/usr/bin/env bash
# Builds the benchmark from the sources in the current directory and runs it,
# passing every argument through. Run it from the repository root:
#
#   bash perfbench/run.sh --workload t10-yafim --seed 2014 --seconds 20 --trace 0
#
# The Go build cache, the binary, the generated inputs and the span files all
# stay under .bench_build in the current directory; nothing is fetched.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/home"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	TMPDIR="$out/tmp" HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
