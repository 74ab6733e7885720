#!/usr/bin/env bash
# Builds the benchmark from the checkout it sits in and runs it:
#   bash perfbench/run.sh --workload paper-grid --seed 1 --seconds 20 --trace 0
# Every build artefact (binary, Go build cache) goes under .bench_build
# at the checkout root, so nothing is read or written outside it apart
# from the Go toolchain itself. The build needs the repository's go.mod
# one directory up; without it the script fails before printing a result.
set -euo pipefail
# A non-interactive shell may lack the profile that puts Go on PATH; fall
# back to the official installer's location.
command -v go >/dev/null || PATH="$PATH:/usr/local/go/bin"
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOENV=off GOFLAGS=-mod=mod \
	GOTOOLCHAIN=local GOPROXY=off GOTELEMETRY=off XDG_CONFIG_HOME="$out/config"
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
cd "$root"
exec "$out/perfbench" "$@"
