#!/bin/sh
# golden.sh — check that dagbench's deterministic quick-scale output is
# byte-identical to the committed golden digest.
#
# Usage:
#   scripts/golden.sh [WORKERS]          print the digest at WORKERS (default 1)
#   scripts/golden.sh -check [WORKERS]   fail unless it equals scripts/golden.sha256
#
# The digest is the SHA-256 of the output of every experiment except
# table6 (its cells are measured seconds), with the "(… finished in …)"
# trailer lines deleted. The output must not depend on the worker count.
set -eu
cd "$(dirname "$0")/.."
check=0
if [ "${1:-}" = "-check" ]; then
    check=1
    shift
fi
workers=${1:-1}
exps=table1,table2,table3,table4,table5,fig2,fig3,fig4,unccs,tdb,genx,robust,components,adversarial,faults,scaling
bin=$(mktemp)
trap 'rm -f "$bin"' EXIT
go build -o "$bin" ./cmd/dagbench
sum=$("$bin" -exp "$exps" -scale quick -workers "$workers" |
    sed -E '/^\(.* finished in .*\)$/d' | sha256sum | cut -d' ' -f1)
if [ "$check" = 0 ]; then
    echo "$sum"
    exit 0
fi
want=$(cut -d' ' -f1 scripts/golden.sha256)
if [ "$sum" != "$want" ]; then
    echo "golden digest mismatch at -workers $workers: got $sum, want $want" >&2
    exit 1
fi
echo "golden digest matches at -workers $workers"
