#!/bin/sh
# checkdocs.sh — fail if an exported top-level declaration in the root
# package (the public API in taskgraph.go and siblings) lacks a doc
# comment. Deliberately a simple textual check: it looks at lines
# starting with `func`, `type`, `var`, or `const` followed by an
# exported identifier and requires the preceding line to be a comment.
# Members of grouped `type (...)` / `const (...)` blocks are documented
# inline and are out of scope here; go vet covers their syntax. It also
# fails if a registered obs metric name is missing from
# docs/observability.md.
set -eu
cd "$(dirname "$0")/.."
fail=0
for f in ./*.go; do
    case "$f" in
    *_test.go) continue ;;
    esac
    out=$(awk '
        prev !~ /^\/\// && /^(func|type|var|const) [A-Z]/ {
            printf "%s:%d: undocumented exported declaration: %s\n", FILENAME, FNR, $0
        }
        { prev = $0 }
    ' "$f")
    if [ -n "$out" ]; then
        echo "$out"
        fail=1
    fi
done
if [ "$fail" -ne 0 ]; then
    echo "checkdocs: add doc comments to the declarations above" >&2
fi
# Every metric registered under internal/ or cmd/ (outside tests) must
# have a row naming it in backticks in docs/observability.md.
names=$(find internal cmd -name '*.go' ! -name '*_test.go' -exec \
    grep -ohE 'New(Counter|Gauge|Histogram)\("[^"]+"' {} + |
    sed -E 's/.*\("//; s/"$//' | sort -u)
undocumented=0
for name in $names; do
    if ! grep -qF "\`$name\`" docs/observability.md; then
        echo "docs/observability.md: metric $name has no row"
        undocumented=1
    fi
done
if [ "$undocumented" -ne 0 ]; then
    echo "checkdocs: add the metrics above to docs/observability.md" >&2
    fail=1
fi
exit "$fail"
