#!/usr/bin/env bash
# ab.sh — compare the benchmark of a base revision with the current
# checkout in alternating pairs.
#
# Usage:
#   scripts/ab.sh <rev> [--workload W] [--pairs N]
#
# <rev> is exported with git archive into .bench_build/ab-<sha>. Each
# pair runs that checkout's perfbench/run.sh and the current checkout's
# (working tree included) at seed 1 for BENCHMARK.json's run_seconds;
# odd pairs run the base first, even pairs the change, so drift of the
# host does not favour one side. --workload defaults to every workload
# of BENCHMARK.json and --pairs to 10. The runs' standard output is kept
# under .bench_build/ab-runs/<workload>/. Per end-to-end metric the
# summary prints both medians, the change as a share of the base median,
# the base runs' interquartile range, the pairs the change won and the
# verdict against the metric's bound: "WORSE" when the change median is
# worse than the base median by more than the bound, "gain" when there
# are at least ten pairs, the change won nine in ten and its median is
# better by more than the base IQR, "ok" otherwise. With fewer than ten
# pairs, a metric whose base IQR exceeds half its bound's share of the
# base median gets "noisy: rerun with --pairs 10" after its verdict: its
# spread alone can then reach the bound. The script exits 1 when the
# runs' digests differ or an op failed.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"

usage() {
	echo "usage: scripts/ab.sh <rev> [--workload W] [--pairs N]" >&2
	exit 2
}
[ $# -ge 1 ] || usage
rev=$1
shift
workloads=$(sed -n '/"workloads"/,/]/s/.*"name": "\(.*\)",/\1/p' BENCHMARK.json)
pairs=10
while [ $# -gt 0 ]; do
	case "$1" in
	--workload) [ $# -ge 2 ] || usage; workloads=$2; shift 2 ;;
	--pairs) [ $# -ge 2 ] || usage; pairs=$2; shift 2 ;;
	*) usage ;;
	esac
done
case "$pairs" in
'' | *[!0-9]* | 0) usage ;;
esac
seconds=$(sed -n 's/.*"run_seconds": \([0-9]*\).*/\1/p' BENCHMARK.json)

sha=$(git rev-parse --verify "$rev^{commit}")
base="$root/.bench_build/ab-$sha"
if [ ! -f "$base/perfbench/run.sh" ]; then
	rm -rf "$base"
	mkdir -p "$base"
	git archive "$sha" | tar -x -C "$base"
fi
runs="$root/.bench_build/ab-runs"
rm -rf "$runs"

for w in $workloads; do
	mkdir -p "$runs/$w"
	for i in $(seq 1 "$pairs"); do
		order="base change"
		[ $((i % 2)) -eq 0 ] && order="change base"
		for side in $order; do
			dir=$root
			[ "$side" = base ] && dir=$base
			echo "ab: $w pair $i/$pairs $side" >&2
			bash "$dir/perfbench/run.sh" --workload "$w" --seed 1 --seconds "$seconds" --trace 0 \
				>"$runs/$w/$i-$side.out" 2>"$runs/$w/$i-$side.err"
		done
	done
done

# The summary reads one "name better bound" line per end-to-end metric of
# BENCHMARK.json, then one "side pair key value" line per value a run
# printed: its digest, attempted and failed counts, and metrics.
bounds=$(sed -n '/"end_to_end"/,/]/p' BENCHMARK.json | awk -F'"' '
	/"name"/ { n = $4 }
	/"better"/ { b = $4 }
	/"bound"/ { split($3, v, /[:, ]+/); print n, b, v[2] }')
values() {
	sed -n "s/^digest [^ ]* /$1 $2 digest /p" "$3"
	grep -o '"attempted":[0-9]*\|"failed":[0-9]*\|"[a-z_]*":{"value":[-0-9.e+]*' "$3" |
		tr -d '"{' | sed "s/:value:/ /; s/:/ /; s/^/$1 $2 /"
}
echo "base ${sha:0:12} vs change $(git rev-parse --short=12 HEAD)$(git diff --quiet HEAD || echo ' + working tree')"
status=0
for w in $workloads; do
	echo "workload $w, pairs $pairs"
	for i in $(seq 1 "$pairs"); do
		values base "$i" "$runs/$w/$i-base.out"
		values change "$i" "$runs/$w/$i-change.out"
	done | awk -v pairs="$pairs" '
	# quant interpolates linearly between the order statistics of a[1..n].
	function quant(a, n, p,    s, i, j, t, pos, k) {
		for (i = 1; i <= n; i++) s[i] = a[i]
		for (i = 2; i <= n; i++)
			for (j = i; j > 1 && s[j-1] > s[j]; j--) { t = s[j]; s[j] = s[j-1]; s[j-1] = t }
		pos = 1 + p * (n - 1); k = int(pos)
		return k >= n ? s[n] : s[k] + (pos - k) * (s[k+1] - s[k])
	}
	NR == FNR { better[$1] = $2; bound[$1] = $3; order[++nm] = $1; next }
	$3 == "digest" { if (!($4 in seen)) nd++; seen[$4] = 1; next }
	$3 == "attempted" || $3 == "failed" { tally[$1, $3] += $4; next }
	{ v[$1, $2, $3] = $4 + 0 }
	END {
		printf "  digest  %s (%d distinct)\n", nd == 1 ? "match" : "DIFFER", nd
		printf "  failed  base %d/%d  change %d/%d\n", tally["base", "failed"], tally["base", "attempted"],
			tally["change", "failed"], tally["change", "attempted"]
		printf "  %-14s %12s %12s %8s %10s %6s %6s  %s\n",
			"metric", "base_med", "change_med", "change", "base_iqr", "won", "bound", "verdict"
		for (m = 1; m <= nm; m++) {
			name = order[m]; won = 0
			for (i = 1; i <= pairs; i++) {
				x[i] = v["base", i, name]; y[i] = v["change", i, name]
				if ((better[name] == "lower" && y[i] < x[i]) || (better[name] == "higher" && y[i] > x[i])) won++
			}
			bm = quant(x, pairs, 0.5); cm = quant(y, pairs, 0.5)
			iqr = quant(x, pairs, 0.75) - quant(x, pairs, 0.25)
			gain = better[name] == "lower" ? bm - cm : cm - bm
			share = bm != 0 ? sprintf("%+.1f%%", 100 * (cm - bm) / bm) : "-"
			verdict = -gain > bound[name] * bm ? "WORSE" : pairs >= 10 && 10 * won >= 9 * pairs && gain > iqr ? "gain" : "ok"
			note = pairs < 10 && iqr > bound[name] * (bm < 0 ? -bm : bm) / 2 ? "  noisy: rerun with --pairs 10" : ""
			printf "  %-14s %12.4g %12.4g %8s %10.3g %3d/%-2d %5.0f%%  %s%s\n",
				name, bm, cm, share, iqr, won, pairs, 100 * bound[name], verdict, note
		}
		exit nd != 1 || tally["base", "failed"] + tally["change", "failed"] > 0
	}' <(echo "$bounds") - || status=1
done
exit $status
