#!/usr/bin/env bash
# Paired benchmark runs of a parent commit against this checkout — the
# table the choosing-metrics guide (§8) asks a performance claim to rest
# on. For every workload it runs N alternating pairs of bench/run.sh
# (odd pairs parent first, even pairs change first) and prints, per
# (workload, end-to-end metric): each side's median [q1, q3], the ratio
# of the medians, how many pairs the change won (ties count for neither
# side) and how many runs failed.
#
#   scripts/benchpairs.sh <parent-commit> [workload ...]
#   N=10 SEED=1 SECONDS_PER_RUN=12 TRACE=0 KEEP=dir  (environment)
#
# The parent is exported with `git archive` into a temporary directory
# (KEEP names one to reuse and keep; raw results are in its results.tsv),
# so it builds from exactly the committed files with its own bench/out;
# the change side is the working tree as it stands, uncommitted edits
# included. TRACE=1 compares the per-layer metrics of traced runs
# instead. Nothing under bench/ is touched on either side.
set -euo pipefail

if [ $# -lt 1 ]; then
	sed -n '2,20p' "$0" >&2
	exit 2
fi
parent="$1"
shift
root="$(git -C "$(dirname "${BASH_SOURCE[0]}")" rev-parse --show-toplevel)"
n="${N:-10}" seed="${SEED:-1}" trace="${TRACE:-0}"
seconds="${SECONDS_PER_RUN:-$(sed -n 's/.*"run_seconds": *\([0-9]*\).*/\1/p' "$root/BENCHMARK.json")}"
if [ $# -gt 0 ]; then
	workloads=("$@")
else
	mapfile -t workloads < <(sed -n '/"workloads"/,/\]/s/.*"name": *"\([a-z_]*\)".*/\1/p' "$root/BENCHMARK.json")
fi

work="${KEEP:-$(mktemp -d "${TMPDIR:-/tmp}/benchpairs.XXXXXX")}"
[ -n "${KEEP:-}" ] || trap 'rm -rf "$work"' EXIT
mkdir -p "$work/parent"
sha="$(git -C "$root" rev-parse --verify "$parent^{commit}")"
if [ "$(cat "$work/parent/.sha" 2>/dev/null)" != "$sha" ]; then
	git -C "$root" archive "$sha" | tar -x -C "$work/parent"
	echo "$sha" >"$work/parent/.sha"
fi
results="$work/results.tsv"
: >"$results"

# run <side> <dir> <workload> <pair>: one bench/run.sh; appends
# "workload pair side metric value" rows, or a "failed" row.
run() {
	local side="$1" dir="$2" w="$3" pair="$4" line
	if line="$(bash "$dir/bench/run.sh" --workload "$w" --seed "$seed" --seconds "$seconds" --trace "$trace" 2>/dev/null | tail -n 1)" &&
		[[ "$line" == *'"failed":0,'* ]]; then
		grep -o '"[a-z0-9_.]*":{"value":[^,}]*' <<<"$line" |
			sed 's/^"\([^"]*\)":{"value":\(.*\)$/'"$w\t$pair\t$side"'\t\1\t\2/' >>"$results"
	else
		printf '%s\t%s\t%s\tfailed\t1\n' "$w" "$pair" "$side" >>"$results"
	fi
}

for w in "${workloads[@]}"; do
	for pair in $(seq 1 "$n"); do
		echo "benchpairs: $w pair $pair/$n" >&2
		if [ $((pair % 2)) -eq 1 ]; then
			run parent "$work/parent" "$w" "$pair"
			run change "$root" "$w" "$pair"
		else
			run change "$root" "$w" "$pair"
			run parent "$work/parent" "$w" "$pair"
		fi
	done
done

# "better" per metric, from BENCHMARK.json ("lower" unless it says higher).
higher="$(tr -d '\n ' <"$root/BENCHMARK.json" | grep -o '"name":"[^"]*","unit":"[^"]*","better":"higher"' | sed 's/"name":"\([^"]*\)".*/\1/' | tr '\n' ' ')"

echo "parent $sha vs working tree; seed $seed, $n pairs, $seconds s, trace $trace"
sort -t$'\t' -k1,1 -k4,4 -k3,3 -k5,5g "$results" | awk -F'\t' -v higher="$higher" '
function quantile(a, n, q,    pos, lo, frac) { # a[1..n] sorted ascending
	pos = 1 + (n - 1) * q; lo = int(pos); frac = pos - lo
	return lo >= n ? a[n] : a[lo] + frac * (a[lo + 1] - a[lo])
}
function flush(    key, m, hi, i, wins, losses, pairs, pm, cm) {
	if (cur == "") return
	split(cur, key, SUBSEP); m = key[2]
	if (m == "failed") { failed[key[1]] = "parent " np ", change " nc; cur = ""; return }
	hi = index(" " higher " ", " " m " ") > 0
	for (i in pv) if (i in cv) {
		pairs++
		if (cv[i] != pv[i]) { if ((cv[i] > pv[i]) == hi) wins++; else losses++ }
	}
	pm = quantile(ps, np, .5); cm = quantile(cs, nc, .5)
	printf "%-14s %-34s %12.6g [%.6g, %.6g] %12.6g [%.6g, %.6g]  x%-7.3f %d/%d wins, %d losses\n", key[1], m,
		pm, quantile(ps, np, .25), quantile(ps, np, .75), cm, quantile(cs, nc, .25), quantile(cs, nc, .75),
		pm ? cm / pm : 0, wins, pairs, losses
	cur = ""
}
BEGIN { printf "%-14s %-34s %38s %38s  %-8s %s\n", "workload", "metric", "parent median [q1, q3]", "change median [q1, q3]", "ratio", "change wins" }
{
	k = $1 SUBSEP $4
	if (k != cur) { flush(); cur = k; np = nc = 0; delete ps; delete cs; delete pv; delete cv }
	if ($3 == "parent") { ps[++np] = $5; pv[$2] = $5 } else { cs[++nc] = $5; cv[$2] = $5 }
}
END {
	flush()
	for (w in failed) printf "%-14s FAILED RUNS: %s\n", w, failed[w]
}'
