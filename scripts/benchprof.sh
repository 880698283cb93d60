#!/usr/bin/env bash
# Profile one benchmark workload without editing bench/: builds the
# benchmark program with scripts/benchprof/hook.go overlaid into it
# (go build -overlay), runs the workload untraced, and prints where the
# time and the allocations went, and what the heap still holds.
#
#   scripts/benchprof.sh <workload> [seconds]
#   SEED=1 FOCUS='<regex>' LIST='<regex>' KEEP=dir  (environment)
#
# The CPU profile covers the first [seconds] (default 10) of the process,
# set-up included, and must end before the 12-second run does; an allocs
# profile (every allocation since start, sampled) is written at the same
# moment, after a runtime.GC(). It gives two listings: objects allocated
# (what allocs_per_happening counts) and resident bytes by allocation
# site (-sample_index=inuse_space — the one tool that attributes
# heap_mb_end, an end-to-end metric, to code), the latter flat and then
# cumulative: a site inside a generic helper (maps.clone, say) is named
# flat, and its caller (store.(*Record).SetField) only cumulatively. FOCUS restricts the CPU
# and allocated-objects listings to stacks through a function. By
# default that is the engine (FOCUS='engine\.') for the two volatile
# workloads, single_masked and timer_storm, which run no partition, and
# the partition loop (FOCUS='part\.\(\*Partition\)\.loop') for the
# two durable ones, batch_durable and webhook_open; FOCUS= (empty) lists
# every stack. The resident listing is never focused: most of what stays
# was allocated by the set-up. LIST='<regex>' adds the line-level view
# (pprof -list) of allocated objects for every function the regex
# matches, unfocused — the listing that says which line of Tx.Call or
# txn.(*Tx).Access makes an allocation, e.g.
# LIST='engine\.\(\*Tx\)\.Call$|txn\.\(\*Tx\)\.Access$'.
# Profiles and the binary stay in KEEP (default: a temporary directory,
# removed).
set -euo pipefail

if [ $# -lt 1 ]; then
	sed -n '2,31p' "$0" >&2
	exit 2
fi
workload="$1" seconds="${2:-10}"
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
case "$workload" in
single_masked | timer_storm) focus="${FOCUS-engine\\.}" ;;
*) focus="${FOCUS-part\\.\\(\\*Partition\\)\\.loop}" ;;
esac
work="${KEEP:-$(mktemp -d "${TMPDIR:-/tmp}/benchprof.XXXXXX")}"
[ -n "${KEEP:-}" ] || trap 'rm -rf "$work"' EXIT
mkdir -p "$work/out"

printf '{"Replace":{"%s":"%s"}}\n' "$root/bench/zz_benchprof_hook.go" "$root/scripts/benchprof/hook.go" >"$work/overlay.json"
(cd "$root/bench" && GOTOOLCHAIN=local GOPROXY=off go build -tags benchprof -overlay "$work/overlay.json" -o "$work/odebench" .)

ODE_BENCHPROF_DIR="$work" ODE_BENCHPROF_SECONDS="$seconds" \
	"$work/odebench" -out "$work/out" --workload "$workload" --seed "${SEED:-1}" --seconds 12 --trace 0 | tail -n 1 |
	grep -o '"\(setup_s\|happenings_per_s\|effect_p50_us\|allocs_per_happening\|heap_mb_end\)":{"value":[^,}]*' | tr '\n' ' '
echo
[ -s "$work/allocs.pprof" ] || { echo "benchprof: the run ended before ${seconds}s — no profile written; pass a shorter time" >&2; exit 1; }

top() { go tool pprof -top -cum -nodecount=45 ${focus:+-focus="$focus"} "$@" 2>/dev/null; }
echo "== CPU, cumulative${focus:+, stacks through $focus}"
top "$work/odebench" "$work/cpu.pprof"
echo "== allocated objects, cumulative${focus:+, stacks through $focus}"
top -sample_index=alloc_objects "$work/odebench" "$work/allocs.pprof"
echo "== resident bytes by allocation site (after a GC), flat"
go tool pprof -top -nodecount=25 -sample_index=inuse_space "$work/odebench" "$work/allocs.pprof" 2>/dev/null
echo "== resident bytes by allocation site (after a GC), cumulative"
go tool pprof -top -cum -nodecount=35 -sample_index=inuse_space "$work/odebench" "$work/allocs.pprof" 2>/dev/null
if [ -n "${LIST:-}" ]; then
	echo "== allocated objects by line, functions matching $LIST"
	go tool pprof -list="$LIST" -sample_index=alloc_objects "$work/odebench" "$work/allocs.pprof" 2>/dev/null
fi
