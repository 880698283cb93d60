#!/usr/bin/env bash
# Mutation check: does the test suite notice a deliberate fault?
# For each patch, alone, on a fresh export of the committed tree, it runs
# `go test` on the packages and prints one line: the patch, "killed"
# (some test failed, and which, across all the packages) or "survived"
# (every test passed), or "broken" (the mutant does not build or the
# patch does not apply).
#
#   scripts/mutants.sh <package>[,<package>...] <patch> ...
#   scripts/mutants.sh ./internal/engine/ scripts/mutants/timers/*.patch
#   scripts/mutants.sh ./internal/engine/,.,./cmd/...,./internal/part/ scripts/mutants/masks/*.patch
#
# ./internal/sim, when listed, runs with -short. A survivor that
# scripts/mutants/allow.txt lists (patch name without .patch, then the
# reason) prints "survived (allowed: reason)" and does not fail the run.
# HEAD is exported with `git archive` into a temporary directory, so
# uncommitted edits are not tested and the checkout is never modified.
# Patches are unified diffs relative to the repository root (`git diff`
# output), applied with `git apply` and reverted before the next one.
# Exits 1 if any mutant survived unlisted or is broken.
set -euo pipefail

if [ $# -lt 2 ]; then
	sed -n '2,20p' "$0" >&2
	exit 2
fi
pkgs=()
short=()
IFS=, read -r -a listed <<<"$1"
for p in "${listed[@]}"; do
	case "${p%/}" in
	*internal/sim) short+=("$p") ;;
	*) pkgs+=("$p") ;;
	esac
done
shift
root="$(git -C "$(dirname "${BASH_SOURCE[0]}")" rev-parse --show-toplevel)"
allow="$root/scripts/mutants/allow.txt"
patches=()
for p in "$@"; do
	patches+=("$(cd "$(dirname "$p")" && pwd)/$(basename "$p")")
done

work="$(mktemp -d "${TMPDIR:-/tmp}/mutants.XXXXXX")"
trap 'rm -rf "$work"' EXIT
git -C "$root" archive HEAD | tar -x -C "$work"
echo "mutants of $(git -C "$root" rev-parse --short HEAD), go test ${pkgs[*]}${short:+ (-short ${short[*]})}"

# gotest runs the listed packages, the -short ones apart, and prints
# their combined output; it fails if either run does.
gotest() {
	local rc=0
	if [ ${#pkgs[@]} -gt 0 ]; then
		go test -count=1 "${pkgs[@]}" 2>&1 || rc=1
	fi
	if [ ${#short[@]} -gt 0 ]; then
		go test -count=1 -short "${short[@]}" 2>&1 || rc=1
	fi
	return "$rc"
}

status=0
for p in "${patches[@]}"; do
	name="$(basename "$p" .patch)"
	if ! (cd "$work" && git apply "$p" 2>/dev/null); then
		printf '%-40s broken (does not apply)\n' "$name"
		status=1
		continue
	fi
	out="$(cd "$work" && gotest)" && rc=0 || rc=$?
	(cd "$work" && git apply -R "$p")
	failed="$(grep -o -- '--- FAIL: [A-Za-z0-9_/]*' <<<"$out" | sed 's/--- FAIL: //; s,/.*,,' | sort -u | tr '\n' ' ' || true)"
	if [ "$rc" -eq 0 ]; then
		reason="$(awk -v n="$name" '$1 == n { $1 = ""; sub(/^ +/, ""); print; exit }' "$allow" 2>/dev/null || true)"
		if [ -n "$reason" ]; then
			printf '%-40s survived (allowed: %s)\n' "$name" "$reason"
		else
			printf '%-40s survived\n' "$name"
			status=1
		fi
	elif [ -n "$failed" ]; then
		printf '%-40s killed   %s\n' "$name" "$failed"
	elif grep -q 'build failed\|setup failed' <<<"$out"; then
		printf '%-40s broken (does not build)\n' "$name"
		status=1
	else
		printf '%-40s killed   (%s)\n' "$name" "$(grep -m1 -E 'panic:|timed out|FAIL' <<<"$out" || echo "exit $rc")"
	fi
done
exit "$status"
