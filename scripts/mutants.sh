#!/usr/bin/env bash
# Mutation check: does a package's test suite notice a deliberate fault?
# For each patch, alone, on a fresh export of the committed tree, it runs
# `go test` on the package and prints one line: the patch, "killed" (some
# test failed, and which) or "survived" (every test passed), or "broken"
# (the mutant does not build or the patch does not apply).
#
#   scripts/mutants.sh <package> <patch> ...
#   scripts/mutants.sh ./internal/engine/ scripts/mutants/timers/*.patch
#
# HEAD is exported with `git archive` into a temporary directory, so
# uncommitted edits are not tested and the checkout is never modified.
# Patches are unified diffs relative to the repository root (`git diff`
# output), applied with `git apply` and reverted before the next one.
# Exits 1 if any mutant survived or is broken.
set -euo pipefail

if [ $# -lt 2 ]; then
	sed -n '2,16p' "$0" >&2
	exit 2
fi
pkg="$1"
shift
root="$(git -C "$(dirname "${BASH_SOURCE[0]}")" rev-parse --show-toplevel)"
patches=()
for p in "$@"; do
	patches+=("$(cd "$(dirname "$p")" && pwd)/$(basename "$p")")
done

work="$(mktemp -d "${TMPDIR:-/tmp}/mutants.XXXXXX")"
trap 'rm -rf "$work"' EXIT
git -C "$root" archive HEAD | tar -x -C "$work"
echo "mutants of $(git -C "$root" rev-parse --short HEAD), go test $pkg"

status=0
for p in "${patches[@]}"; do
	name="$(basename "$p" .patch)"
	if ! (cd "$work" && git apply "$p" 2>/dev/null); then
		printf '%-40s broken (does not apply)\n' "$name"
		status=1
		continue
	fi
	out="$(cd "$work" && go test -count=1 "$pkg" 2>&1)" && rc=0 || rc=$?
	(cd "$work" && git apply -R "$p")
	failed="$(grep -o -- '--- FAIL: [A-Za-z0-9_/]*' <<<"$out" | sed 's/--- FAIL: //; s,/.*,,' | sort -u | tr '\n' ' ' || true)"
	if [ "$rc" -eq 0 ]; then
		printf '%-40s survived\n' "$name"
		status=1
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
