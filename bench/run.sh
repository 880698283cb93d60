#!/usr/bin/env bash
# The benchmark's one command (see BENCHMARK.json): build the program
# from source into bench/out — inside the checkout, Go's build cache
# included — and run it with the arguments given.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$here/out"
mkdir -p "$out/gotmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/gotmp" GOTOOLCHAIN=local GOPROXY=off
(cd "$here" && go build -o "$out/odebench" .)
exec "$out/odebench" -out "$out" "$@"
