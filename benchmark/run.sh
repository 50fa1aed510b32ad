#!/usr/bin/env bash
# Builds the benchmark driver and runs it with the given arguments.
# Everything the build and the runs write (binary, Go build cache, results,
# traces, scratch data dirs) stays under benchmark/out/, so a run reads and
# writes nothing outside the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$here/out"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOFLAGS= GOTOOLCHAIN=local GOWORK=off VDBENCH_DIR="$here"
(cd "$here" && go build -o "$out/vdbench" .)
cd "$(dirname "$here")"
exec "$out/vdbench" "$@"
