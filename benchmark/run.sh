#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ at the root of the
# checkout and runs it with the arguments given. Everything the build and
# the run write (Go's build cache, its temporary files, the archive
# directories of the runs) stays under .bench_build/, inside the checkout.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/tmp" "$build/gocache"

export GOCACHE="$build/gocache"
export GOTMPDIR="$build/tmp"
export TMPDIR="$build/tmp"
export GOPROXY=off
export GOTOOLCHAIN=local

cd "$here"
# The harness must build. The layer replay uses the layers' wider API and
# may stop building when one of them changes; then only -trace 1 fails,
# with the harness saying why.
go build -o "$build/bin/tagcorr-bench" . >&2
if ! go build -o "$build/bin/tagcorr-layers" ./layers >&2; then
  rm -f "$build/bin/tagcorr-layers"
fi

cd "$root"
exec "$build/bin/tagcorr-bench" "$@"
