#!/bin/sh
# Build the end-to-end campaign benchmark from source and run it from the
# repository root; every argument goes to e2e.exe. The dune cache is off,
# so the build writes only under _build.
set -e
cd "$(dirname "$0")/../.."
DUNE_CACHE=disabled dune build --root . --display quiet ./bench/e2e/e2e.exe >&2
exec ./_build/default/bench/e2e/e2e.exe "$@"
