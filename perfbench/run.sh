#!/bin/sh
# Build the server and the benchmark from source, then run the benchmark.
# Usage (from the repository root):
#   sh perfbench/run.sh --workload eval-named --seed 1 --seconds 10 --trace 0
#   sh perfbench/run.sh --selftest
# Dune's shared cache is disabled so the build reads and writes only
# inside this checkout.
set -e
cd "$(dirname "$0")/.."
DUNE_CACHE=disabled dune build --root . ./bin/bagcq_cli.exe ./perfbench/bench.exe 1>&2
exec ./_build/default/perfbench/bench.exe --server ./_build/default/bin/bagcq_cli.exe "$@"
