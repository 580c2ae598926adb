#!/bin/sh
# Build the campaign benchmark from source, then run it with the given
# arguments from the root of the checkout:
#
#   sh perfbench/run.sh --workload search-W --seed 1 --seconds 20 --trace 0
#
# Build output goes to stderr, so the last line of stdout is the result.
set -e
cd "$(dirname "$0")/.."
if ! command -v dune >/dev/null 2>&1; then
  eval "$(opam env 2>/dev/null)" || true
fi
dune build --root . ./perfbench/perf.exe 1>&2
exec ./_build/default/perfbench/perf.exe "$@"
