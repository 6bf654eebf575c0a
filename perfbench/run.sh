#!/bin/sh
# Build the benchmark from the checkout it sits in, then run it.
#
#   sh perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Run from the root of a checkout of the repository.  Build output goes
# to stderr, so the benchmark's result stays the last line of stdout.
set -eu
if [ ! -f dune-project ] || [ ! -d lib ] || [ ! -f perfbench/dune ]; then
  echo "perfbench: run from the root of a repository checkout (dune-project, lib/ and perfbench/ are needed)" >&2
  exit 2
fi
DUNE_CACHE=disabled dune build --root . ./perfbench/main.exe 1>&2
exec ./_build/default/perfbench/main.exe "$@"
