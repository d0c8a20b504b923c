#!/bin/sh
# Build the benchmark and the gcd2 CLI its serve workload spawns, from
# source and without dune's shared cache, then run the benchmark with the
# given arguments.  Run it from the repository root:
#
#   sh benchmark/run.sh --workload compile --seed 1 --seconds 15 --trace 0
#   sh benchmark/run.sh run --seed 1
set -e
dune build --root . --cache=disabled --display=quiet ./benchmark/main.exe ./bin/gcd2_cli.exe 1>&2
exec ./_build/default/benchmark/main.exe "$@"
