#!/usr/bin/env bash
# Build the topoguard CLI and the benchmark from source, then run one
# workload from the repository root:
#
#   bash perfbench/run.sh --workload sweep|serve-warm|serve-cold \
#     --seed N --seconds S --trace 0|1
#
# Build output goes to stderr; the last line on stdout is the result.
set -eu
cd "$(dirname "$0")/.."
# keep every build artifact inside the checkout (no shared dune cache)
export DUNE_CACHE=disabled
dune build --root . ./bin/topoguard_cli.exe ./perfbench/main.exe 1>&2
exec ./_build/default/perfbench/main.exe --root . \
  --cli ./_build/default/bin/topoguard_cli.exe --work-dir _perfbench "$@"
