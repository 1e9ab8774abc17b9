#!/usr/bin/env bash
# Builds the benchmark runner from source in this checkout, then runs it:
#   bash perfbench/run.sh --workload cells --seed 1 --seconds 20 --trace 0
#   bash perfbench/run.sh --self-test
# Build output goes to stderr; the runner's last stdout line is its result.
set -euo pipefail
cd "$(dirname "$0")/.."
if [ ! -f dune-project ] || [ ! -d lib ]; then
  echo "perfbench: no dune-project or lib/ here; run from a full checkout" >&2
  exit 2
fi
dune build --root . --display quiet ./perfbench/perfbench.exe 1>&2
exec ./_build/default/perfbench/perfbench.exe "$@"
