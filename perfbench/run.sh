#!/usr/bin/env bash
# Builds the benchmark from the checkout it is run in, then runs it:
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
# Run from the repository root. Build output goes to _build/; dune's
# shared cache is off, so nothing is written outside the checkout. Exits
# non-zero without a result if the build fails, e.g. when the
# repository's libraries are not there.
set -euo pipefail
if [ ! -f dune-project ] || [ ! -d lib ]; then
  echo "perfbench: run from the repository root (no dune-project or lib/ here)" >&2
  exit 2
fi
if ! command -v dune >/dev/null 2>&1 && command -v opam >/dev/null 2>&1; then
  eval "$(opam env 2>/dev/null)"
fi
dune build --root . --cache=disabled ./perfbench/main.exe 1>&2
exec ./_build/default/perfbench/main.exe "$@"
