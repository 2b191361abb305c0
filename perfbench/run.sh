#!/bin/sh
# Builds the benchmark from source with dune, then runs it; every argument
# is passed through (see main.ml for the options). Run from the root of a
# checkout: `bash perfbench/run.sh --workload kv-hlrc --seed 1`.
set -u
cd "$(dirname "$0")/.." || exit 2
dune build --root . --cache=disabled --display=quiet perfbench/main.exe >&2 || exit 2
# Runtime_events rings of 2^12 words: the traced run's ring file (one ring
# for each of 128 possible domains) stays at 4 MB, and a 2 ms timer drains
# it (measure.ml, Rte).
OCAMLRUNPARAM="${OCAMLRUNPARAM:+$OCAMLRUNPARAM,}e=12" exec ./_build/default/perfbench/main.exe "$@"
