#!/usr/bin/env bash
# Builds mvccbench from this checkout's sources (once; later calls only
# re-check) and runs it with the given arguments, e.g.
#
#   bash benchmark/run.sh --workload rw_flight --seed 3 --seconds 10 --trace 0
#
# Run from the repository root. The build and the run's data directories
# go under $CARGO_TARGET_DIR (default .bench_build); build output goes to
# stderr so stdout carries only the benchmark's report.
set -euo pipefail

if [[ ! -f src/CMakeLists.txt || ! -f benchmark/CMakeLists.txt ]]; then
  echo "run.sh: run from the repository root (needs src/ and benchmark/)" >&2
  exit 2
fi

out="${CARGO_TARGET_DIR:-.bench_build}"
build="$out/mvccbench"
if [[ ! -f "$build/CMakeCache.txt" ]]; then
  cmake -S benchmark -B "$build" -DCMAKE_BUILD_TYPE=Release >&2
fi
cmake --build "$build" --target mvccbench -j 4 >&2

exec "$build/mvccbench" --data-root "$out/data" "$@"
