#!/usr/bin/env bash
# Tier-1 verify: docs link check, header self-containment check, configure,
# build, run the ctest suite.
#
# Usage: scripts/ci.sh [--asan | --tsan | --quick-bench | --bench-smoke |
#                       --analyze]
#   --asan        build in a separate tree (build-asan/) with
#                 -fsanitize=address,undefined and run the full suite under it
#   --tsan        build in a separate tree (build-tsan/) with -fsanitize=thread
#                 and run the concurrency-sensitive subset
#                 (ctest -L 'integration|parallel|stream|query|index|advisor|serve|ql|persist')
#   --quick-bench smoke-run the benchmark sweep instead of ctest: build,
#                 run bench/run_all --quick, and validate that every emitted
#                 record parses as JSON (run_all itself exits non-zero when
#                 any bench fails, so this also gates the bench invariants)
#   --bench-smoke tiny-scale self-test of the repo's benchmark
#                 (python3 pipebench/smoke_test.py): both BENCHMARK.json
#                 workloads in both modes, every correctness gate; builds
#                 its own tree in .bench_build/
#   --analyze     the compile-time correctness gate (docs/STATIC_ANALYSIS.md):
#                 1. scripts/pta_lint.py over src/ tests/ bench/ examples/
#                    (determinism + parse-discipline rules, runs everywhere)
#                    and scripts/bench_compare.py --self-test
#                 2. a -Werror gcc/default build in build-analyze/, which
#                    promotes every [[nodiscard]] Status/Result discard to a
#                    hard error, then the full ctest suite
#                 3. where clang is installed: a clang build with
#                    -Wthread-safety -Werror (Clang Thread Safety Analysis
#                    over the annotations in src/util/thread_annotations.h)
#                 4. where clang-tidy is installed: the curated .clang-tidy
#                    profile over the compilation database
#                 Legs 3 and 4 SKIP LOUDLY when the tool is absent — the
#                 gate still passes, but the skip is unmissable in the log.
set -euo pipefail
cd "$(dirname "$0")/.."

build_dir=build
cmake_args=()
ctest_args=()
mode=test
if [[ "${1:-}" == "--asan" ]]; then
  build_dir=build-asan
  cmake_args+=(-DPTA_SANITIZE=ON)
  shift
elif [[ "${1:-}" == "--tsan" ]]; then
  build_dir=build-tsan
  cmake_args+=(-DPTA_SANITIZE_THREAD=ON)
  ctest_args+=(-L 'integration|parallel|stream|query|index|advisor|serve|ql|persist')
  shift
elif [[ "${1:-}" == "--quick-bench" ]]; then
  mode=quick-bench
  shift
elif [[ "${1:-}" == "--bench-smoke" ]]; then
  mode=bench-smoke
  shift
elif [[ "${1:-}" == "--analyze" ]]; then
  mode=analyze
  build_dir=build-analyze
  cmake_args+=(-DPTA_WERROR=ON)
  shift
fi
if [[ $# -gt 0 ]]; then
  echo "usage: $0 [--asan | --tsan | --quick-bench | --bench-smoke | --analyze]" >&2
  exit 2
fi

if [[ "$mode" == "bench-smoke" ]]; then
  exec python3 pipebench/smoke_test.py
fi

scripts/check_doc_links.sh
# Every public header must compile standalone, so the pta.h umbrella split
# cannot silently break includes.
scripts/check_header_standalone.sh

if [[ "$mode" == "analyze" ]]; then
  echo "== analyze 1/4: project linter (scripts/pta_lint.py) =="
  python3 scripts/pta_lint.py src tests bench examples
  echo "pta_lint: clean"
  python3 scripts/bench_compare.py --self-test
fi

cmake -B "$build_dir" -S . "${cmake_args[@]}"
cmake --build "$build_dir" -j

if [[ "$mode" == "quick-bench" ]]; then
  out=$("$build_dir"/bench/run_all --quick)
  echo "$out"
  # Every stdout line must be one well-formed JSON record.
  echo "$out" | python3 -c '
import json, sys
records = 0
for line in sys.stdin:
    line = line.strip()
    if not line:
        continue
    json.loads(line)  # raises (and fails the step) on malformed output
    records += 1
if records == 0:
    raise SystemExit("run_all emitted no JSON records")
print(f"quick-bench: {records} JSON records, all parse")
'
elif [[ "$mode" == "analyze" ]]; then
  echo "== analyze 2/4: -Werror build + full suite ([[nodiscard]] gate) =="
  (cd "$build_dir" && ctest --output-on-failure -j)

  echo "== analyze 3/4: Clang Thread Safety Analysis =="
  if command -v clang++ >/dev/null 2>&1; then
    cmake -B build-analyze-clang -S . \
      -DCMAKE_CXX_COMPILER=clang++ -DPTA_WERROR=ON -DPTA_THREAD_SAFETY=ON \
      -DPTA_BUILD_BENCHMARKS=OFF -DPTA_BUILD_EXAMPLES=OFF
    cmake --build build-analyze-clang -j
    echo "thread-safety: clean"
  else
    echo "!! =================================================== !!"
    echo "!! SKIPPED: clang++ not installed on this host.         !!"
    echo "!! The -Wthread-safety leg of the gate DID NOT RUN;     !!"
    echo "!! the annotations in src/ are unverified here. Run     !!"
    echo "!! scripts/ci.sh --analyze on a host with clang to get  !!"
    echo "!! full coverage.                                       !!"
    echo "!! =================================================== !!"
  fi

  echo "== analyze 4/4: clang-tidy (curated .clang-tidy profile) =="
  if command -v clang-tidy >/dev/null 2>&1 && command -v clang++ >/dev/null 2>&1; then
    # The clang tree's compile_commands.json avoids gcc-only flags.
    mapfile -t tidy_sources < <(find src -name '*.cc' | sort)
    clang-tidy -p build-analyze-clang --quiet "${tidy_sources[@]}"
    echo "clang-tidy: clean"
  else
    echo "!! =================================================== !!"
    echo "!! SKIPPED: clang-tidy (or clang++) not installed.      !!"
    echo "!! The clang-tidy leg of the gate DID NOT RUN. Install  !!"
    echo "!! clang-tidy for full coverage.                        !!"
    echo "!! =================================================== !!"
  fi
  echo "analyze: done"
else
  (cd "$build_dir" && ctest --output-on-failure "${ctest_args[@]}" -j)
fi

# The library's size, recorded per run so its trend shows in the logs.
echo "src lines: $(git ls-files src | xargs cat | wc -l)"
