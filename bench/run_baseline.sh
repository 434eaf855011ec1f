#!/usr/bin/env bash
#===- bench/run_baseline.sh - Record a perf baseline ---------------------===#
#
# Part of the swa-sched project.
#
# Runs the perf-relevant benchmark binaries with --metrics (so engine
# counters land next to each wall-time point) and merges the per-binary
# --benchmark_out JSON into one baseline file at the repo root. Each
# benchmark entry is tagged with the binary it came from.
#
#   $ bench/run_baseline.sh [--report] [--record out-file] [build-dir] [out-file]
#
# Defaults: build-dir = build, out-file = BENCH_PR5.json. Commit the output
# so later PRs can compare against a recorded trajectory. --record names
# the output without displacing the build-dir positional — the PR 7
# baseline was recorded with
#   bench/run_baseline.sh --record BENCH_PR7.json build-release
# and compared against its predecessor with
#   bench/compare_bench.py BENCH_PR5.json BENCH_PR7.json
# (compare_bench.py resolves bare baseline names at the repo root).
#
# --report additionally runs examples/config_search and
# examples/sensitivity with --report-out and writes their machine-readable
# obs::RunReports next to the baseline (out-file with .json replaced by
# .report.json and .sensitivity.report.json). compare_bench.py auto-detects
# two such reports and diffs cache hit rates, the stop-reason mix, and
# per-phase nanos. config_search legitimately exits 2 when the seed has no
# schedulable layout (sensitivity: when the base verdict is undecided);
# only a real error (exit 1) aborts the recording.
#
# The build directory must be configured Release: the script checks
# CMakeCache.txt up front (configuring one if the directory is missing)
# and additionally refuses to record a run whose benchmark context says
# the measured code was compiled with assertions on. Two context keys
# matter: our own "swa_build_type" (NDEBUG state of the bench binary and
# the statically linked swa libraries — the code actually measured) and
# google-benchmark's "library_build_type". The latter describes only the
# prebuilt libbenchmark; on Debian that library ships without NDEBUG and
# self-reports "debug" even under -DCMAKE_BUILD_TYPE=Release, so it is a
# hard error only when swa_build_type is absent (pre-PR5 binaries).
# BENCH_PR2.json was recorded from a debug build exactly because nothing
# enforced this; BENCH_PR5.json supersedes it as the trajectory baseline.
#
#===----------------------------------------------------------------------===#
set -euo pipefail

REPORT=0
RECORD=""
while :; do
  case "${1:-}" in
  --report)
    REPORT=1
    shift
    ;;
  --record)
    if [ -z "${2:-}" ]; then
      echo "error: --record needs an output file name" >&2
      exit 2
    fi
    RECORD="$2"
    shift 2
    ;;
  *)
    break
    ;;
  esac
done
BUILD="${1:-build}"
OUT="${2:-${RECORD:-BENCH_PR5.json}}"
ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BENCHES=(bench_table1 bench_engine bench_scale bench_schedtool bench_sensitivity
         bench_construction)

CACHE="$ROOT/$BUILD/CMakeCache.txt"
if [ ! -f "$CACHE" ]; then
  echo "== configuring $BUILD (Release) ==" >&2
  cmake -S "$ROOT" -B "$ROOT/$BUILD" -DCMAKE_BUILD_TYPE=Release >&2
  CACHE="$ROOT/$BUILD/CMakeCache.txt"
fi
BUILD_TYPE="$(sed -n 's/^CMAKE_BUILD_TYPE:[^=]*=//p' "$CACHE")"
if [ "$BUILD_TYPE" != "Release" ] && [ "$BUILD_TYPE" != "RelWithDebInfo" ]; then
  echo "error: $BUILD is configured as '${BUILD_TYPE:-<empty>}', not Release." >&2
  echo "A perf baseline from a debug build is not comparable; reconfigure:" >&2
  echo "  cmake -S . -B $BUILD -DCMAKE_BUILD_TYPE=Release" >&2
  exit 1
fi

TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT

# Refuse to record measurements the binary itself marks as debug. A
# missing swa_build_type means the binary predates the key — fall back
# to google-benchmark's library_build_type, which is then the only
# signal available.
check_context() { # <json> <name>
  local SWA LIB
  SWA="$(jq -r '.context.swa_build_type // empty' "$1")"
  LIB="$(jq -r '.context.library_build_type // empty' "$1")"
  if [ -n "$SWA" ]; then
    if [ "$SWA" != "release" ]; then
      echo "error: $2 reports swa_build_type=$SWA; refusing to record." >&2
      exit 1
    fi
  elif [ "$LIB" = "debug" ]; then
    echo "error: $2 reports library_build_type=debug and carries no" >&2
    echo "swa_build_type key; refusing to record a debug baseline." >&2
    exit 1
  fi
}

for B in "${BENCHES[@]}"; do
  BIN="$ROOT/$BUILD/bench/$B"
  if [ ! -x "$BIN" ]; then
    echo "error: $BIN not built (run: cmake --build $BUILD -j)" >&2
    exit 1
  fi
  echo "== $B ==" >&2
  "$BIN" --metrics --benchmark_out="$TMP/$B.json" \
    --benchmark_out_format=json >&2
  check_context "$TMP/$B.json" "$B"
  jq --arg bin "$B" \
    '.benchmarks = [.benchmarks[]? + {binary: $bin}]' \
    "$TMP/$B.json" > "$TMP/$B.tagged.json"
done

TAGGED=()
for B in "${BENCHES[@]}"; do
  TAGGED+=("$TMP/$B.tagged.json")
done
jq -s '{context: .[0].context, benchmarks: (map(.benchmarks) | add)}' \
  "${TAGGED[@]}" > "$ROOT/$OUT"
echo "wrote $ROOT/$OUT" >&2

if [ "$REPORT" = 1 ]; then
  SEARCH="$ROOT/$BUILD/examples/config_search"
  if [ ! -x "$SEARCH" ]; then
    echo "error: $SEARCH not built (run: cmake --build $BUILD -j)" >&2
    exit 1
  fi
  REPORT_OUT="${OUT%.json}.report.json"
  echo "== config_search run report ==" >&2
  # Exit 2 = searched cleanly but found nothing schedulable; the report is
  # still written and still comparable. Only exit 1 is a real failure.
  RC=0
  "$SEARCH" --workers 2 --report-out "$ROOT/$REPORT_OUT" >&2 || RC=$?
  if [ "$RC" != 0 ] && [ "$RC" != 2 ]; then
    echo "error: config_search failed (exit $RC)" >&2
    exit "$RC"
  fi
  jq -e '.swa_run_report == 1' "$ROOT/$REPORT_OUT" > /dev/null
  echo "wrote $ROOT/$REPORT_OUT" >&2

  SENS="$ROOT/$BUILD/examples/sensitivity"
  if [ ! -x "$SENS" ]; then
    echo "error: $SENS not built (run: cmake --build $BUILD -j)" >&2
    exit 1
  fi
  SENS_OUT="${OUT%.json}.sensitivity.report.json"
  echo "== sensitivity run report ==" >&2
  # Exit 2 = the base verdict was undecided (a guard rail fired); the
  # report is still written. Only exit 1 is a real failure.
  RC=0
  "$SENS" --workers 2 --report-out "$ROOT/$SENS_OUT" >&2 || RC=$?
  if [ "$RC" != 0 ] && [ "$RC" != 2 ]; then
    echo "error: sensitivity failed (exit $RC)" >&2
    exit "$RC"
  fi
  jq -e '.swa_run_report == 1' "$ROOT/$SENS_OUT" > /dev/null
  echo "wrote $ROOT/$SENS_OUT" >&2
fi
