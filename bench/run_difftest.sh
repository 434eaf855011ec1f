#!/usr/bin/env bash
#===- bench/run_difftest.sh - Differential campaign smoke gate -----------===#
#
# Part of the swa-sched project.
#
# Runs the fixed-seed 200-configuration differential campaign (the same
# seed the DiffTest acceptance test pins) and fails when any oracle pair
# mismatches. Part of the tier-1 gate: a clean exit means the simulator,
# the bytecode VM, the tree interpreter, the analytic RTA and the model
# checker still agree on everything the adversarial generator can draw.
#
#   $ bench/run_difftest.sh [build-dir] [configs] [seed]
#
# Defaults: build-dir = build, configs = 200, seed = 20260806. Reproducer
# bundles for any mismatch are written to a temporary directory and
# printed, so a red run is immediately replayable with examples/replay.
#
#===----------------------------------------------------------------------===#
set -euo pipefail

BUILD="${1:-build}"
CONFIGS="${2:-200}"
SEED="${3:-20260806}"
ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BIN="$ROOT/$BUILD/examples/difftest_campaign"

# The campaign is wall-clock bounded per simulation; a debug build can
# push honest configs over the budget and report phantom mismatches.
# Configure Release before trusting a red run.
CACHE="$ROOT/$BUILD/CMakeCache.txt"
if [ ! -f "$CACHE" ]; then
  echo "== configuring $BUILD (Release) ==" >&2
  cmake -S "$ROOT" -B "$ROOT/$BUILD" -DCMAKE_BUILD_TYPE=Release >&2
  CACHE="$ROOT/$BUILD/CMakeCache.txt"
fi
BUILD_TYPE="$(sed -n 's/^CMAKE_BUILD_TYPE:[^=]*=//p' "$CACHE")"
if [ "$BUILD_TYPE" != "Release" ] && [ "$BUILD_TYPE" != "RelWithDebInfo" ]; then
  echo "error: $BUILD is configured as '${BUILD_TYPE:-<empty>}', not Release." >&2
  echo "Reconfigure: cmake -S . -B $BUILD -DCMAKE_BUILD_TYPE=Release" >&2
  exit 1
fi

if [ ! -x "$BIN" ]; then
  echo "error: $BIN not built (run: cmake --build $BUILD -j)" >&2
  exit 1
fi

OUT="$(mktemp -d)"
STATUS=0
"$BIN" --seed "$SEED" --configs "$CONFIGS" --out "$OUT" || STATUS=$?

if [ "$STATUS" -ne 0 ]; then
  echo "differential campaign FAILED (exit $STATUS); reproducers:" >&2
  ls -l "$OUT"/repro-*.xml >&2 || true
  echo "replay with: $ROOT/$BUILD/examples/replay <bundle>" >&2
  exit "$STATUS"
fi
rm -rf "$OUT"
echo "differential campaign clean (seed=$SEED configs=$CONFIGS)" >&2
