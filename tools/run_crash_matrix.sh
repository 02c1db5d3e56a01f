#!/usr/bin/env bash
# Sweeps the crash/failover suite across a seed matrix — {disk-fault
# schedule x crash window x failover x dropped-VAL replay x controller
# kill x partition window x Hermes delivery order} — then runs one pass
# under ThreadSanitizer. Every seeded scenario asserts exact recovery
# (no lost acked record, no duplicate, holes junk-filled, acked-but-
# unvalidated writes replayed), so a failure is a real divergence.
#
# Seeds run in PARALLEL (one job per seed, bounded by CHARIOTS_MATRIX_JOBS,
# default = nproc) and the sweep runs to completion instead of stopping at
# the first failure: the summary table at the end lists every failed seed
# with the exact replay command, so one flaky seed doesn't hide another.
#
#   tools/run_crash_matrix.sh                 # seeds 0..199 + one TSan pass
#   tools/run_crash_matrix.sh 50              # seeds 0..49
#   CHARIOTS_MATRIX_JOBS=8 tools/run_crash_matrix.sh
#   CHARIOTS_FAULT_SKIP_TSAN=1 tools/run_crash_matrix.sh   # seeds only
#
# Each seed offsets every scenario's base seed (see ScenarioSeed in
# tests/replication_test.cc), varying the kill point, orphan count,
# dropped-VAL position, and disk-fault draws while keeping every run fully
# reproducible.
set -uo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BUILD_DIR="$ROOT/build"

NUM_SEEDS="${1:-200}"
JOBS="${CHARIOTS_MATRIX_JOBS:-$(nproc 2>/dev/null || echo 2)}"

# Seed-sensitive scenarios only: the seeded kill-coordinator failover and
# mid-invalidate replay drills, the kill with two INV rounds open at once
# (overlapping rounds must replay exactly once), the fault-injection recovery paths (torn
# frames, failed fsync, torn sidecar), and the control-plane drills — the
# controller-kill class (leader dies mid-plan; restart/follower resumes
# from the meta WAL) and the partition class (seeded symmetric and
# asymmetric windows: a minority leader must never promote, a healed
# partition converges to one layout), and the Hermes explorer's random
# delivery orders of the shapes past its exhaustive bound (hermes_test).
# The deterministic promotion/fencing tests run once in ctest.
SWEEP=(
  "$BUILD_DIR/tests/replication_test --gtest_filter=*KillPrimaryMidAppend*:*KillCoordinatorMidInvalidate*:*KillCoordinatorWithOverlappingRounds*"
  "$BUILD_DIR/tests/recovery_test --gtest_filter=TombstoneTest.Torn*:TombstoneTest.Failed*:TombstoneTest.Dedup*"
  "$BUILD_DIR/tests/storage_test --gtest_filter=*Seeded*:*Fault*:*Torn*:*Dropped*:*FailedWrite*:*FailedSync*"
  "$BUILD_DIR/tests/controller_ha_test --gtest_filter=*Durability*:*Partition*"
  "$BUILD_DIR/tests/hermes_test --gtest_filter=*Seeded*"
)

cmake -B "$BUILD_DIR" -S "$ROOT" >/dev/null || exit 1
cmake --build "$BUILD_DIR" -j --target replication_test recovery_test \
  storage_test controller_ha_test hermes_test || exit 1

LOG_DIR="$(mktemp -d "${TMPDIR:-/tmp}/chariots_crash_matrix.XXXXXX")"
trap 'rm -rf "$LOG_DIR"' EXIT

# One seed, all sweep scenarios. Writes its log to $LOG_DIR/seed-N.log and,
# on failure, the failing command to $LOG_DIR/seed-N.fail. Each seed gets a
# private TMPDIR: the disk-recovery tests create fixed-name scratch dirs
# under std::filesystem::temp_directory_path(), which would collide across
# parallel seeds otherwise.
run_seed() {
  local seed="$1"
  local log="$LOG_DIR/seed-$seed.log"
  local tmp="$LOG_DIR/tmp-$seed"
  mkdir -p "$tmp"
  for cmd in "${SWEEP[@]}"; do
    if ! TMPDIR="$tmp" CHARIOTS_FAULT_SEED="$seed" $cmd --gtest_brief=1 \
         >> "$log" 2>&1; then
      echo "$cmd" > "$LOG_DIR/seed-$seed.fail"
      return 1
    fi
  done
  return 0
}

echo "=== crash matrix: seeds 0..$((NUM_SEEDS - 1)), $JOBS parallel jobs ==="
running=0
for ((seed = 0; seed < NUM_SEEDS; ++seed)); do
  run_seed "$seed" &
  running=$((running + 1))
  if ((running >= JOBS)); then
    wait -n || true  # failures are collected from the .fail markers below
    running=$((running - 1))
  fi
done
wait || true

# Per-seed summary: one row per failed seed with the replay command, so a
# sweep with several divergent seeds reports all of them in one run.
FAILED_SEEDS=()
for ((seed = 0; seed < NUM_SEEDS; ++seed)); do
  [ -f "$LOG_DIR/seed-$seed.fail" ] && FAILED_SEEDS+=("$seed")
done

if ((${#FAILED_SEEDS[@]} > 0)); then
  echo ""
  echo "=== crash matrix summary: ${#FAILED_SEEDS[@]}/$NUM_SEEDS seeds FAILED ===" >&2
  printf '%-8s %s\n' "seed" "replay command" >&2
  for seed in "${FAILED_SEEDS[@]}"; do
    printf '%-8s CHARIOTS_FAULT_SEED=%s %s\n' "$seed" "$seed" \
      "$(cat "$LOG_DIR/seed-$seed.fail")" >&2
  done
  echo "" >&2
  echo "--- last log lines of first failure (seed ${FAILED_SEEDS[0]}) ---" >&2
  tail -20 "$LOG_DIR/seed-${FAILED_SEEDS[0]}.log" >&2
  exit 1
fi
echo "crash matrix: all $NUM_SEEDS seeds green"

if [ "${CHARIOTS_FAULT_SKIP_TSAN:-0}" != "1" ]; then
  echo "=== crash matrix: ThreadSanitizer pass ==="
  TSAN_BUILD="$ROOT/build-thread"
  cmake -B "$TSAN_BUILD" -S "$ROOT" -DCHARIOTS_SANITIZE=thread \
        -DCMAKE_BUILD_TYPE=RelWithDebInfo >/dev/null || exit 1
  cmake --build "$TSAN_BUILD" -j --target replication_test \
    controller_ha_test storage_test recovery_test || exit 1
  if ! CHARIOTS_FAULT_SEED=0 "$TSAN_BUILD/tests/replication_test" \
       --gtest_brief=1; then
    echo "CRASH MATRIX FAILED under TSan (seed offset 0)" >&2
    exit 1
  fi
  if ! CHARIOTS_FAULT_SEED=0 "$TSAN_BUILD/tests/controller_ha_test" \
       --gtest_brief=1; then
    echo "CRASH MATRIX FAILED under TSan (control-plane drills," \
         "seed offset 0)" >&2
    exit 1
  fi
  for t in storage_test recovery_test; do
    if ! CHARIOTS_FAULT_SEED=0 "$TSAN_BUILD/tests/$t" --gtest_brief=1; then
      echo "CRASH MATRIX FAILED under TSan ($t)" >&2
      exit 1
    fi
  done
fi

echo "crash matrix: all passes green"
