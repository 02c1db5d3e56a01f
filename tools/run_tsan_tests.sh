#!/usr/bin/env bash
# Builds and runs the tier-1 tests under a sanitizer (default: thread).
#
#   tools/run_tsan_tests.sh              # TSan, all tests
#   tools/run_tsan_tests.sh address      # ASan, all tests
#   tools/run_tsan_tests.sh thread common_test maintainer_test
#   tools/run_tsan_tests.sh thread executor_test net_test  # runtime focus
#
# The full run covers the executor runtime end to end: executor_test
# (scheduler, timers, shutdown races) and net_test (epoll TCP reactor +
# threadless inproc transport) run under the sanitizer along with every
# consumer of the shared pool. It also covers the memory-speed read path:
# read_path_test (tail cache / client read-through cache / version index)
# and the Hermes replication suite in replication_test — the INV/VAL
# broadcast (per-position valid/invalid bits read under shared locks on
# every read), INV rounds completed from whichever thread delivers the
# last ack (overlapping rounds, retries joining an open round),
# read-spreading across coordinator and replicas, the synchronous
# kSuspect fast-path failover, and the seeded kill-coordinator/kill-primary
# drills — whose lock-free HL reads, shared-lock read paths, and
# cross-node promotion races are exactly the code TSan is for. net_test
# races RpcEndpoint::CallAsync timeouts against late responses, and the
# inproc run-to-completion path: requests handled on the sending thread's
# trampoline while a worker drains the same node's queue (FIFO across the
# diversion), self-sends, a blocking Call() inside an in-line handler,
# and Unregister racing in-line delivery. replication_test runs whole
# FLStore appends and reads on client threads (the hand-off gate) and the
# non-blocking dedup-retry replay; fault_injection_test drives the same
# path under seeded drops, duplicates and delays; hermes_test checks the
# same protocol code over every delivery order of small shapes.
#
#   tools/run_tsan_tests.sh thread net_test replication_test \
#       executor_test fault_injection_test      # run-to-completion focus
#
# The durable write path: LogStore and LogMaintainer write and fdatasync
# under a writer mutex while readers take only the readers' lock, the
# token is woken by filter drains instead of a timer, and the executor's
# Submit races its shutdown. storage_test and maintainer_test hold a write
# inside its fdatasync while readers and FillHoles run.
#
#   tools/run_tsan_tests.sh thread storage_test maintainer_test \
#       recovery_test pipeline_test geo_integration_test \
#       executor_test                           # durable write path focus
#
# Senders read the log: the sender reads local records through the
# TOId map and LogMaintainer::Read (tail-cache lookups under its shared
# lock, cold reads off the LogStore) while the token lands and publishes
# records and GC truncates below the horizon.
#
#   tools/run_tsan_tests.sh thread pipeline_test geo_integration_test \
#       recovery_test fault_injection_test read_path_test  # senders read the log
#
# The sender runs its own request: two client threads run their requests
# to the same inproc nodes, replies leave a trampoline once the handler
# released its node, a BlockingWaitScope gives back everything its thread
# claimed, and RpcEndpoint reads its frozen handler tables without a lock.
#
#   tools/run_tsan_tests.sh thread net_test replication_test \
#       fault_injection_test controller_ha_test  # sender runs its own request
#
# Concurrent inline handlers: inline handlers of one node run side by side
# under its shared hold while a queued drain waits for the last holder and
# then diverts inline requests into its queue. On FLStore nodes landings
# are published invalid beside concurrent reads (the post-read validity
# check), two copies of one write race to claim its dedup token, a stale
# VAL races an INV adopting a newer epoch under the epoch lock, and the
# append and read paths load the stripe's membership snapshot while an
# adoption publishes the next one. hermes_test runs the same HermesStripe
# code single-threaded over every delivery order of small shapes.
#
#   tools/run_tsan_tests.sh thread replication_test hermes_test net_test \
#       fault_injection_test read_path_test \
#       controller_ha_test                    # concurrent inline handlers
#
# One landing path: every LogMaintainer landing, pre- or post-assigned,
# plans and marks under a short exclusive hold and writes without the
# readers' lock, while readers, validity checks and Hermes rounds run
# beside it; each call's Landing argument says whether it lands invalid
# and collects the INV batch.
#
#   tools/run_tsan_tests.sh thread maintainer_test storage_test \
#       replication_test fault_injection_test \
#       flstore_integration_test               # one landing path
#
# The message path: senders read the in-process route table with no
# transport-wide lock while Register, Unregister and SetLink publish new
# tables, a bandwidth-limited send races SetLink replacing its bucket,
# fault rules, outages and partitions are installed and cleared while
# traffic flows (the plan's armed flag), RPC calls complete into slots and
# stack waiters, and histograms take concurrent per-thread records.
#
#   tools/run_tsan_tests.sh thread net_test metrics_test \
#       replication_test fault_injection_test \
#       flstore_integration_test               # message path
#
# Uses a separate build dir (build-<sanitizer>) so the regular build is
# untouched.
set -euo pipefail

SANITIZER="${1:-thread}"
shift || true

case "$SANITIZER" in
  thread|address) ;;
  *)
    echo "usage: $0 [thread|address] [test-name ...]" >&2
    exit 2
    ;;
esac

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BUILD_DIR="$ROOT/build-$SANITIZER"

cmake -B "$BUILD_DIR" -S "$ROOT" -DCHARIOTS_SANITIZE="$SANITIZER" \
      -DCMAKE_BUILD_TYPE=RelWithDebInfo
if [ "$#" -gt 0 ]; then
  cmake --build "$BUILD_DIR" -j --target "$@"
  cd "$BUILD_DIR"
  for t in "$@"; do
    echo "=== $t ($SANITIZER) ==="
    "./tests/$t"
  done
else
  cmake --build "$BUILD_DIR" -j
  cd "$BUILD_DIR"
  ctest --output-on-failure -j
  # Bench binaries exercise the full pipeline (threads included) — smoke
  # them under the sanitizer too so data races in the metrics/trace hot
  # paths surface here. Set CHARIOTS_SKIP_BENCH_SMOKE=1 to opt out.
  if [ "${CHARIOTS_SKIP_BENCH_SMOKE:-0}" != "1" ]; then
    # Sanitized builds are far slower than the committed bench baselines,
    # so the baseline regression gate would only measure the sanitizer.
    CHARIOTS_SKIP_BENCH_BASELINES=1 \
      "$ROOT/tools/run_bench_smoke.sh" "build-$SANITIZER"
  fi
fi
