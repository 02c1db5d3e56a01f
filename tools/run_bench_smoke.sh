#!/usr/bin/env bash
# Smoke-runs every bench binary with CHARIOTS_BENCH_SMOKE=1 (shrunk sweeps,
# seconds not minutes) and validates each BENCH_<name>.json against the
# schema in bench/bench_report.h: required fields present, numbers finite,
# stages non-empty, and the runtime thread census within the smoke budget
# (see below). Intended for CI and for the sanitizer flow:
#
#   tools/run_bench_smoke.sh                 # default build dir (./build)
#   tools/run_bench_smoke.sh build-thread    # e.g. after run_tsan_tests.sh
set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BUILD_DIR="$ROOT/${1:-build}"

cmake --build "$BUILD_DIR" -j --target \
  bench_fig7_single_maintainer bench_fig8_flstore_scaling \
  bench_pipeline_shapes bench_corfu_vs_flstore \
  bench_ablation_batch_size bench_ablation_gossip \
  bench_geo_replication bench_hyksos_kv bench_msgfutures_latency \
  bench_read_scaling bench_replicated_reads bench_io_engine bench_micro

OUT_DIR="$(mktemp -d "${TMPDIR:-/tmp}/chariots_bench_smoke.XXXXXX")"
trap 'rm -rf "$OUT_DIR"' EXIT

export CHARIOTS_BENCH_SMOKE=1
export CHARIOTS_BENCH_DIR="$OUT_DIR"

FAILED=0
for bin in "$BUILD_DIR"/bench/bench_*; do
  [ -x "$bin" ] || continue
  name="$(basename "$bin")"
  echo "=== smoke: $name ==="
  if ! "$bin" > "$OUT_DIR/$name.stdout" 2>&1; then
    echo "FAIL: $name exited non-zero" >&2
    tail -5 "$OUT_DIR/$name.stdout" >&2
    FAILED=1
  fi
done

echo "=== validating BENCH_*.json in $OUT_DIR ==="
STATUS=0
python3 - "$OUT_DIR" <<'EOF' || STATUS=1
import glob, json, math, os, sys

out_dir = sys.argv[1]

# Thread-budget check (DESIGN.md §10): every report carries the
# chariots.runtime.threads census (current + peak). The smoke-topology
# budget is the shared executor pool — max(2, min(8, cores)) workers plus
# one timer, bounded by 2x cores (floored at 2) — plus 16 for benches that
# run a private executor beside the shared one (bench_replicated_reads
# starts 8 workers and a timer of its own: 14 threads on 4 cores).
# A bench whose peak exceeds this has regressed to thread-per-loop.
cores = max(2, os.cpu_count() or 1)
thread_budget = int(os.environ.get("CHARIOTS_SMOKE_THREAD_BUDGET",
                                   2 * cores + 16))
paths = sorted(glob.glob(out_dir + "/BENCH_*.json"))
if not paths:
    sys.exit("no BENCH_*.json files produced")

REQUIRED = ["bench", "schema_version", "throughput_rps", "latency_ns",
            "latency_samples", "stages", "extra"]
failures = []

def check_finite(path, key, value):
    if isinstance(value, float) and not math.isfinite(value):
        failures.append(f"{path}: {key} is not finite")

for path in paths:
    try:
        with open(path) as f:
            doc = json.load(f)
    except json.JSONDecodeError as e:
        failures.append(f"{path}: invalid JSON: {e}")
        continue
    for key in REQUIRED:
        if key not in doc:
            failures.append(f"{path}: missing field '{key}'")
    if doc.get("schema_version") != 1:
        failures.append(f"{path}: schema_version != 1")
    check_finite(path, "throughput_rps", doc.get("throughput_rps"))
    lat = doc.get("latency_ns", {})
    for pct in ("p50", "p99", "p999"):
        if pct not in lat:
            failures.append(f"{path}: latency_ns missing '{pct}'")
    stages = doc.get("stages", [])
    if not stages:
        failures.append(f"{path}: stages list is empty")
    for stage in stages:
        if "name" not in stage or "rate_rps" not in stage:
            failures.append(f"{path}: malformed stage entry {stage}")
        else:
            check_finite(path, f"stage {stage['name']}", stage["rate_rps"])
    for key, value in doc.get("extra", {}).items():
        check_finite(path, f"extra {key}", value)
    extra = doc.get("extra", {})
    peak = extra.get("runtime_threads_peak")
    if peak is None:
        failures.append(f"{path}: extra missing 'runtime_threads_peak'")
    elif peak > thread_budget:
        failures.append(
            f"{path}: runtime_threads_peak {peak:.0f} exceeds the smoke "
            f"budget {thread_budget} (thread-per-loop regression?)")
    # The read-scaling bench must report cache efficiency (DESIGN.md §11):
    # a run without hit-rate metrics means the read cache was silently
    # disabled or the metric names drifted.
    if path.endswith("BENCH_read_scaling.json"):
        for key in ("read_cache_hits", "read_cache_misses",
                    "read_cache_hit_rate", "speedup_hot_tail"):
            if key not in extra:
                failures.append(f"{path}: extra missing '{key}'")
        if extra.get("read_cache_hit_rate", 0) <= 0:
            failures.append(f"{path}: read cache hit rate is zero — the "
                            "client read-through cache is not engaging")
    # The replicated-reads bench must show reads actually spreading across
    # the replica set (DESIGN.md §12): every RF=3 member serving a share,
    # an aggregate speedup over primary-only, and a sub-lease failover MTTR.
    if path.endswith("BENCH_replicated_reads.json"):
        for key in ("rf3_vs_rf1", "failover_mttr_ms", "rf3_share_member0",
                    "rf3_share_member1", "rf3_share_member2"):
            if key not in extra:
                failures.append(f"{path}: extra missing '{key}'")
        if extra.get("rf3_vs_rf1", 0) < 2.0:
            failures.append(
                f"{path}: rf3_vs_rf1 {extra.get('rf3_vs_rf1', 0):.2f} below "
                "the 2x acceptance bar — replica reads are not spreading")
        for i in range(3):
            if extra.get(f"rf3_share_member{i}", 0) <= 0:
                failures.append(f"{path}: rf3 member {i} served no reads")
        if not 0 < extra.get("failover_mttr_ms", 0) < 86:
            failures.append(
                f"{path}: failover_mttr_ms "
                f"{extra.get('failover_mttr_ms', 0):.2f} not under the "
                "86 ms lease baseline — the suspect fast path regressed")
    # The pipeline-shapes rows are registry counter deltas (EXPERIMENTS.md,
    # Tables 2-5). GetCounter creates a misspelt name at zero, so a row
    # reading 0 means the bench reads a counter no stage increments.
    if path.endswith("BENCH_pipeline_shapes.json"):
        rates = {s.get("name"): s.get("rate_rps", 0) for s in stages}
        for table in ("table2", "table3", "table4", "table5"):
            for row in ("Batcher", "Filter", "Maintainer"):
                name = f"{table}.{row}"
                if not rates.get(name, 0) > 0:
                    failures.append(
                        f"{path}: stage {name} reads "
                        f"{rates.get(name, 'nothing')}: a misspelt "
                        "counter name, or a stage that passed no records")
    # The I/O engine bench must prove the zero-copy datapath: ~1
    # user-space copy per payload byte on the encode path, and the sync
    # engine honestly counting its flatten pass. These are structural
    # counters, not wall-clock numbers, so they hold on any machine.
    if path.endswith("BENCH_io_engine.json"):
        for key in ("copies_per_record", "storage_copy_fraction_sync"):
            if key not in extra:
                failures.append(f"{path}: extra missing '{key}'")
        cpr = extra.get("copies_per_record", -1)
        if not 0 < cpr <= 1.2:
            failures.append(
                f"{path}: copies_per_record {cpr:.2f} outside (0, 1.2] — "
                "the slice chain stopped borrowing payloads")
        if extra.get("storage_copy_fraction_sync", 0) < 0.5:
            failures.append(
                f"{path}: storage_copy_fraction_sync "
                f"{extra.get('storage_copy_fraction_sync', 0):.2f} below "
                "0.5 — the sync engine's copy accounting broke")
    print(f"ok: {path.rsplit('/', 1)[-1]} "
          f"(throughput {doc.get('throughput_rps'):.0f} rps, "
          f"{len(stages)} stages, {doc.get('latency_samples')} samples, "
          f"peak threads {peak if peak is not None else '?'})")

if failures:
    print("\n".join(failures), file=sys.stderr)
    sys.exit(1)
EOF

if [ "$FAILED" -ne 0 ] || [ "$STATUS" -ne 0 ]; then
  echo "bench smoke FAILED" >&2
  exit 1
fi

# Regression gate against the committed baselines (skippable for runs on
# deliberately slow configurations, e.g. under a sanitizer).
if [ "${CHARIOTS_SKIP_BENCH_BASELINES:-0}" = "1" ]; then
  echo "skipping baseline regression check (CHARIOTS_SKIP_BENCH_BASELINES=1)"
else
  echo "=== comparing against bench/baselines ==="
  "$ROOT/tools/check_bench_regression.sh" "$OUT_DIR" || {
    echo "bench smoke FAILED: baseline regression" >&2
    exit 1
  }
fi
echo "bench smoke OK: all reports schema-valid"
