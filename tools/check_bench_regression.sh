#!/usr/bin/env bash
# Compares fresh BENCH_*.json reports against the committed baselines in
# bench/baselines/ and fails on regressions outside the tolerance band.
#
#   tools/check_bench_regression.sh FRESH_DIR [BASELINE_DIR]
#
# Baselines are smoke-mode numbers from one reference machine, so the bands
# are deliberately wide — the gate catches order-of-magnitude regressions
# (a stage gone serial, an accidental fsync, a lock on the hot path), not
# single-digit drift:
#
#   CHARIOTS_BENCH_TOLERANCE    max fractional throughput drop (default 0.6:
#                               fail only below 40% of baseline)
#   CHARIOTS_BENCH_LAT_FACTOR   max p99 latency growth factor (default 4.0)
#
# A baseline bench with no fresh report fails (a bench silently vanished);
# a fresh bench with no baseline is reported but passes (new bench — commit
# its report to bench/baselines/ to start gating it).
set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
FRESH_DIR="${1:?usage: check_bench_regression.sh FRESH_DIR [BASELINE_DIR]}"
BASELINE_DIR="${2:-$ROOT/bench/baselines}"

if [ ! -d "$BASELINE_DIR" ] || ! ls "$BASELINE_DIR"/BENCH_*.json >/dev/null 2>&1; then
  echo "no baselines in $BASELINE_DIR — nothing to compare" >&2
  exit 0
fi

python3 - "$BASELINE_DIR" "$FRESH_DIR" <<'EOF'
import glob, json, os, sys

baseline_dir, fresh_dir = sys.argv[1], sys.argv[2]
tolerance = float(os.environ.get("CHARIOTS_BENCH_TOLERANCE", "0.6"))
lat_factor = float(os.environ.get("CHARIOTS_BENCH_LAT_FACTOR", "4.0"))

failures, notes = [], []

def load(path):
    with open(path) as f:
        return json.load(f)

baselines = sorted(glob.glob(os.path.join(baseline_dir, "BENCH_*.json")))
for base_path in baselines:
    name = os.path.basename(base_path)
    fresh_path = os.path.join(fresh_dir, name)
    if not os.path.exists(fresh_path):
        failures.append(f"{name}: baseline exists but no fresh report was "
                        "produced (bench removed or crashed?)")
        continue
    base, fresh = load(base_path), load(fresh_path)

    b_tp, f_tp = base.get("throughput_rps", 0), fresh.get("throughput_rps", 0)
    if b_tp > 0:
        floor = (1.0 - tolerance) * b_tp
        if f_tp < floor:
            failures.append(
                f"{name}: throughput {f_tp:.0f} rps below the regression "
                f"floor {floor:.0f} (baseline {b_tp:.0f}, tolerance "
                f"{tolerance:.0%})")

    b_p99 = base.get("latency_ns", {}).get("p99", 0)
    f_p99 = fresh.get("latency_ns", {}).get("p99", 0)
    b_samples = base.get("latency_samples", 0)
    f_samples = fresh.get("latency_samples", 0)
    if b_p99 > 0 and b_samples > 0 and f_samples > 0:
        ceil = lat_factor * b_p99
        if f_p99 > ceil:
            failures.append(
                f"{name}: p99 latency {f_p99} ns above the regression "
                f"ceiling {ceil:.0f} (baseline {b_p99}, factor "
                f"{lat_factor:g}x)")
    # Structural zero-copy gate for the I/O engine bench: copy counters
    # are machine-independent, so unlike throughput they get a hard bound
    # rather than a tolerance band against the baseline.
    if name == "BENCH_io_engine.json":
        fx = fresh.get("extra", {})
        cpr = fx.get("copies_per_record", -1)
        if not 0 < cpr <= 1.2:
            failures.append(f"{name}: copies_per_record {cpr:.2f} outside "
                            "(0, 1.2]")
    status = "FAIL" if any(f.startswith(name) for f in failures) else "ok"
    print(f"{status}: {name} throughput {f_tp:.0f}/{b_tp:.0f} rps, "
          f"p99 {f_p99}/{b_p99} ns")

known = {os.path.basename(p) for p in baselines}
for fresh_path in sorted(glob.glob(os.path.join(fresh_dir, "BENCH_*.json"))):
    name = os.path.basename(fresh_path)
    if name not in known:
        notes.append(f"{name}: no baseline yet — commit this report to "
                     "bench/baselines/ to start gating it")

for note in notes:
    print(f"note: {note}")
if failures:
    print("\n".join(failures), file=sys.stderr)
    sys.exit(1)
print("bench regression check OK "
      f"({len(baselines)} baselines within tolerance)")
EOF
