// Figure 7 reproduction: throughput of ONE real log maintainer while the
// offered load doubles (bench/maintainer_load.h: AppendBatch of 32 x 512 B,
// client paced by a TokenBucket).
//
// Paper shape: achieved throughput tracks the target up to a knee near
// 150K appends/s, then drops and plateaus around 120K under overload. Here
// the sweep stops at the first offered load the maintainer delivers less
// than 90% of; that load's predecessor is the knee.

#include <algorithm>
#include <cstdio>
#include <utility>
#include <vector>

#include "bench_report.h"
#include "maintainer_load.h"

int main() {
  using chariots::bench::RunMaintainerLoad;

  std::printf("=== Figure 7: single-maintainer throughput vs offered load "
              "===\n");
  std::printf("%-22s %-22s %s\n", "Offered (appends/s)",
              "Achieved (appends/s)", "Achieved/offered");

  chariots::bench::BenchReport report("fig7_single_maintainer");
  double peak = 0, knee = 0;
  std::vector<int64_t> knee_nanos;
  for (double offered = 25e3; offered < 1e9; offered *= 2) {
    chariots::bench::MaintainerLoad load = RunMaintainerLoad(1, 1000, offered);
    const double ratio = load.achieved_rps / offered;
    std::printf("%-22.0f %-22.0f %.2f\n", offered, load.achieved_rps, ratio);
    report.AddStage("offered_" + std::to_string(static_cast<int64_t>(offered)),
                    load.achieved_rps);
    peak = std::max(peak, load.achieved_rps);
    if (ratio < 0.9) break;
    knee = offered;
    knee_nanos = std::move(load.batch_nanos);
  }
  // latency_ns is one AppendBatch at the knee.
  for (int64_t nanos : knee_nanos) report.AddLatencyNanos(nanos);
  std::printf("\nKnee: the maintainer keeps up with %.0f appends/s offered; "
              "peak achieved %.0f.\n",
              knee, peak);
  report.SetThroughput(peak);
  report.AddExtra("knee_offered_rps", knee);
  if (!report.Write()) return 1;
  return 0;
}
