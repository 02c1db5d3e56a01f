// Figure 8 reproduction: cumulative FLStore append throughput while the
// number of real log maintainers grows, each driven in closed loop by its
// own client thread (bench/maintainer_load.h).
//
// Paper shape: near-linear scaling (99.3% of perfect at 10 maintainers on
// the private cloud): post-assignment has no cross-maintainer dependency.
// Here every maintainer and client shares one host, so scaling can hold
// only up to about half the host's cores.

#include <algorithm>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench_report.h"
#include "maintainer_load.h"

int main() {
  std::printf("=== Figure 8: FLStore append throughput vs number of "
              "maintainers (closed loop, %u cores) ===\n",
              std::thread::hardware_concurrency());
  std::printf("%-13s %-22s %-20s %s\n", "Maintainers",
              "Throughput (appends/s)", "Per maintainer", "Scaling");
  std::vector<uint32_t> widths = {1, 2, 3, 4, 6, 8};
  if (chariots::bench::SmokeMode()) widths = {1, 2};
  chariots::bench::BenchReport report("fig8_flstore_scaling");
  double base = 0, peak = 0;
  for (uint32_t m : widths) {
    chariots::bench::MaintainerLoad load =
        chariots::bench::RunMaintainerLoad(m, 1000, 0);
    const double rate = load.achieved_rps;
    if (m == 1) {
      base = rate;
      // latency_ns is one AppendBatch on a lone maintainer.
      for (int64_t nanos : load.batch_nanos) report.AddLatencyNanos(nanos);
    }
    std::printf("%-13u %-22.0f %-20.0f %.1f%%\n", m, rate, rate / m,
                base > 0 ? rate / (base * m) * 100 : 0);
    report.AddStage("maintainers_" + std::to_string(m), rate);
    peak = std::max(peak, rate);
  }
  report.SetThroughput(peak);
  if (!report.Write()) return 1;
  return 0;
}
