// Ablation: effect of the FLStore round-robin batch size (records per
// maintainer per round) on raw append throughput and on Head-of-the-Log
// lag under skewed load.
//
// Under skew the unreadable tail (assigned above HL) is dominated by the
// slow maintainer's backlog itself — the batch size only shifts where the
// slow maintainer's next unfilled position lands in the global order
// (lag ~ skew - batch), while making HL advance in coarser strides.

#include <cstdio>
#include <memory>
#include <vector>

#include "bench_report.h"
#include "flstore/maintainer.h"
#include "maintainer_load.h"

namespace {

using namespace chariots;
using namespace chariots::flstore;

// Appends with 2:1 load skew between two maintainers, exchanges gossip,
// and reports how much of the assigned log is above HL (unreadable).
uint64_t HlLagUnderSkew(uint64_t batch, uint64_t appends) {
  std::vector<std::unique_ptr<LogMaintainer>> ms;
  for (uint32_t i = 0; i < 2; ++i) {
    MaintainerOptions o;
    o.index = i;
    o.journal = EpochJournal(2, batch);
    o.store.mode = storage::SyncMode::kMemoryOnly;
    ms.push_back(std::make_unique<LogMaintainer>(o));
    (void)ms.back()->Open();
  }
  LogRecord rec;
  rec.body = "x";
  for (uint64_t i = 0; i < appends; ++i) {
    (void)ms[0]->Append(rec);
    if (i % 2 == 0) (void)ms[1]->Append(rec);  // half the load
  }
  ms[0]->OnGossip(1, ms[1]->FirstUnfilledGlobal());
  ms[1]->OnGossip(0, ms[0]->FirstUnfilledGlobal());
  uint64_t total = ms[0]->count() + ms[1]->count();
  flstore::LId hl = ms[0]->HeadOfLog();
  return total > hl ? total - hl : 0;
}

}  // namespace

int main() {
  std::printf("=== Ablation: FLStore stripe batch size ===\n");
  std::printf("%-12s %-26s %-30s\n", "Batch", "Throughput (appends/s)",
              "Appended-above-HL under 2:1 skew");
  std::vector<uint64_t> batches = {1ull, 10ull, 100ull, 1000ull, 10000ull};
  if (chariots::bench::SmokeMode()) batches = {10ull, 1000ull};
  chariots::bench::BenchReport report("ablation_batch_size");
  double best = 0;
  for (uint64_t batch : batches) {
    // Four maintainers, each appended to in closed loop.
    chariots::bench::MaintainerLoad load =
        chariots::bench::RunMaintainerLoad(4, batch, 0);
    double rate = load.achieved_rps;
    if (batch == 1000) {
      // latency_ns is one AppendBatch at the default stripe batch.
      for (int64_t nanos : load.batch_nanos) report.AddLatencyNanos(nanos);
    }
    uint64_t lag = HlLagUnderSkew(batch, 30'000);
    std::printf("%-12llu %-26.0f %llu records\n",
                static_cast<unsigned long long>(batch), rate,
                static_cast<unsigned long long>(lag));
    if (rate > best) best = rate;
    report.AddStage("batch_" + std::to_string(batch), rate);
    report.AddExtra("hl_lag_batch_" + std::to_string(batch),
                    static_cast<double>(lag));
  }
  report.SetThroughput(best);
  std::printf("\nExpected shape: throughput is flat across batch sizes "
              "(assignment is O(1) either way); the unreadable tail is "
              "dominated by the skew backlog and shrinks only slightly "
              "(~batch) as the batch grows — the cost of large batches is "
              "coarser HL advancement, not throughput.\n");
  if (!report.Write()) return 1;
  return 0;
}
