// Baseline comparison (paper §1, §2.1, §5.2): a CORFU-style log with a
// centralized sequencer versus FLStore's post-assignment, as storage
// scales out.
//
// Expected shape: CORFU's cumulative throughput is FLAT — capped by the
// sequencer machine no matter how many storage units serve the data path —
// while FLStore grows linearly with maintainers.

#include <atomic>
#include <cstdio>
#include <memory>
#include <thread>
#include <vector>

#include "bench_report.h"
#include "common/rate_limiter.h"
#include "corfu/corfu.h"
#include "flstore/maintainer.h"

namespace {

// Drives a CORFU log with one client thread per storage unit; each unit
// pays `machine_rate` per record through its own bucket, and the sequencer
// is one such machine too (its capacity caps position handout).
double RunCorfu(uint32_t num_units, double machine_rate,
                int64_t duration_nanos) {
  using namespace chariots;
  corfu::Sequencer sequencer(machine_rate);
  std::vector<std::unique_ptr<corfu::StorageUnit>> units;
  std::vector<std::unique_ptr<TokenBucket>> unit_cost;
  std::vector<corfu::StorageUnit*> unit_ptrs;
  for (uint32_t u = 0; u < num_units; ++u) {
    units.push_back(std::make_unique<corfu::StorageUnit>());
    unit_cost.push_back(std::make_unique<TokenBucket>(
        machine_rate, machine_rate / 100, SystemClock::Default()));
    unit_ptrs.push_back(units.back().get());
  }
  corfu::CorfuLog log(&sequencer, unit_ptrs);

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> appended{0};
  std::vector<std::thread> clients;
  std::string payload(512, 'x');
  for (uint32_t c = 0; c < num_units; ++c) {
    clients.emplace_back([&] {
      // Clients reserve small position batches (CORFU's batched sequencer
      // optimization) — the sequencer round trip still gates every append.
      constexpr uint64_t kBatch = 16;
      std::vector<uint64_t> per_unit(num_units);
      while (!stop.load(std::memory_order_relaxed)) {
        corfu::Position first = sequencer.Next(kBatch);
        std::fill(per_unit.begin(), per_unit.end(), 0);
        for (uint64_t i = 0; i < kBatch; ++i) {
          ++per_unit[(first + i) % num_units];
        }
        for (uint32_t u = 0; u < num_units; ++u) {
          if (per_unit[u] > 0) {
            unit_cost[u]->Acquire(static_cast<double>(per_unit[u]));
          }
        }
        for (uint64_t i = 0; i < kBatch; ++i) {
          corfu::Position p = first + i;
          if (unit_ptrs[p % num_units]->Write(p, payload).ok()) {
            appended.fetch_add(1, std::memory_order_relaxed);
          }
        }
      }
    });
  }
  SystemClock::Default()->SleepFor(duration_nanos);
  stop.store(true);
  for (auto& t : clients) t.join();
  return static_cast<double>(appended.load()) * 1e9 /
         static_cast<double>(duration_nanos);
}

// The FLStore column: one client thread per real log maintainer, each
// append paying the same per-unit bucket as a CORFU storage unit. Positions
// are assigned by the maintainers themselves (post-assignment), so no
// sequencer sits on the path.
double RunFLStore(uint32_t num_units, double machine_rate,
                  int64_t duration_nanos) {
  using namespace chariots;
  std::vector<std::unique_ptr<flstore::LogMaintainer>> maintainers;
  std::vector<std::unique_ptr<TokenBucket>> unit_cost;
  for (uint32_t u = 0; u < num_units; ++u) {
    flstore::MaintainerOptions mo;
    mo.index = u;
    mo.journal = flstore::EpochJournal(num_units, 1000);
    mo.store.mode = storage::SyncMode::kMemoryOnly;
    maintainers.push_back(std::make_unique<flstore::LogMaintainer>(mo));
    (void)maintainers.back()->Open();
    unit_cost.push_back(std::make_unique<TokenBucket>(
        machine_rate, machine_rate / 100, SystemClock::Default()));
  }

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> appended{0};
  std::vector<std::thread> clients;
  flstore::LogRecord record;
  record.body.assign(512, 'x');
  // As many records per call as a CORFU client reserves per sequencer trip.
  const std::vector<flstore::LogRecord> batch(16, record);
  for (uint32_t u = 0; u < num_units; ++u) {
    clients.emplace_back([&, u] {
      while (!stop.load(std::memory_order_relaxed)) {
        unit_cost[u]->Acquire(static_cast<double>(batch.size()));
        if (maintainers[u]->AppendBatch(batch).ok()) {
          appended.fetch_add(batch.size(), std::memory_order_relaxed);
        }
      }
    });
  }
  SystemClock::Default()->SleepFor(duration_nanos);
  stop.store(true);
  for (auto& t : clients) t.join();
  return static_cast<double>(appended.load()) * 1e9 /
         static_cast<double>(duration_nanos);
}

}  // namespace

int main() {
  // Every storage unit and the sequencer serve 13.1K records/s: a tenth of
  // the paper's 131K-class machines, so ten units fit on a small host.
  constexpr double kMachineRate = 13'100;
  constexpr int64_t kDuration = 300'000'000;

  std::printf("=== CORFU (central sequencer) vs FLStore (post-assignment) "
              "===\n");
  std::printf("%-16s %-26s %-26s\n", "Storage nodes",
              "CORFU (appends/s)", "FLStore (appends/s)");
  std::vector<uint32_t> widths = {1u, 2u, 4u, 6u, 8u, 10u};
  if (chariots::bench::SmokeMode()) widths = {1u, 4u};
  chariots::bench::BenchReport report("corfu_vs_flstore");
  double last_corfu = 0, last_flstore = 0;
  for (uint32_t n : widths) {
    double corfu_rate = RunCorfu(n, kMachineRate, kDuration);
    double flstore_rate = RunFLStore(n, kMachineRate, kDuration);

    std::printf("%-16u %-26.0f %-26.0f\n", n, corfu_rate, flstore_rate);
    last_corfu = corfu_rate;
    last_flstore = flstore_rate;
  }
  std::printf("\nExpected shape: CORFU flat at the sequencer's ~13.1K cap; "
              "FLStore scales linearly with maintainers.\n");
  report.SetThroughput(last_flstore);
  report.AddStage("corfu", last_corfu);
  report.AddStage("flstore", last_flstore);
  if (!report.Write()) return 1;
  return 0;
}
