#ifndef CHARIOTS_BENCH_MAINTAINER_LOAD_H_
#define CHARIOTS_BENCH_MAINTAINER_LOAD_H_

// Append load on real FLStore log maintainers, shared by the Figure 7 and 8
// benches and the batch-size ablation: one client thread per maintainer
// calls LogMaintainer::AppendBatch with kBatch 512 B records, either in
// closed loop or paced by a TokenBucket at an offered rate. Stores are
// memory-only; nothing models a machine or its capacity, so the rates are
// this host's.

#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "bench_report.h"
#include "common/clock.h"
#include "common/rate_limiter.h"
#include "flstore/maintainer.h"

namespace chariots::bench {

struct MaintainerLoad {
  /// Appends/s summed over the maintainers in the measured window.
  double achieved_rps = 0;
  /// Latency of each AppendBatch call in the measured window.
  std::vector<int64_t> batch_nanos;
};

/// Runs `maintainers` clients against as many maintainers striped by
/// `stripe_batch`. `offered_per_client` > 0 paces each client; 0 runs it in
/// closed loop.
inline MaintainerLoad RunMaintainerLoad(uint32_t maintainers,
                                        uint64_t stripe_batch,
                                        double offered_per_client) {
  constexpr size_t kBatch = 32;
  // Appends between truncations, which bound memory over long sweeps. Kept
  // small so one truncation pause stays far below the 10 ms of burst a
  // paced client can catch up with afterwards.
  constexpr uint64_t kTruncateEvery = 1 << 12;
  Clock* clock = SystemClock::Default();
  const int64_t warm_end =
      clock->NowNanos() + (SmokeMode() ? 50'000'000 : 100'000'000);
  const int64_t end = warm_end + (SmokeMode() ? 100'000'000 : 300'000'000);

  std::vector<std::unique_ptr<flstore::LogMaintainer>> ms;
  for (uint32_t m = 0; m < maintainers; ++m) {
    flstore::MaintainerOptions mo;
    mo.index = m;
    mo.journal = flstore::EpochJournal(maintainers, stripe_batch);
    mo.store.mode = storage::SyncMode::kMemoryOnly;
    ms.push_back(std::make_unique<flstore::LogMaintainer>(mo));
    (void)ms.back()->Open();
  }
  std::atomic<uint64_t> appended{0};
  std::vector<std::vector<int64_t>> nanos(maintainers);
  std::vector<std::thread> clients;
  for (uint32_t m = 0; m < maintainers; ++m) {
    clients.emplace_back([&, m] {
      TokenBucket pace(offered_per_client, offered_per_client / 100, clock);
      flstore::LogRecord record;
      record.body.assign(512, 'x');
      const std::vector<flstore::LogRecord> batch(kBatch, record);
      uint64_t since_truncate = 0;
      for (int64_t now = clock->NowNanos(); now < end;) {
        pace.Acquire(kBatch);
        const int64_t start = clock->NowNanos();
        auto lids = ms[m]->AppendBatch(batch);
        now = clock->NowNanos();
        if (start >= warm_end && now < end && lids.ok()) {
          appended.fetch_add(kBatch, std::memory_order_relaxed);
          nanos[m].push_back(now - start);
        }
        if ((since_truncate += kBatch) >= kTruncateEvery && lids.ok()) {
          since_truncate = 0;
          (void)ms[m]->TruncateBelow(lids->back());
        }
      }
    });
  }
  for (auto& t : clients) t.join();

  MaintainerLoad load;
  load.achieved_rps = appended.load() * 1e9 / (end - warm_end);
  for (auto& v : nanos) {
    load.batch_nanos.insert(load.batch_nanos.end(), v.begin(), v.end());
  }
  return load;
}

}  // namespace chariots::bench

#endif  // CHARIOTS_BENCH_MAINTAINER_LOAD_H_
