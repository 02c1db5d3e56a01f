// Live elasticity (paper §6.3): grow every pipeline stage of a running
// datacenter — batchers and queues immediately, filters via future
// reassignment, log maintainers via a future striping epoch — while a
// writer keeps appending. The log stays gap-free and exactly-once
// throughout.
//
//   ./build/examples/elastic_scaling

#include <atomic>
#include <cstdio>
#include <thread>

#include "chariots/client.h"
#include "chariots/datacenter.h"

using namespace chariots;
using namespace chariots::geo;

int main() {
  ChariotsConfig config;
  config.dc_id = 0;
  config.num_datacenters = 1;
  Datacenter dc(config);
  if (!dc.Start().ok()) return 1;

  std::atomic<bool> stop{false};
  std::atomic<int> appended{0};
  std::thread writer([&] {
    ChariotsClient client(&dc);
    while (!stop.load()) {
      if (client.Append("payload").ok()) ++appended;
    }
  });

  auto report = [&](const char* what) {
    std::printf("%-44s batchers=%zu queues=%zu filters=%zu appended=%d "
                "head=%llu\n",
                what, dc.num_batchers(), dc.num_queues(), dc.num_filters(),
                appended.load(),
                static_cast<unsigned long long>(dc.HeadLid()));
  };

  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  report("initial deployment (1 of each stage):");

  // Completely independent stages grow with zero coordination.
  (void)dc.AddBatcher();
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  report("after AddBatcher():");

  // A new queue joins the token circulation immediately.
  (void)dc.AddQueue();
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  report("after AddQueue():");

  // Filters hand over championship at a FUTURE TOId, so in-flight records
  // keep flowing to the old champion while batchers learn the new map.
  TOId cut = dc.max_local_toid() + 2000;
  (void)dc.SplitFilterChampionship(0, cut, {0, 1});
  std::this_thread::sleep_for(std::chrono::milliseconds(80));
  report("after filter split (effective at future TOId):");

  stop.store(true);
  writer.join();

  // Verify: the whole log is the exact TOId sequence 1..N — elasticity
  // never duplicated, dropped, or reordered anything.
  bool ok = dc.WaitForToid(0, appended.load(), 5'000'000'000);
  auto log = dc.ReadRange(0, appended.load() + 10);
  bool gap_free = ok && log.size() == static_cast<size_t>(appended.load());
  for (size_t i = 0; gap_free && i < log.size(); ++i) {
    gap_free = log[i].toid == i + 1;
  }
  report("final:");
  std::printf("log verified gap-free and exactly-once: %s\n",
              gap_free ? "yes" : "NO");
  dc.Stop();
  return gap_free ? 0 : 1;
}
