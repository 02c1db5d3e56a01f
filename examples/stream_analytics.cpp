// Multi-datacenter event processing (paper §4.2, Photon-style): click
// streams originate at three datacenters; a reader at one datacenter joins
// them all off the shared log with exactly-once accounting, checkpoints
// its offset INTO the log, crashes, and a replacement resumes without
// double counting.
//
//   ./build/examples/stream_analytics

#include <cstdio>
#include <memory>
#include <vector>

#include "apps/stream.h"
#include "chariots/fabric.h"
#include "net/inproc_transport.h"

using namespace chariots;
using namespace chariots::geo;
using namespace chariots::apps;

int main() {
  net::InProcTransport transport;
  TransportFabric fabric(&transport);
  std::vector<std::unique_ptr<Datacenter>> dcs;
  for (uint32_t d = 0; d < 3; ++d) {
    ChariotsConfig config;
    config.dc_id = d;
    config.num_datacenters = 3;
    dcs.push_back(std::make_unique<Datacenter>(config, &fabric));
    if (!dcs.back()->Start().ok()) return 1;
  }

  // Publishers: one per datacenter, each reporting clicks on pages.
  const char* pages[] = {"home", "cart", "checkout"};
  for (uint32_t d = 0; d < 3; ++d) {
    EventPublisher publisher(dcs[d].get(), "clicks");
    for (int i = 0; i < 6; ++i) {
      if (!publisher.Publish(pages[(d + i) % 3]).ok()) return 1;
    }
    std::printf("dc%u published 6 click events\n", d);
  }

  // Wait for all 18 events to reach dc0.
  for (uint32_t d = 0; d < 3; ++d) {
    dcs[0]->WaitForToid(d, 6, 5'000'000'000);
  }

  // The analytics job at dc0: consume, aggregate, checkpoint, "crash".
  CountingAggregator counts;
  {
    EventReader reader(dcs[0].get(), "clicks", "analytics");
    auto events = reader.Poll(10);  // first part of the stream
    size_t fresh = counts.Consume(events);
    std::printf("reader consumed %zu events, checkpointing at lid %llu\n",
                fresh, static_cast<unsigned long long>(reader.cursor()));
    if (!reader.Checkpoint().ok()) return 1;
    // crash: reader destroyed with work beyond the checkpoint unprocessed
  }

  // Failover: a new reader in the same group resumes from the durable
  // checkpoint; the aggregator's lid-dedup makes processing exactly-once.
  EventReader reader2(dcs[0].get(), "clicks", "analytics");
  std::printf("replacement reader restored cursor %llu from the log\n",
              static_cast<unsigned long long>(reader2.cursor()));
  size_t fresh = counts.Consume(reader2.Poll(100));
  std::printf("replacement consumed %zu further events\n", fresh);

  std::printf("join result across 3 datacenters (%llu events total):\n",
              static_cast<unsigned long long>(counts.total()));
  for (const char* page : pages) {
    std::printf("  %-9s %llu clicks\n", page,
                static_cast<unsigned long long>(counts.CountFor(page)));
  }
  bool exactly_once = counts.total() == 18;
  std::printf("exactly-once accounting: %s\n",
              exactly_once ? "yes (18/18)" : "VIOLATED");

  for (auto& dc : dcs) dc->Stop();
  return exactly_once ? 0 : 1;
}
