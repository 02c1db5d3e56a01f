// Extension bench: geo-replication throughput and convergence as the
// replication group grows from 2 to 5 datacenters. Each datacenter appends
// a fixed number of records concurrently; we measure the cumulative rate
// at which records become durable at their host, the time until every
// datacenter has incorporated everything (convergence lag), and the total
// log size per replica.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <thread>
#include <vector>

#include "bench_report.h"
#include "chariots/client.h"
#include "chariots/datacenter.h"
#include "chariots/fabric.h"
#include "net/inproc_transport.h"

namespace {

using namespace chariots;
using namespace chariots::geo;

double RunGroup(uint32_t n, int64_t wan_latency_nanos,
                chariots::bench::BenchReport* report) {
  net::InProcTransport transport;
  net::LinkOptions wan;
  wan.latency_nanos = wan_latency_nanos;
  transport.SetLink("geo/", "geo/", wan);
  TransportFabric fabric(&transport);

  std::vector<std::unique_ptr<Datacenter>> dcs;
  for (uint32_t d = 0; d < n; ++d) {
    ChariotsConfig config;
    config.dc_id = d;
    config.num_datacenters = n;
    dcs.push_back(std::make_unique<Datacenter>(config, &fabric));
    (void)dcs.back()->Start();
  }

  const int kAppendsPerDc = chariots::bench::SmokeMode() ? 500 : 5'000;
  auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> writers;
  for (uint32_t d = 0; d < n; ++d) {
    writers.emplace_back([&, d] {
      ChariotsClient client(dcs[d].get());
      for (int i = 0; i + 1 < kAppendsPerDc; ++i) {
        client.AppendAsync(std::string(128, 'x'));
      }
      (void)client.Append(std::string(128, 'x'));  // final: wait durable
    });
  }
  for (auto& t : writers) t.join();
  auto append_done = std::chrono::steady_clock::now();

  // Convergence: every DC holds every other DC's records.
  bool converged = true;
  for (auto& dc : dcs) {
    for (uint32_t d = 0; d < n; ++d) {
      if (!dc->WaitForToid(d, kAppendsPerDc, 60'000'000'000)) {
        converged = false;
      }
    }
  }
  auto converge_done = std::chrono::steady_clock::now();

  double append_secs =
      std::chrono::duration<double>(append_done - start).count();
  double converge_lag =
      std::chrono::duration<double>(converge_done - append_done).count();
  double local_rate = n * kAppendsPerDc / append_secs;
  std::printf("%-6u %-26.0f %-22.3f %-18llu %s\n", n, local_rate,
              converge_lag,
              static_cast<unsigned long long>(dcs[0]->HeadLid()),
              converged ? "yes" : "NO");
  report->AddStage("dcs_" + std::to_string(n), local_rate);
  report->AddExtra("converge_lag_s_dcs_" + std::to_string(n), converge_lag);
  for (auto& dc : dcs) dc->Stop();
  return local_rate;
}

}  // namespace

int main() {
  std::printf("=== Geo-replication: scaling the replication group "
              "(5K appends per DC, 128 B records, 5 ms WAN) ===\n");
  std::printf("%-6s %-26s %-22s %-18s %s\n", "DCs",
              "Local append rate (rec/s)", "Convergence lag (s)",
              "Log size/replica", "Converged");
  std::vector<uint32_t> groups = {2u, 3u, 4u, 5u};
  if (chariots::bench::SmokeMode()) groups = {2u};
  chariots::bench::BenchReport report("geo_replication");
  double best = 0;
  for (uint32_t n : groups) {
    best = std::max(best, RunGroup(n, 5'000'000, &report));
  }
  std::printf("\nExpected shape: appends stay available and local at every "
              "datacenter; every replica converges to the complete n*5K "
              "log. Absolute rates here are host-bound (this harness runs "
              "n full pipelines on one machine), not a scalability claim — "
              "see Figure 8 for the scaling experiment.\n");
  report.SetThroughput(best);
  if (!report.Write()) return 1;
  return 0;
}
