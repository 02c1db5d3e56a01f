// Extension bench: Message Futures commit latency vs WAN round-trip time
// (paper §4.3). An MF transaction's fate is decided once every peer's
// history has crossed once in each direction, so commit latency should
// track the RTT — the property Helios later optimizes toward its lower
// bound.

#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "apps/msgfutures.h"
#include "bench_report.h"
#include "chariots/fabric.h"
#include "common/metrics.h"
#include "net/inproc_transport.h"

using namespace chariots;
using namespace chariots::geo;
using namespace chariots::apps;

namespace {

void RunRtt(int64_t one_way_nanos, chariots::bench::BenchReport* report) {
  net::InProcTransport transport;
  net::LinkOptions wan;
  wan.latency_nanos = one_way_nanos;
  transport.SetLink("geo/", "geo/", wan);
  TransportFabric fabric(&transport);

  std::vector<std::unique_ptr<Datacenter>> dcs;
  for (uint32_t d = 0; d < 2; ++d) {
    ChariotsConfig config;
    config.dc_id = d;
    config.num_datacenters = 2;
    dcs.push_back(std::make_unique<Datacenter>(config, &fabric));
    (void)dcs.back()->Start();
  }
  MessageFutures mf0(dcs[0].get());
  MessageFutures mf1(dcs[1].get());
  mf0.StartBackground(500'000);
  mf1.StartBackground(500'000);

  metrics::Histogram commit_lat;  // nanoseconds
  const int kTxns = chariots::bench::SmokeMode() ? 10 : 30;
  int committed = 0;
  auto bench_start = std::chrono::steady_clock::now();
  for (int i = 0; i < kTxns; ++i) {
    auto txn = mf0.Begin();
    txn.Put("k" + std::to_string(i), "v");
    auto start = std::chrono::steady_clock::now();
    auto outcome = mf0.Commit(txn);
    if (outcome.ok()) {
      auto nanos = std::chrono::duration_cast<std::chrono::nanoseconds>(
                       std::chrono::steady_clock::now() - start)
                       .count();
      commit_lat.Record(static_cast<uint64_t>(nanos));
      report->AddLatencyNanos(nanos);
      ++committed;
    }
  }
  double secs = std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - bench_start)
                    .count();
  const metrics::HistogramStats commit = commit_lat.Stats();
  std::printf("%-18.1f %-20.1f %-16.1f %-16.1f\n", one_way_nanos / 0.5e6,
              commit.mean() / 1e6, commit.p50 / 1e6, commit.p99 / 1e6);
  std::string label = "rtt_ms_" + std::to_string(one_way_nanos / 500'000);
  double rate = secs > 0 ? committed / secs : 0;
  report->AddStage(label, rate);
  if (one_way_nanos == 500'000) report->SetThroughput(rate);
  report->AddExtra("commit_p50_ms_" + label, commit.p50 / 1e6);
  for (auto& dc : dcs) dc->Stop();
}

}  // namespace

int main() {
  std::printf("=== Message Futures commit latency vs WAN RTT (2 DCs) "
              "===\n");
  std::printf("%-18s %-20s %-16s %-16s\n", "RTT (ms)",
              "commit mean (ms)", "p50 (ms)", "p99 (ms)");
  std::vector<int64_t> one_ways = {500'000ll, 2'500'000ll, 5'000'000ll,
                                   10'000'000ll};
  if (chariots::bench::SmokeMode()) one_ways = {500'000ll};
  chariots::bench::BenchReport report("msgfutures_latency");
  for (int64_t one_way : one_ways) {
    RunRtt(one_way, &report);
  }
  std::printf("\nExpected shape: commit latency tracks the round-trip time "
              "(one crossing of histories in each direction), plus pipeline "
              "overhead — the Message Futures cost model the paper cites.\n");
  // Throughput for an MF bench is commits/s at the lowest RTT point.
  if (!report.Write()) return 1;
  return 0;
}
