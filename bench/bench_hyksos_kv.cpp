// Extension bench: Hyksos (paper §4.1) as an application workload on the
// geo-replicated log — put/get mixes with a skewed key distribution, plus
// get-transaction snapshot cost. Latency measured end to end (append
// through pipeline to durable, or index lookup + read).

#include <chrono>
#include <cstdio>
#include <memory>

#include "apps/hyksos.h"
#include "apps/workload.h"
#include "bench_report.h"
#include "chariots/fabric.h"
#include "common/metrics.h"
#include "common/random.h"
#include "net/inproc_transport.h"

using namespace chariots;
using namespace chariots::geo;
using namespace chariots::apps;

namespace {

void RunMix(double put_fraction, const char* label,
            chariots::bench::BenchReport* report) {
  net::InProcTransport transport;
  TransportFabric fabric(&transport);
  std::vector<std::unique_ptr<Datacenter>> dcs;
  for (uint32_t d = 0; d < 2; ++d) {
    ChariotsConfig config;
    config.dc_id = d;
    config.num_datacenters = 2;
    dcs.push_back(std::make_unique<Datacenter>(config, &fabric));
    (void)dcs.back()->Start();
  }
  Hyksos kv(dcs[0].get());
  // Preload so gets always hit.
  for (int k = 0; k < 100; ++k) {
    (void)kv.Put("key" + std::to_string(k), "v0");
  }

  // YCSB-style workload: zipfian hot keys, configurable mix.
  WorkloadOptions wo;
  wo.num_keys = 100;
  wo.distribution = KeyDistribution::kZipfian;
  wo.put_fraction = put_fraction;
  wo.value_bytes = 64;
  WorkloadGenerator gen(wo);

  metrics::Histogram put_lat, get_lat;  // nanoseconds
  const int kOps = chariots::bench::SmokeMode() ? 800 : 4000;
  auto bench_start = std::chrono::steady_clock::now();
  for (int i = 0; i < kOps; ++i) {
    Op op = gen.Next();
    auto op_start = std::chrono::steady_clock::now();
    if (op.type == OpType::kPut) {
      (void)kv.Put(op.key, op.value);
    } else {
      (void)kv.Get(op.key);
    }
    auto op_nanos = std::chrono::duration_cast<std::chrono::nanoseconds>(
                        std::chrono::steady_clock::now() - op_start)
                        .count();
    report->AddLatencyNanos(op_nanos);
    (op.type == OpType::kPut ? put_lat : get_lat)
        .Record(static_cast<uint64_t>(op_nanos));
  }
  double secs = std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - bench_start)
                    .count();

  // One get transaction over 10 keys for the snapshot cost.
  std::vector<std::string> keys;
  for (int k = 0; k < 10; ++k) keys.push_back("key" + std::to_string(k));
  auto txn_start = std::chrono::steady_clock::now();
  (void)kv.GetTxn(keys);
  double txn_us = std::chrono::duration<double, std::micro>(
                      std::chrono::steady_clock::now() - txn_start)
                      .count();

  const metrics::HistogramStats put = put_lat.Stats();
  const metrics::HistogramStats get = get_lat.Stats();
  std::printf("%-14s %-12.0f put p50/p99: %6.0f/%-8.0f get p50/p99: "
              "%6.0f/%-8.0f getTxn(10): %.0f us\n",
              label, kOps / secs, put.p50 / 1e3, put.p99 / 1e3,
              get.p50 / 1e3, get.p99 / 1e3, txn_us);
  report->AddStage(label, kOps / secs);
  if (put_fraction == 0.5) report->SetThroughput(kOps / secs);
  report->AddExtra(std::string("put_p99_us_") + label, put.p99 / 1e3);
  report->AddExtra(std::string("get_p99_us_") + label, get.p99 / 1e3);
  for (auto& dc : dcs) dc->Stop();
}

}  // namespace

int main() {
  std::printf("=== Hyksos key-value workloads (2 DCs, 100 keys, latencies "
              "in microseconds) ===\n");
  std::printf("%-14s %-12s\n", "Mix", "ops/s");
  chariots::bench::BenchReport report("hyksos_kv");
  RunMix(0.05, "get_heavy", &report);
  RunMix(0.5, "mixed_50_50", &report);
  RunMix(0.95, "put_heavy", &report);
  std::printf("\nExpected shape: get-heavy mixes are faster (index lookup "
              "+ local read); puts pay the full pipeline (token step + "
              "maintainer write) for durability.\n");
  if (!report.Write()) return 1;
  return 0;
}
