// Replicated-read scaling (ISSUE 7): aggregate read throughput of one
// FLStore stripe as the replication factor grows, under the Hermes-style
// protocol where *every* replica serves linearizable reads of validated
// positions (DESIGN.md §12) — versus the primary-only stripe where the
// coordinator is the sole read server.
//
// What replication multiplies in the paper's multi-datacenter setting is
// *serving bandwidth*: a stripe's read capacity is NIC-bound, and each
// replica added is another NIC answering reads. The bench models that with
// a finite per-node outbound link (InProcTransport bandwidth shaping) —
// CPU parallelism is not observable on a small CI box, NIC capacity is.
// The client read-through cache is disabled throughout: server capacity is
// what is being measured.
//
// Extras reported (BENCH_replicated_reads.json):
//   rf3_vs_rf1            aggregate-read speedup at the top reader count
//                         (acceptance bar: >= 2x)
//   rf3_share_member<i>   fraction of RF=3 reads served by each member
//   failover_mttr_ms      append availability gap across a coordinator
//                         kill, repaired by the suspect fast path

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_report.h"
#include "common/executor.h"
#include "flstore/client.h"
#include "flstore/hermes.h"
#include "flstore/service.h"
#include "net/inproc_transport.h"

namespace {

using namespace chariots;
using namespace chariots::flstore;

/// Per-member outbound NIC rate. Read responses serialize onto this link,
/// so one node serves at most kNicBytesPerSec of payload per second — the
/// resource a replica set multiplies. Sanitizer builds model a slower NIC:
/// the instrumented CPU can't push 3x the full rate, and the point of the
/// bench is the NIC staying the bottleneck, not the sanitizer.
#if defined(__SANITIZE_THREAD__) || defined(__SANITIZE_ADDRESS__)
constexpr double kNicBytesPerSec = 1.0 * 1024 * 1024;
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer) || __has_feature(address_sanitizer)
constexpr double kNicBytesPerSec = 1.0 * 1024 * 1024;
#else
constexpr double kNicBytesPerSec = 4.0 * 1024 * 1024;
#endif
#else
constexpr double kNicBytesPerSec = 4.0 * 1024 * 1024;
#endif
/// Hot-record payload size; at 1 KiB per response the NIC caps one node at
/// roughly 4k reads/s (1k/s sanitized), far below what the CPU could push
/// uncapped.
constexpr size_t kPayloadBytes = 1024;

/// Deterministic per-thread mixer (benches avoid rand() for repeatability).
uint64_t Mix(uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdull;
  x ^= x >> 33;
  return x;
}

/// One replicated stripe: a coordinator plus rf-1 replicas, a controller,
/// memory store, heartbeats wired (the MTTR drill needs the suspect path),
/// and an NIC-rate cap on every member's outbound link.
struct Cluster {
  Cluster(int rf, Executor* executor) : transport(nullptr, executor) {
    const net::NodeId coordinator = "dc0/maintainer/0";
    std::vector<net::NodeId> replicas;
    for (int i = 1; i < rf; ++i) {
      replicas.push_back("dc0/replica/" + std::to_string(i));
    }
    members.push_back(coordinator);
    members.insert(members.end(), replicas.begin(), replicas.end());
    for (const net::NodeId& member : members) {
      net::LinkOptions link;
      link.bandwidth_bytes_per_sec = kNicBytesPerSec;
      transport.SetLink(member, "", link);
    }

    ClusterInfo info;
    info.journal = EpochJournal(1, 64);
    info.maintainers = {coordinator};
    info.replicas = {replicas};
    info.fence_epochs = {1};
    ControllerServerOptions cso;
    cso.executor = executor;
    controller = std::make_unique<ControllerServer>(
        &transport, "dc0/controller", info, cso);
    if (!controller->Start().ok()) std::abort();

    auto server_opts = [&](const net::NodeId& node, ReplicaRole role) {
      MaintainerServer::Options so;
      so.node = node;
      so.peers = {coordinator};
      so.executor = executor;
      so.replica.role = role;
      so.replica.epoch = 1;
      if (role == ReplicaRole::kCoordinator) so.replica.peers = replicas;
      so.controller = "dc0/controller";
      return so;
    };
    MaintainerOptions mo;
    mo.index = 0;
    mo.journal = EpochJournal(1, 64);
    mo.store.mode = storage::SyncMode::kMemoryOnly;
    for (const net::NodeId& node : replicas) {
      servers.push_back(std::make_unique<MaintainerServer>(
          &transport, mo, server_opts(node, ReplicaRole::kReplica)));
      if (!servers.back()->Start().ok()) std::abort();
    }
    // Coordinator last: its first INV must find the replicas listening.
    servers.insert(servers.begin(),
                   std::make_unique<MaintainerServer>(
                       &transport, mo,
                       server_opts(coordinator,
                                   rf > 1 ? ReplicaRole::kCoordinator
                                          : ReplicaRole::kSolo)));
    if (!servers.front()->Start().ok()) std::abort();
  }

  ~Cluster() {
    for (auto& server : servers) server->Stop();
    controller->Stop();
  }

  std::unique_ptr<FLStoreClient> NewClient(const std::string& name,
                                           ClientOptions options = {}) {
    options.read_cache_bytes = 0;  // measure server capacity, not the cache
    auto client = std::make_unique<FLStoreClient>(
        &transport, "dc0/client/" + name, "dc0/controller", options);
    if (!client->Start().ok()) std::abort();
    return client;
  }

  net::InProcTransport transport;
  std::vector<net::NodeId> members;  ///< coordinator first, then replicas
  std::unique_ptr<ControllerServer> controller;
  std::vector<std::unique_ptr<MaintainerServer>> servers;  ///< same order
};

struct SweepResult {
  double reads_per_sec = 0;
  /// Successful remote reads per member, summed over the reader clients.
  std::map<net::NodeId, uint64_t> by_node;
};

/// `readers` closed-loop threads, each doing `ops` uniform reads of the
/// preloaded hot set through its own (cache-less) client session.
SweepResult RunReaders(Cluster& cluster, const std::vector<LId>& hot,
                       int readers, uint64_t ops, const std::string& tag) {
  std::vector<std::unique_ptr<FLStoreClient>> clients;
  for (int t = 0; t < readers; ++t) {
    clients.push_back(cluster.NewClient(tag + std::to_string(t)));
  }
  std::atomic<uint64_t> ok{0};
  auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  for (int t = 0; t < readers; ++t) {
    threads.emplace_back([&, t] {
      FLStoreClient* client = clients[t].get();
      uint64_t rng = 0x9e3779b97f4a7c15ull * (t + 1);
      for (uint64_t i = 0; i < ops; ++i) {
        rng = Mix(rng + i);
        if (client->Read(hot[rng % hot.size()]).ok()) {
          ok.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  double secs = std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - start)
                    .count();
  SweepResult out;
  if (secs > 0) out.reads_per_sec = static_cast<double>(ok.load()) / secs;
  for (auto& client : clients) {
    for (const auto& [node, count] : client->reads_by_node()) {
      out.by_node[node] += count;
    }
  }
  return out;
}

/// Kills the coordinator and times the append availability gap: the next
/// append's first attempt fails fast, the synchronous suspect report runs
/// promotion + replay inside the call, and the retry lands on the promoted
/// replica. Returns the gap in milliseconds.
double MeasureFailoverMttr(Cluster& cluster) {
  ClientOptions copts;
  copts.retry.attempt_timeout = std::chrono::milliseconds(200);
  copts.failover_attempts = 30;
  auto client = cluster.NewClient("mttr", copts);
  LogRecord rec;
  rec.body = "pre-kill";
  if (!client->Append(rec).ok()) std::abort();

  auto killed_at = std::chrono::steady_clock::now();
  cluster.servers.front()->Stop();
  rec.body = "post-kill";
  if (!client->Append(rec).ok()) std::abort();
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - killed_at)
      .count();
}

}  // namespace

int main() {
  const bool smoke = chariots::bench::SmokeMode();
  const uint64_t kHotRecords = smoke ? 256 : 1024;
  const uint64_t kOpsPerThread = smoke ? 2'000 : 5'000;
  const std::vector<int> kReaderCounts =
      smoke ? std::vector<int>{2, 4} : std::vector<int>{2, 4, 8};
  const std::vector<int> kReplicationFactors = {1, 2, 3};

  // The transport's token buckets hold one second of burst; blocked strands
  // need real workers, so the whole topology runs on a dedicated pool wide
  // enough that every member can be mid-serialization concurrently.
  Executor exec({.num_threads = 8, .name = "repl-bench"});

  chariots::bench::BenchReport report("replicated_reads");
  std::printf("=== Replicated reads: aggregate throughput vs replication "
              "factor (every replica serves; %.0f MB/s per-node NIC) ===\n",
              kNicBytesPerSec / (1024 * 1024));
  std::printf("%-4s %-8s %-20s %s\n", "rf", "readers", "reads/s",
              "per-member share");

  // rf -> readers -> result, so the speedup and shares come off the same
  // sweep data that was printed.
  std::map<int, std::map<int, SweepResult>> results;
  double peak = 0;
  for (int rf : kReplicationFactors) {
    Cluster cluster(rf, &exec);
    auto loader = cluster.NewClient("loader");
    std::vector<LId> hot;
    hot.reserve(kHotRecords);
    for (uint64_t i = 0; i < kHotRecords; ++i) {
      LogRecord rec;
      rec.body = std::string(kPayloadBytes, 'a' + (i % 26));
      auto lid = loader->Append(rec);
      if (!lid.ok()) std::abort();
      hot.push_back(*lid);
    }
    // Warm past the token-bucket burst (one second of NIC tokens per
    // member): the timed region below then measures steady-state NIC-bound
    // serving, not the free burst.
    {
      const uint64_t warm_reads = static_cast<uint64_t>(
          1.5 * kNicBytesPerSec * rf / kPayloadBytes);
      (void)RunReaders(cluster, hot, /*readers=*/4, warm_reads / 4,
                       "warm" + std::to_string(rf) + "x");
    }
    for (int readers : kReaderCounts) {
      SweepResult r = RunReaders(
          cluster, hot, readers, kOpsPerThread,
          "rd" + std::to_string(rf) + "x" + std::to_string(readers) + "t");
      results[rf][readers] = r;
      peak = std::max(peak, r.reads_per_sec);
      std::string shares;
      uint64_t total = 0;
      for (const auto& [node, count] : r.by_node) total += count;
      for (const net::NodeId& node : cluster.members) {
        double share = total > 0 ? 100.0 * static_cast<double>(
                                               r.by_node[node]) /
                                       static_cast<double>(total)
                                 : 0;
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%s%.0f%%", shares.empty() ? "" : "/",
                      share);
        shares += buf;
      }
      std::printf("%-4d %-8d %-20.0f %s\n", rf, readers, r.reads_per_sec,
                  shares.c_str());
      report.AddStage("rf" + std::to_string(rf) + "/readers" +
                          std::to_string(readers),
                      r.reads_per_sec);
    }
  }

  // Acceptance metric: RF=3 vs RF=1 aggregate reads at the top reader
  // count — three NICs serving instead of one.
  const int top_readers = kReaderCounts.back();
  const SweepResult& rf1 = results[1][top_readers];
  const SweepResult& rf3 = results[3][top_readers];
  double speedup = rf1.reads_per_sec > 0
                       ? rf3.reads_per_sec / rf1.reads_per_sec
                       : 0;
  std::printf("\nrf3 vs rf1 aggregate reads (%d readers): %.2fx "
              "(acceptance bar: 2x)\n",
              top_readers, speedup);
  report.AddExtra("rf3_vs_rf1", speedup);
  {
    uint64_t total = 0;
    for (const auto& [node, count] : rf3.by_node) total += count;
    int member = 0;
    for (const auto& [node, count] : rf3.by_node) {
      report.AddExtra("rf3_share_member" + std::to_string(member++),
                      total > 0 ? static_cast<double>(count) /
                                      static_cast<double>(total)
                                : 0);
    }
  }

  // Failover MTTR drill: kill the RF=2 coordinator mid-stream and time the
  // append availability gap (the suspect fast path, not the lease).
  double mttr_ms = 0;
  {
    Cluster cluster(2, &exec);
    mttr_ms = MeasureFailoverMttr(cluster);
    std::printf("failover append availability gap: %.2f ms "
                "(lease baseline ~86 ms)\n",
                mttr_ms);
  }
  report.AddExtra("failover_mttr_ms", mttr_ms);

  report.SetThroughput(peak);
  if (!report.Write()) return 1;
  return 0;
}
