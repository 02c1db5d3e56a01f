// Multi-datacenter integration tests: replication, causal ordering,
// availability under partition, exactly-once, garbage collection, and a
// property sweep asserting the §3 causality invariants on every replica.

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "chariots/client.h"
#include "chariots/datacenter.h"
#include "chariots/fabric.h"
#include "chariots/geo_service.h"
#include "common/executor.h"
#include "common/metrics.h"
#include "common/random.h"
#include "common/trace.h"
#include "net/inproc_transport.h"
#include "net/tcp_transport.h"

namespace chariots::geo {
namespace {

using namespace std::chrono_literals;

constexpr int64_t kWaitNanos = 5'000'000'000;  // 5 s

uint64_t CounterValue(const char* name) {
  return metrics::Registry::Default().GetCounter(name)->Value();
}

/// A replication group of N datacenters over a simulated WAN.
class GeoCluster {
 public:
  explicit GeoCluster(uint32_t n, int64_t wan_latency_nanos = 0,
                      ChariotsConfig base = {}) {
    fabric_ = std::make_unique<TransportFabric>(&transport_);
    if (wan_latency_nanos > 0) {
      net::LinkOptions wan;
      wan.latency_nanos = wan_latency_nanos;
      transport_.SetLink("geo/", "geo/", wan);
    }
    for (uint32_t d = 0; d < n; ++d) {
      ChariotsConfig config = base;
      config.dc_id = d;
      config.num_datacenters = n;
      config.sender_resend_nanos = 20'000'000; // 20 ms
      dcs_.push_back(std::make_unique<Datacenter>(config, fabric_.get()));
      EXPECT_TRUE(dcs_.back()->Start().ok());
    }
  }

  ~GeoCluster() {
    for (auto& dc : dcs_) dc->Stop();
  }

  Datacenter& dc(uint32_t d) { return *dcs_[d]; }
  net::InProcTransport& transport() { return transport_; }

  /// Waits until every DC has incorporated every record appended anywhere.
  bool AwaitConvergence(int64_t timeout_nanos = kWaitNanos) {
    std::vector<TOId> want(dcs_.size());
    for (size_t d = 0; d < dcs_.size(); ++d) {
      want[d] = dcs_[d]->max_local_toid();
    }
    for (auto& dc : dcs_) {
      for (size_t d = 0; d < dcs_.size(); ++d) {
        if (!dc->WaitForToid(static_cast<DatacenterId>(d), want[d],
                             timeout_nanos)) {
          return false;
        }
      }
    }
    return true;
  }

 private:
  net::InProcTransport transport_;
  std::unique_ptr<TransportFabric> fabric_;
  std::vector<std::unique_ptr<Datacenter>> dcs_;
};

TEST(GeoIntegrationTest, LocalAppendCommits) {
  GeoCluster cluster(1);
  ChariotsClient client(&cluster.dc(0));
  auto r = client.Append("hello", {{"k", "v"}});
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(r->first, 1u);   // first TOId is 1 (paper §6.1)
  EXPECT_EQ(r->second, 0u);  // first LId is 0
  auto read = client.Read(r->second);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read->body, "hello");
  EXPECT_EQ(cluster.dc(0).HeadLid(), 1u);
}

// Acceptance check for the executor runtime: a whole 3-DC geo topology runs
// on a thread budget that is a function of cores, not of topology size.
// Every runtime thread reports to the chariots.runtime.threads census
// (executor workers, timer, TCP reactors, sim machines); an inproc 3-DC
// cluster adds nothing beyond the shared pool.
TEST(GeoIntegrationTest, ThreadBudgetIsOCoresNotOTopology) {
  GeoCluster cluster(3);
  ChariotsClient client(&cluster.dc(0));
  ASSERT_TRUE(client.Append("warm").ok());
  ASSERT_TRUE(cluster.AwaitConvergence());
  uint64_t census = RuntimeThreadCount();
  EXPECT_GT(census, 0u) << "executor workers must be census-registered";
  // Budget (DESIGN.md §10): workers max(2, min(8, cores)) + 1 timer; the
  // 2x-hardware-concurrency ceiling is floored at 2 cores so the bound is
  // meaningful on single-core CI machines.
  uint64_t cores = std::max(2u, std::thread::hardware_concurrency());
  EXPECT_LE(census, 2 * cores)
      << "a 3-DC topology must not grow the thread count past 2x cores";
}

TEST(GeoIntegrationTest, RecordsReplicateToAllDatacenters) {
  GeoCluster cluster(3);
  ChariotsClient client(&cluster.dc(0));
  ASSERT_TRUE(client.Append("from dc0").ok());
  for (uint32_t d = 1; d < 3; ++d) {
    ASSERT_TRUE(cluster.dc(d).WaitForToid(0, 1, kWaitNanos)) << "dc" << d;
    auto records = cluster.dc(d).ReadRange(0, 10);
    ASSERT_EQ(records.size(), 1u);
    EXPECT_EQ(records[0].body, "from dc0");
    EXPECT_EQ(records[0].host, 0u);
    EXPECT_EQ(records[0].toid, 1u);  // TOId identical everywhere
  }
}

TEST(GeoIntegrationTest, PerHostTotalOrderPreservedEverywhere) {
  GeoCluster cluster(2);
  ChariotsClient client(&cluster.dc(0));
  for (int i = 1; i <= 20; ++i) {
    ASSERT_TRUE(client.Append("r" + std::to_string(i)).ok());
  }
  ASSERT_TRUE(cluster.dc(1).WaitForToid(0, 20, kWaitNanos));
  auto records = cluster.dc(1).ReadRange(0, 100);
  ASSERT_EQ(records.size(), 20u);
  for (size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(records[i].toid, i + 1);  // exact host order, no gaps
  }
}

TEST(GeoIntegrationTest, HappenedBeforeAcrossDatacenters) {
  // Paper §3: A appends x; B reads x then appends y. Everywhere, x must be
  // ordered before y.
  GeoCluster cluster(3, /*wan_latency_nanos=*/1'000'000);
  ChariotsClient alice(&cluster.dc(0));
  auto x = alice.Append("x=10");
  ASSERT_TRUE(x.ok());

  ASSERT_TRUE(cluster.dc(1).WaitForToid(0, 1, kWaitNanos));
  ChariotsClient bob(&cluster.dc(1));
  // Bob reads x at his replica (absorbing the dependency), then writes y.
  auto records = cluster.dc(1).ReadRange(0, 10);
  ASSERT_FALSE(records.empty());
  auto x_at_b = bob.Read(records[0].lid);
  ASSERT_TRUE(x_at_b.ok());
  auto y = bob.Append("y=20");
  ASSERT_TRUE(y.ok());

  // Every DC orders x before y in its log.
  for (uint32_t d = 0; d < 3; ++d) {
    ASSERT_TRUE(cluster.dc(d).WaitForToid(1, 1, kWaitNanos)) << "dc" << d;
    auto log = cluster.dc(d).ReadRange(0, 100);
    flstore::LId x_lid = flstore::kInvalidLId, y_lid = flstore::kInvalidLId;
    for (const auto& r : log) {
      if (r.host == 0 && r.toid == 1) x_lid = r.lid;
      if (r.host == 1 && r.toid == 1) y_lid = r.lid;
    }
    ASSERT_NE(x_lid, flstore::kInvalidLId) << "dc" << d;
    ASSERT_NE(y_lid, flstore::kInvalidLId) << "dc" << d;
    EXPECT_LT(x_lid, y_lid) << "dc" << d;
  }
}

TEST(GeoIntegrationTest, AvailabilityUnderPartition) {
  GeoCluster cluster(2);
  cluster.transport().Partition("geo/dc0", "geo/dc1");

  // Both sides keep accepting appends (AP choice, paper §1).
  ChariotsClient a(&cluster.dc(0));
  ChariotsClient b(&cluster.dc(1));
  ASSERT_TRUE(a.Append("during partition at 0").ok());
  ASSERT_TRUE(b.Append("during partition at 1").ok());
  EXPECT_EQ(cluster.dc(0).HeadLid(), 1u);
  EXPECT_EQ(cluster.dc(1).HeadLid(), 1u);
  // Nothing crossed the partition.
  EXPECT_EQ(cluster.dc(0).atable().Get(0, 1), 0u);

  // Heal: senders retransmit and both sides converge.
  cluster.transport().Heal("geo/dc0", "geo/dc1");
  EXPECT_TRUE(cluster.AwaitConvergence());
  EXPECT_EQ(cluster.dc(0).HeadLid(), 2u);
  EXPECT_EQ(cluster.dc(1).HeadLid(), 2u);
}

TEST(GeoIntegrationTest, ExactlyOnceUnderMessageLoss) {
  GeoCluster cluster(2);
  // 30% loss both ways: retransmissions produce duplicates, which must be
  // absorbed by the filters/queues (exactly-once incorporation, paper §1).
  net::LinkOptions lossy;
  lossy.drop_probability = 0.3;
  cluster.transport().SetLink("geo/dc0", "geo/dc1", lossy);
  cluster.transport().SetLink("geo/dc1", "geo/dc0", lossy);

  ChariotsClient client(&cluster.dc(0));
  for (int i = 1; i <= 30; ++i) {
    ASSERT_TRUE(client.Append("r" + std::to_string(i)).ok());
  }
  ASSERT_TRUE(cluster.AwaitConvergence(20'000'000'000));
  auto records = cluster.dc(1).ReadRange(0, 1000);
  ASSERT_EQ(records.size(), 30u);
  std::set<TOId> toids;
  for (const auto& r : records) {
    EXPECT_TRUE(toids.insert(r.toid).second) << "duplicate toid " << r.toid;
  }
}

TEST(GeoIntegrationTest, GarbageCollectionAfterUniversalKnowledge) {
  ChariotsConfig base;
  GeoCluster cluster(2, 0, base);
  ChariotsClient client(&cluster.dc(0));
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(client.Append("gc-me").ok());
  }
  ASSERT_TRUE(cluster.AwaitConvergence());
  // Knowledge must round-trip (heartbeats) before GC is allowed.
  int64_t deadline = SystemClock::Default()->NowNanos() + kWaitNanos;
  while (cluster.dc(0).atable().Get(1, 0) < 10 &&
         SystemClock::Default()->NowNanos() < deadline) {
    std::this_thread::sleep_for(1ms);
  }
  ASSERT_GE(cluster.dc(0).atable().Get(1, 0), 10u);
  ASSERT_TRUE(cluster.dc(0).RunGcOnce().ok());
  EXPECT_EQ(cluster.dc(0).gc_horizon(), 10u);
  // GC'd positions read as NotFound; the head is unaffected.
  EXPECT_TRUE(cluster.dc(0).Read(0).status().IsNotFound());
  EXPECT_EQ(cluster.dc(0).HeadLid(), 10u);
}

TEST(GeoIntegrationTest, GcBlockedWhilePeerUnaware) {
  GeoCluster cluster(2);
  cluster.transport().Partition("geo/dc0", "geo/dc1");
  ChariotsClient client(&cluster.dc(0));
  ASSERT_TRUE(client.Append("cannot gc").ok());
  ASSERT_TRUE(cluster.dc(0).RunGcOnce().ok());
  EXPECT_EQ(cluster.dc(0).gc_horizon(), 0u);  // peer doesn't have it yet
  EXPECT_TRUE(cluster.dc(0).Read(0).ok());
}

TEST(GeoIntegrationTest, ScaledPipelineStagesStillCorrect) {
  ChariotsConfig base;
  base.num_batchers = 2;
  base.num_filters = 4;
  base.num_queues = 2;
  base.num_maintainers = 3;
  base.stripe_batch = 5;
  GeoCluster cluster(2, 0, base);
  ChariotsClient a(&cluster.dc(0));
  ChariotsClient b(&cluster.dc(1));
  for (int i = 0; i < 40; ++i) {
    ASSERT_TRUE(a.Append("a" + std::to_string(i)).ok());
    ASSERT_TRUE(b.Append("b" + std::to_string(i)).ok());
  }
  ASSERT_TRUE(cluster.AwaitConvergence());
  for (uint32_t d = 0; d < 2; ++d) {
    auto log = cluster.dc(d).ReadRange(0, 1000);
    EXPECT_EQ(log.size(), 80u);
  }
}

TEST(GeoIntegrationTest, TagIndexingInGeoMode) {
  GeoCluster cluster(2);
  ChariotsClient a(&cluster.dc(0));
  ASSERT_TRUE(a.Append("v1", {{"key", "user1"}}).ok());
  ASSERT_TRUE(a.Append("v2", {{"key", "user1"}}).ok());
  ASSERT_TRUE(cluster.AwaitConvergence());
  // Both replicas can find the most recent record for the tag.
  for (uint32_t d = 0; d < 2; ++d) {
    ChariotsClient c(&cluster.dc(d));
    auto r = c.ReadMostRecent("key");
    ASSERT_TRUE(r.ok()) << "dc" << d;
    EXPECT_EQ(r->body, "v2");
  }
}

TEST(GeoIntegrationTest, ReadRulesSelectors) {
  GeoCluster cluster(2);
  ChariotsClient a(&cluster.dc(0));
  ASSERT_TRUE(a.Append("one", {{"color", "red"}}).ok());
  ASSERT_TRUE(a.Append("two", {{"color", "blue"}}).ok());
  ASSERT_TRUE(a.Append("three", {{"color", "red"}}).ok());

  // By lid.
  ReadRules by_lid;
  by_lid.lid = 1;
  auto r = a.Read(by_lid);
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->size(), 1u);
  EXPECT_EQ((*r)[0].body, "two");

  // By lid range.
  ReadRules by_range;
  by_range.lid_range = {0, 10};
  by_range.limit = 10;
  r = a.Read(by_range);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->size(), 3u);

  // By replication identity.
  ReadRules by_toid;
  by_toid.host = 0;
  by_toid.toid = 3;
  r = a.Read(by_toid);
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->size(), 1u);
  EXPECT_EQ((*r)[0].body, "three");

  // By tag with value filter.
  ReadRules by_tag;
  by_tag.tag = "color";
  by_tag.tag_value_equals = "red";
  by_tag.limit = 10;
  r = a.Read(by_tag);
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->size(), 2u);
  EXPECT_EQ((*r)[0].body, "three");  // most recent first
  EXPECT_EQ((*r)[1].body, "one");

  // Snapshot pinning: only records below before_lid.
  by_tag.before_lid = 2;
  r = a.Read(by_tag);
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->size(), 1u);
  EXPECT_EQ((*r)[0].body, "one");

  // Exactly one selector required.
  ReadRules bad;
  EXPECT_FALSE(a.Read(bad).ok());
  bad.lid = 0;
  bad.tag = "color";
  EXPECT_FALSE(a.Read(bad).ok());
}

TEST(GeoIntegrationTest, SubscribersSeeEveryRecordInLidOrder) {
  net::InProcTransport transport;
  TransportFabric fabric(&transport);
  std::vector<std::unique_ptr<Datacenter>> dcs;
  std::mutex mu;
  std::vector<std::vector<GeoRecord>> seen(2);
  for (uint32_t d = 0; d < 2; ++d) {
    ChariotsConfig config;
    config.dc_id = d;
    config.num_datacenters = 2;
    dcs.push_back(std::make_unique<Datacenter>(config, &fabric));
    dcs[d]->Subscribe([&, d](const GeoRecord& r) {
      std::lock_guard<std::mutex> lock(mu);
      seen[d].push_back(r);
    });
    ASSERT_TRUE(dcs[d]->Start().ok());
  }
  ChariotsClient a(dcs[0].get());
  ChariotsClient b(dcs[1].get());
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(a.Append("a").ok());
    ASSERT_TRUE(b.Append("b").ok());
  }
  for (uint32_t d = 0; d < 2; ++d) {
    ASSERT_TRUE(dcs[d]->WaitForToid(0, 5, kWaitNanos));
    ASSERT_TRUE(dcs[d]->WaitForToid(1, 5, kWaitNanos));
  }
  {
    // Scoped: Stop() closes the pipeline strands' gates, and subscriber
    // callbacks take `mu` while running under those gates — holding `mu`
    // across Stop() would invert the lock order.
    std::lock_guard<std::mutex> lock(mu);
    for (uint32_t d = 0; d < 2; ++d) {
      ASSERT_EQ(seen[d].size(), 10u) << "dc" << d;
      for (size_t i = 0; i < seen[d].size(); ++i) {
        EXPECT_EQ(seen[d][i].lid, i);  // push order == LId order
      }
    }
  }
  for (auto& dc : dcs) dc->Stop();
}

TEST(GeoIntegrationTest, ConfigValidationRejectsBadShapes) {
  {
    ChariotsConfig config;
    config.dc_id = 3;
    config.num_datacenters = 2;
    Datacenter dc(config);
    EXPECT_FALSE(dc.Start().ok());
  }
  {
    ChariotsConfig config;
    config.num_queues = 0;
    Datacenter dc(config);
    EXPECT_FALSE(dc.Start().ok());
  }
  {
    ChariotsConfig config;
    config.stripe_batch = 0;
    Datacenter dc(config);
    EXPECT_FALSE(dc.Start().ok());
  }
  {
    // Replication between datacenters needs a fabric.
    ChariotsConfig config;
    config.num_datacenters = 2;
    Datacenter dc(config);
    EXPECT_EQ(dc.Start().code(), StatusCode::kInvalidArgument);
  }
}

TEST(GeoIntegrationTest, SessionGuarantees) {
  GeoCluster cluster(2, /*wan_latency_nanos=*/1'000'000);
  // Read-your-writes: a session sees its own appends immediately via the
  // local log (the append waits for local durability).
  ChariotsClient session(&cluster.dc(0));
  auto w = session.Append("mine");
  ASSERT_TRUE(w.ok());
  auto read = session.Read(w->second);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read->body, "mine");
  // The session's dependency vector covers the write, so any subsequent
  // append from this session is causally after it at every replica.
  EXPECT_GE(session.deps()[0], w->first);

  // Monotonic reads within a session: absorbing a record's deps means a
  // later append by this session can never be ordered before it anywhere.
  ASSERT_TRUE(cluster.dc(1).WaitForToid(0, 1, kWaitNanos));
  ChariotsClient migrant(&cluster.dc(1));
  auto at_b = migrant.Read(0);
  ASSERT_TRUE(at_b.ok());
  auto y = migrant.Append("after-read");
  ASSERT_TRUE(y.ok());
  ASSERT_TRUE(cluster.dc(0).WaitForToid(1, 1, kWaitNanos));
  auto log = cluster.dc(0).ReadRange(0, 10);
  // "mine" precedes "after-read" in dc0's log too.
  ASSERT_EQ(log.size(), 2u);
  EXPECT_EQ(log[0].body, "mine");
  EXPECT_EQ(log[1].body, "after-read");
}

TEST(GeoIntegrationTest, StatsReflectPipelineActivity) {
  // Registry deltas over the run. The per-dc counters are per datacenter;
  // the stage counters are process-global, so the batcher and filter deltas
  // sum dc0's 10 appends and dc1's 10 replicated copies. Only dc0 ships
  // records and only dc1 receives them.
  const uint64_t appends0 = CounterValue("chariots.dc0.appends");
  const uint64_t incorporated0 =
      CounterValue("chariots.dc0.records_incorporated");
  const uint64_t incorporated1 =
      CounterValue("chariots.dc1.records_incorporated");
  const uint64_t batcher_in = CounterValue("chariots.batcher.records_in");
  const uint64_t forwarded = CounterValue("chariots.filter.forwarded");
  const uint64_t sent = CounterValue("chariots.sender.records_sent");
  const uint64_t received = CounterValue("chariots.receiver.records_received");
  GeoCluster cluster(2);
  ChariotsClient a(&cluster.dc(0));
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(a.Append("x", {{"t", "v"}}).ok());
  }
  ASSERT_TRUE(cluster.AwaitConvergence());
  EXPECT_EQ(CounterValue("chariots.dc0.appends") - appends0, 10u);
  EXPECT_EQ(CounterValue("chariots.dc0.records_incorporated") - incorporated0,
            10u);
  EXPECT_GE(CounterValue("chariots.batcher.records_in") - batcher_in, 20u);
  EXPECT_GE(CounterValue("chariots.filter.forwarded") - forwarded, 20u);
  EXPECT_EQ(cluster.dc(0).HeadLid(), 10u);
  flstore::IndexQuery tagged;
  tagged.key = "t";
  tagged.value_equals = "v";
  tagged.limit = 100;
  EXPECT_EQ(cluster.dc(0).Lookup(tagged).size(), 10u);
  EXPECT_GE(CounterValue("chariots.sender.records_sent") - sent, 10u);
  // Retransmissions possible...
  EXPECT_GE(CounterValue("chariots.receiver.records_received") - received,
            10u);
  // ...but incorporation exact.
  EXPECT_EQ(CounterValue("chariots.dc1.records_incorporated") - incorporated1,
            10u);
}

TEST(GeoIntegrationTest, NewRecordWakesTheSenderBeforeItsTick) {
  // Virtual time: the senders' periodic tick can only fire once the test
  // advances the clock that far. The token's idle poll needs a few 100 µs
  // steps, so a record appended at dc0 must reach dc1's log well before the
  // first tick is due — carried by the sender kick alone.
  ManualClock clock;
  Executor exec({.num_threads = 2, .name = "geo-virt", .manual_clock = &clock});
  net::InProcTransport transport(nullptr, &exec);
  TransportFabric fabric(&transport);
  std::vector<std::unique_ptr<Datacenter>> dcs;
  for (uint32_t d = 0; d < 2; ++d) {
    ChariotsConfig config;
    config.dc_id = d;
    config.num_datacenters = 2;
    config.executor = &exec;
    dcs.push_back(std::make_unique<Datacenter>(config, &fabric));
    EXPECT_TRUE(dcs.back()->Start().ok());
  }
  const int64_t tick = Sender::Options{}.tick_nanos;
  constexpr int64_t kStep = 100'000;
  dcs[0]->Append("x", {}, {});
  while (dcs[1]->IncorporatedVector()[0] < 1 &&
         clock.NowNanos() + kStep < tick) {
    exec.WaitIdle();
    exec.AdvanceBy(kStep);
    exec.WaitIdle();
  }
  EXPECT_EQ(dcs[1]->IncorporatedVector()[0], 1u);
  EXPECT_LT(clock.NowNanos(), tick);
  // Stop waits for each token's final drain, which the idle poll reaches
  // only as virtual time moves.
  std::atomic<bool> stopped{false};
  std::thread stopper([&] {
    for (auto& dc : dcs) dc->Stop();
    stopped.store(true);
  });
  while (!stopped.load()) {
    exec.AdvanceBy(kStep);
    std::this_thread::yield();
  }
  stopper.join();
}

TEST(GeoIntegrationTest, TracePropagatesAcrossPipelineAndWan) {
  trace::TraceSink::Default().Clear();
  ChariotsConfig base;
  base.trace_sample_every = 1;  // sample every record
  GeoCluster cluster(2, 0, base);
  ChariotsClient client(&cluster.dc(0));
  ASSERT_TRUE(client.Append("traced").ok());
  ASSERT_TRUE(cluster.dc(1).WaitForToid(0, 1, kWaitNanos));

  // Both the local copy (ends at "sender") and the remote copy (ends at
  // "incorporated") land in the process-global sink; pick the remote one —
  // it carries the full cross-datacenter hop history.
  const uint64_t id = trace::MakeTraceId(0, 1);
  trace::TraceContext remote;
  bool found_remote = false;
  for (const auto& t : trace::TraceSink::Default().Traces()) {
    if (t.trace_id == id && !t.hops.empty() &&
        t.hops.back().stage == "incorporated") {
      remote = t;
      found_remote = true;
    }
  }
  ASSERT_TRUE(found_remote);

  // The sampled append reconstructs end to end: all six local stages, then
  // the remote receiver and the remote pipeline through ATable merge.
  ASSERT_GE(remote.hops.size(), 7u);
  std::vector<std::pair<std::string, uint32_t>> want = {
      {"client", 0},   {"batcher", 0},  {"filter", 0},       {"queue", 0},
      {"maintainer", 0}, {"sender", 0}, {"receiver", 1},
      {"incorporated", 1}};
  for (const auto& [stage, dc] : want) {
    bool present = false;
    for (const auto& hop : remote.hops) {
      if (hop.stage == stage && hop.dc == dc) present = true;
    }
    EXPECT_TRUE(present) << "missing hop " << stage << "@dc" << dc;
  }
  // Hop timestamps are monotonic (all stamped by one steady clock here).
  for (size_t i = 1; i < remote.hops.size(); ++i) {
    EXPECT_LE(remote.hops[i - 1].nanos, remote.hops[i].nanos)
        << remote.hops[i - 1].stage << " -> " << remote.hops[i].stage;
  }
  // The sink fed per-hop latency histograms for the stages it saw.
  auto snapshot = metrics::Registry::Default().Snapshot();
  EXPECT_GE(snapshot.histograms.at("chariots.trace.hop_ns.batcher").count, 1u);
  EXPECT_GE(snapshot.histograms.at("chariots.trace.hop_ns.incorporated").count,
            1u);
}

TEST(GeoIntegrationTest, GeoRpcServiceServesExternalClients) {
  GeoCluster cluster(2);
  GeoServer server0(&cluster.transport(), "geo/dc0/api", &cluster.dc(0));
  GeoServer server1(&cluster.transport(), "geo/dc1/api", &cluster.dc(1));
  ASSERT_TRUE(server0.Start().ok());
  ASSERT_TRUE(server1.Start().ok());

  GeoRpcClient client(&cluster.transport(), "ext/client", "geo/dc0/api");
  ASSERT_TRUE(client.Start().ok());

  // Append over RPC waits for durability and returns (toid, lid).
  auto a = client.Append("remote append", {{"kind", "rpc"}});
  ASSERT_TRUE(a.ok()) << a.status();
  EXPECT_EQ(a->first, 1u);
  EXPECT_EQ(a->second, 0u);

  // Read back over RPC, by lid and by replication identity.
  auto by_lid = client.Read(0);
  ASSERT_TRUE(by_lid.ok());
  EXPECT_EQ(by_lid->body, "remote append");
  auto by_toid = client.ReadByToid(0, 1);
  ASSERT_TRUE(by_toid.ok());
  EXPECT_EQ(by_toid->body, "remote append");
  EXPECT_EQ(*client.Head(), 1u);

  // Tag lookup + most-recent helper.
  ASSERT_TRUE(client.Append("newer", {{"kind", "rpc"}}).ok());
  auto recent = client.ReadMostRecent("kind");
  ASSERT_TRUE(recent.ok());
  EXPECT_EQ(recent->body, "newer");

  // The RPC session tracks causality: a client that reads at dc0 then
  // appends at dc1 produces a record ordered after what it read.
  GeoRpcClient roaming(&cluster.transport(), "ext/roaming", "geo/dc0/api");
  ASSERT_TRUE(roaming.Start().ok());
  ASSERT_TRUE(roaming.Read(0).ok());  // absorbs dc0 toid 1
  GeoRpcClient at_dc1(&cluster.transport(), "ext/at-dc1", "geo/dc1/api");
  (void)at_dc1;  // (same pattern would apply cross-server)
  // Error propagation.
  EXPECT_FALSE(client.Read(999).ok());
  EXPECT_TRUE(client.ReadByToid(0, 999).status().IsNotFound());

  // Observability endpoints (chariots_cli metrics / chariots_cli trace):
  // JSON with per-stage counters and at least one latency histogram.
  auto metrics_json = client.Metrics();
  ASSERT_TRUE(metrics_json.ok()) << metrics_json.status();
  EXPECT_NE(metrics_json->find("\"counters\""), std::string::npos);
  EXPECT_NE(metrics_json->find("chariots.batcher.records_in"),
            std::string::npos);
  EXPECT_NE(metrics_json->find("\"histograms\""), std::string::npos);
  auto traces_json = client.Trace();
  ASSERT_TRUE(traces_json.ok()) << traces_json.status();
  EXPECT_EQ(traces_json->front(), '[');
}

TEST(GeoIntegrationTest, ReplicationOverRealTcp) {
  // Two datacenters, each on its own TcpTransport — replication batches,
  // awareness heartbeats, and acknowledgements all over real sockets.
  net::TcpTransport net0, net1;
  ASSERT_TRUE(net0.Listen(0).ok());
  ASSERT_TRUE(net1.Listen(0).ok());
  net0.AddRoute("geo/dc1", "127.0.0.1", net1.port());
  net1.AddRoute("geo/dc0", "127.0.0.1", net0.port());

  TransportFabric fabric0(&net0);
  TransportFabric fabric1(&net1);
  ChariotsConfig c0;
  c0.dc_id = 0;
  c0.num_datacenters = 2;
  ChariotsConfig c1 = c0;
  c1.dc_id = 1;
  Datacenter dc0(c0, &fabric0);
  Datacenter dc1(c1, &fabric1);
  ASSERT_TRUE(dc0.Start().ok());
  ASSERT_TRUE(dc1.Start().ok());

  ChariotsClient a(&dc0);
  ChariotsClient b(&dc1);
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(a.Append("tcp-a-" + std::to_string(i)).ok());
    ASSERT_TRUE(b.Append("tcp-b-" + std::to_string(i)).ok());
  }
  ASSERT_TRUE(dc0.WaitForToid(1, 10, kWaitNanos));
  ASSERT_TRUE(dc1.WaitForToid(0, 10, kWaitNanos));
  EXPECT_EQ(dc0.ReadRange(0, 100).size(), 20u);
  EXPECT_EQ(dc1.ReadRange(0, 100).size(), 20u);
  dc0.Stop();
  dc1.Stop();
}

TEST(GeoIntegrationTest, ReadByToidResolvesReplicationIdentity) {
  GeoCluster cluster(2);
  ChariotsClient a(&cluster.dc(0));
  ChariotsClient b(&cluster.dc(1));
  ASSERT_TRUE(a.Append("a-first").ok());
  ASSERT_TRUE(b.Append("b-first").ok());
  ASSERT_TRUE(a.Append("a-second").ok());
  ASSERT_TRUE(cluster.AwaitConvergence());

  // The same (host, toid) resolves to the same record at both replicas,
  // regardless of their (different) LId layouts.
  for (uint32_t d = 0; d < 2; ++d) {
    auto r = cluster.dc(d).ReadByToid(0, 2);
    ASSERT_TRUE(r.ok()) << "dc" << d << ": " << r.status();
    EXPECT_EQ(r->body, "a-second");
    auto rb = cluster.dc(d).ReadByToid(1, 1);
    ASSERT_TRUE(rb.ok());
    EXPECT_EQ(rb->body, "b-first");
  }
  // Unknown/not-yet-incorporated identities.
  EXPECT_TRUE(cluster.dc(0).ReadByToid(0, 99).status().IsNotFound());
  EXPECT_FALSE(cluster.dc(0).ReadByToid(5, 1).ok());
  EXPECT_FALSE(cluster.dc(0).ReadByToid(0, 0).ok());
}

TEST(GeoIntegrationTest, ReadByToidAfterGc) {
  GeoCluster cluster(2);
  ChariotsClient a(&cluster.dc(0));
  for (int i = 0; i < 6; ++i) ASSERT_TRUE(a.Append("r").ok());
  ASSERT_TRUE(cluster.AwaitConvergence());
  int64_t deadline = SystemClock::Default()->NowNanos() + kWaitNanos;
  while (cluster.dc(0).atable().Get(1, 0) < 6 &&
         SystemClock::Default()->NowNanos() < deadline) {
    std::this_thread::sleep_for(1ms);
  }
  ASSERT_TRUE(cluster.dc(0).RunGcOnce().ok());
  ASSERT_EQ(cluster.dc(0).gc_horizon(), 6u);
  // GC'd identities answer NotFound rather than wrong data.
  EXPECT_TRUE(cluster.dc(0).ReadByToid(0, 3).status().IsNotFound());
  // New appends remain resolvable.
  ASSERT_TRUE(a.Append("post-gc").ok());
  auto r = cluster.dc(0).ReadByToid(0, 7);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->body, "post-gc");
}

TEST(GeoIntegrationTest, ReadRangeStartsAtTheGcHorizon) {
  GeoCluster cluster(2);
  ChariotsClient a(&cluster.dc(0));
  for (int i = 0; i < 6; ++i) ASSERT_TRUE(a.Append("old").ok());
  ASSERT_TRUE(cluster.AwaitConvergence());
  int64_t deadline = SystemClock::Default()->NowNanos() + kWaitNanos;
  while (cluster.dc(0).atable().Get(1, 0) < 6 &&
         SystemClock::Default()->NowNanos() < deadline) {
    std::this_thread::sleep_for(1ms);
  }
  ASSERT_TRUE(cluster.dc(0).RunGcOnce().ok());
  const flstore::LId horizon = cluster.dc(0).gc_horizon();
  ASSERT_EQ(horizon, 6u);
  for (int i = 0; i < 4; ++i) ASSERT_TRUE(a.Append("live").ok());
  // A read from 0 crosses the collected prefix and fills its limit from
  // the first live record.
  auto log = cluster.dc(0).ReadRange(0, 3);
  ASSERT_EQ(log.size(), 3u);
  EXPECT_EQ(log[0].lid, horizon);
  EXPECT_EQ(log[0].body, "live");
}

TEST(GeoIntegrationTest, GcHorizonStopsAtTheFirstRecordAPeerLacks) {
  GeoCluster cluster(2);
  ChariotsClient a(&cluster.dc(0));
  ChariotsClient b(&cluster.dc(1));
  ASSERT_TRUE(a.Append("a1").ok());
  ASSERT_TRUE(b.Append("b1").ok());
  ASSERT_TRUE(cluster.AwaitConvergence());
  // dc0 must learn that dc1 holds both a1 and b1.
  int64_t deadline = SystemClock::Default()->NowNanos() + kWaitNanos;
  while ((cluster.dc(0).atable().Get(1, 0) < 1 ||
          cluster.dc(0).atable().Get(1, 1) < 1) &&
         SystemClock::Default()->NowNanos() < deadline) {
    std::this_thread::sleep_for(1ms);
  }
  ASSERT_GE(cluster.dc(0).atable().Get(1, 0), 1u);
  ASSERT_GE(cluster.dc(0).atable().Get(1, 1), 1u);
  // One way only: dc1 keeps shipping to dc0, but never learns of a2.
  cluster.transport().SetLink("geo/dc0", "geo/dc1", {.drop_probability = 1});
  auto a2 = a.Append("a2");
  ASSERT_TRUE(a2.ok());
  ASSERT_TRUE(b.Append("b2").ok());
  ASSERT_TRUE(cluster.dc(0).WaitForToid(1, 2, kWaitNanos));
  // dc0's log: a1 and b1 (either order), then a2, then b2.
  ASSERT_EQ(a2->second, 2u);
  auto b2 = cluster.dc(0).ReadByToid(1, 2);
  ASSERT_TRUE(b2.ok());
  ASSERT_EQ(b2->lid, 3u);
  // b2 is collectable (dc1 hosts it), but a2 before it is not.
  ASSERT_TRUE(cluster.dc(0).RunGcOnce().ok());
  EXPECT_EQ(cluster.dc(0).gc_horizon(), a2->second);
  EXPECT_TRUE(cluster.dc(0).ReadByToid(0, 2).ok());
  EXPECT_TRUE(cluster.dc(0).ReadByToid(1, 2).ok());
  EXPECT_TRUE(cluster.dc(0).ReadByToid(1, 1).status().IsNotFound());
}

// ------------------------------------------------------- causality property

struct PropertyParam {
  uint32_t num_dcs;
  int appends_per_dc;
  int64_t wan_latency_nanos;
};

class GeoCausalityPropertyTest
    : public ::testing::TestWithParam<PropertyParam> {};

/// Random concurrent workload with cross-DC causal reads; asserts on every
/// replica, in log (LId) order:
///  1. per-host TOIds appear gap-free and increasing (total order per DC);
///  2. every record's dependency vector is satisfied by the prefix before
///     it (happened-before + transitivity — paper §3's causal order).
TEST_P(GeoCausalityPropertyTest, EveryReplicaIsCausallyOrdered) {
  const PropertyParam param = GetParam();
  GeoCluster cluster(param.num_dcs, param.wan_latency_nanos);

  std::vector<std::thread> writers;
  for (uint32_t d = 0; d < param.num_dcs; ++d) {
    writers.emplace_back([&, d] {
      ChariotsClient client(&cluster.dc(d));
      Random rng(d * 7919 + 13);
      for (int i = 0; i < param.appends_per_dc; ++i) {
        // Occasionally read someone's latest record to create a
        // happened-before edge.
        if (rng.OneIn(0.4)) {
          flstore::LId head = cluster.dc(d).HeadLid();
          if (head > 0) {
            (void)client.Read(rng.Uniform(head));
          }
        }
        ASSERT_TRUE(client
                        .Append("dc" + std::to_string(d) + ":" +
                                std::to_string(i))
                        .ok());
      }
    });
  }
  for (auto& t : writers) t.join();
  ASSERT_TRUE(cluster.AwaitConvergence(30'000'000'000));

  for (uint32_t d = 0; d < param.num_dcs; ++d) {
    auto log = cluster.dc(d).ReadRange(
        0, param.num_dcs * param.appends_per_dc + 10);
    ASSERT_EQ(log.size(),
              static_cast<size_t>(param.num_dcs) * param.appends_per_dc)
        << "dc" << d;
    std::vector<TOId> seen(param.num_dcs, 0);
    for (const auto& r : log) {
      // (1) total order per host, gap-free.
      ASSERT_EQ(r.toid, seen[r.host] + 1)
          << "dc" << d << " lid " << r.lid << " host " << r.host;
      // (2) causal dependencies satisfied by the prefix.
      for (size_t k = 0; k < r.deps.size(); ++k) {
        if (k == r.host) continue;
        ASSERT_LE(r.deps[k], seen[k])
            << "dc" << d << " lid " << r.lid << " dep on dc" << k;
      }
      seen[r.host] = r.toid;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Configs, GeoCausalityPropertyTest,
    ::testing::Values(PropertyParam{2, 50, 0},
                      PropertyParam{3, 30, 500'000},
                      PropertyParam{4, 20, 2'000'000},
                      PropertyParam{5, 15, 0}));

}  // namespace
}  // namespace chariots::geo
