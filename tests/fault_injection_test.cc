// Deterministic fault-injection tests: the retry/backoff/deadline
// primitives, the scripted FaultSchedule on InProcTransport, exactly-once
// FLStore appends under dropped/duplicated messages and maintainer
// crash-restart, HL gossip convergence across a partition, the
// geo-replication pipeline's shed-and-retransmit behaviour, and the token's
// retry of a failed maintainer write.
//
// Every probabilistic scenario is seeded (transport.Seed / channel seed) so
// a failure replays exactly from the seed printed in the test name/output.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <iostream>
#include <memory>
#include <mutex>
#include <set>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "chariots/client.h"
#include "chariots/datacenter.h"
#include "chariots/fabric.h"
#include "common/metrics.h"
#include "common/retry.h"
#include "common/status.h"
#include "flstore/client.h"
#include "flstore/service.h"
#include "net/fault_schedule.h"
#include "net/inproc_transport.h"
#include "net/retrying_channel.h"
#include "net/rpc.h"
#include "storage/io_engine.h"

namespace chariots {
namespace {

namespace fs = std::filesystem;
using namespace std::chrono_literals;
using net::FaultSchedule;

constexpr int64_t kWaitNanos = 5'000'000'000;  // 5 s

/// Seed for a scenario: the test's base seed offset by CHARIOTS_FAULT_SEED
/// (tools/run_fault_matrix.sh sweeps it). Printed so a failure replays by
/// exporting the same value.
uint64_t ScenarioSeed(uint64_t base) {
  uint64_t offset = 0;
  if (const char* env = std::getenv("CHARIOTS_FAULT_SEED")) {
    offset = std::strtoull(env, nullptr, 10);
  }
  uint64_t seed = base + offset;
  std::cerr << "[ scenario seed " << seed << " ]\n";
  return seed;
}

uint64_t CounterValue(const char* name) {
  return metrics::Registry::Default().GetCounter(name)->Value();
}

// ------------------------------------------------------- retry primitives

TEST(RetryPrimitivesTest, BackoffSequenceIsDeterministicFromSeed) {
  BackoffPolicy policy;
  policy.initial_nanos = 1'000'000;
  policy.jitter = 0.2;
  Backoff a(policy, /*seed=*/42), b(policy, /*seed=*/42);
  Backoff c(policy, /*seed=*/43);
  bool any_difference = false;
  for (int i = 0; i < 8; ++i) {
    int64_t da = a.NextDelayNanos();
    EXPECT_EQ(da, b.NextDelayNanos()) << "attempt " << i;
    any_difference = any_difference || (da != c.NextDelayNanos());
  }
  // A different seed draws a different jitter stream.
  EXPECT_TRUE(any_difference);
}

TEST(RetryPrimitivesTest, BackoffGrowsToCapAndResets) {
  BackoffPolicy policy;
  policy.initial_nanos = 1'000'000;
  policy.max_nanos = 4'000'000;
  policy.multiplier = 2.0;
  policy.jitter = 0;  // deterministic values
  Backoff backoff(policy, 1);
  EXPECT_EQ(backoff.NextDelayNanos(), 1'000'000);
  EXPECT_EQ(backoff.NextDelayNanos(), 2'000'000);
  EXPECT_EQ(backoff.NextDelayNanos(), 4'000'000);
  EXPECT_EQ(backoff.NextDelayNanos(), 4'000'000);  // saturated
  backoff.Reset();
  EXPECT_EQ(backoff.NextDelayNanos(), 1'000'000);
}

TEST(RetryPrimitivesTest, DeadlineExpiresOnManualClock) {
  ManualClock clock(1'000);
  Deadline d = Deadline::After(500, &clock);
  EXPECT_FALSE(d.IsInfinite());
  EXPECT_EQ(d.RemainingNanos(), 500);
  clock.Advance(400);
  EXPECT_EQ(d.RemainingNanos(), 100);
  EXPECT_FALSE(d.Expired());
  clock.Advance(200);
  EXPECT_TRUE(d.Expired());
  EXPECT_EQ(d.RemainingNanos(), 0);

  Deadline infinite;
  EXPECT_TRUE(infinite.IsInfinite());
  EXPECT_FALSE(infinite.Expired());
  EXPECT_TRUE(Deadline::ExceededError("op").IsTimedOut());
}

TEST(RetryPrimitivesTest, RetryableTaxonomy) {
  EXPECT_TRUE(IsRetryable(StatusCode::kUnavailable));
  EXPECT_TRUE(IsRetryable(StatusCode::kTimedOut));
  EXPECT_FALSE(IsRetryable(StatusCode::kOk));
  EXPECT_FALSE(IsRetryable(StatusCode::kNotFound));
  EXPECT_FALSE(IsRetryable(StatusCode::kInvalidArgument));
  EXPECT_FALSE(IsRetryable(StatusCode::kFailedPrecondition));
  EXPECT_TRUE(Status::Unavailable("x").IsRetryable());
  EXPECT_FALSE(Status::FailedPrecondition("x").IsRetryable());
}

// -------------------------------------------------- FaultSchedule scripts

net::Message MakeMessage(const std::string& from, const std::string& to,
                         uint16_t type) {
  net::Message m;
  m.from = from;
  m.to = to;
  m.type = type;
  return m;
}

TEST(FaultScheduleTest, DropNthFiresOnExactlyTheNthMatch) {
  FaultSchedule faults(1);
  faults.DropNth(FaultSchedule::TypeIs(7), /*nth=*/2);
  EXPECT_FALSE(faults.Inspect(MakeMessage("a", "b", 7)).drop);
  EXPECT_FALSE(faults.Inspect(MakeMessage("a", "b", 9)).drop);  // no match
  EXPECT_TRUE(faults.Inspect(MakeMessage("a", "b", 7)).drop);   // 2nd match
  EXPECT_FALSE(faults.Inspect(MakeMessage("a", "b", 7)).drop);
  EXPECT_EQ(faults.faults_injected(), 1u);
}

TEST(FaultScheduleTest, PredicatesCompose) {
  auto pred = FaultSchedule::Both(FaultSchedule::FromPrefix("dc0/m"),
                                  FaultSchedule::TypeIs(3));
  EXPECT_TRUE(pred(MakeMessage("dc0/m/1", "x", 3)));
  EXPECT_FALSE(pred(MakeMessage("dc0/m/1", "x", 4)));
  EXPECT_FALSE(pred(MakeMessage("dc1/m/1", "x", 3)));
  EXPECT_TRUE(FaultSchedule::Any()(MakeMessage("a", "b", 0)));
  EXPECT_TRUE(FaultSchedule::ToPrefix("b")(MakeMessage("a", "b/1", 0)));
  EXPECT_FALSE(FaultSchedule::ToPrefix("b")(MakeMessage("b", "a", 0)));
}

TEST(FaultScheduleTest, ProbabilisticDropsReplayFromSeed) {
  auto run = [](uint64_t seed) {
    FaultSchedule faults(seed);
    faults.DropWithProbability(FaultSchedule::Any(), 0.5);
    uint64_t drops = 0;
    for (int i = 0; i < 200; ++i) {
      if (faults.Inspect(MakeMessage("a", "b", 1)).drop) ++drops;
    }
    return drops;
  };
  EXPECT_EQ(run(7), run(7));  // same seed, same trace
  // And the rate is plausibly ~0.5, not degenerate.
  uint64_t drops = run(7);
  EXPECT_GT(drops, 50u);
  EXPECT_LT(drops, 150u);
}

TEST(FaultScheduleTest, CrashWindowSwallowsDeliveries) {
  net::InProcTransport transport;
  std::atomic<int> received{0};
  ASSERT_TRUE(transport
                  .Register("b", [&](net::Message) { received.fetch_add(1); })
                  .ok());
  // Node b is "down" for a very long window starting at time zero.
  transport.faults().CrashWindow("b", 0, std::numeric_limits<int64_t>::max());
  EXPECT_TRUE(transport.faults().InOutage("b", 1));
  ASSERT_TRUE(transport.Send(MakeMessage("a", "b", 1)).ok());
  // The message must vanish, not arrive late.
  std::this_thread::sleep_for(20ms);
  EXPECT_EQ(received.load(), 0);
  EXPECT_GE(transport.messages_dropped(), 1u);
  // Restart: clear the outage and traffic flows again.
  transport.faults().Clear();
  ASSERT_TRUE(transport.Send(MakeMessage("a", "b", 1)).ok());
  for (int i = 0; i < 500 && received.load() == 0; ++i) {
    std::this_thread::sleep_for(1ms);
  }
  EXPECT_EQ(received.load(), 1);
}

// --------------------------------------------------- RetryingChannel + RPC

/// An RPC pair (client endpoint + echo server) on a faulty transport.
class ChannelFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    server_ = std::make_unique<net::RpcEndpoint>(&transport_, "srv");
    server_->Handle(kEcho, [this](const net::NodeId&, std::string payload)
                              -> Result<std::string> {
      calls_.fetch_add(1);
      return payload;
    });
    ASSERT_TRUE(server_->Start().ok());
    client_ = std::make_unique<net::RpcEndpoint>(&transport_, "cli");
    ASSERT_TRUE(client_->Start().ok());
  }

  net::RetryingChannel::Options FastRetry() {
    net::RetryingChannel::Options o;
    o.backoff.initial_nanos = 1'000'000;  // 1 ms
    o.backoff.jitter = 0;
    o.attempt_timeout = 100ms;
    o.max_attempts = 4;
    o.seed = 11;
    return o;
  }

  static constexpr uint16_t kEcho = 77;
  net::InProcTransport transport_;
  std::unique_ptr<net::RpcEndpoint> server_;
  std::unique_ptr<net::RpcEndpoint> client_;
  std::atomic<int> calls_{0};
};

TEST_F(ChannelFixture, RetryAbsorbsADroppedRequest) {
  transport_.Seed(ScenarioSeed(5));
  transport_.faults().DropNth(FaultSchedule::TypeIs(kEcho), /*nth=*/1);
  net::RetryingChannel channel(client_.get(), FastRetry());
  auto r = channel.Call("srv", kEcho, "ping");
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(*r, "ping");
  EXPECT_EQ(channel.retries(), 1u);
  EXPECT_EQ(calls_.load(), 1);  // the drop was the request, not the response
}

TEST_F(ChannelFixture, NonIdempotentCallsAreNeverRetried) {
  transport_.faults().DropNth(FaultSchedule::TypeIs(kEcho), /*nth=*/1);
  net::RetryingChannel channel(client_.get(), FastRetry());
  auto r = channel.Call("srv", kEcho, "ping", /*idempotent=*/false);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsTimedOut()) << r.status();
  EXPECT_EQ(channel.retries(), 0u);
}

TEST_F(ChannelFixture, NonRetryableErrorsFailFast) {
  server_->Handle(kEcho + 1, [](const net::NodeId&, std::string)
                                 -> Result<std::string> {
    return Status::InvalidArgument("bad request");
  });
  net::RetryingChannel channel(client_.get(), FastRetry());
  auto r = channel.Call("srv", kEcho + 1, "x");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(channel.retries(), 0u);
}

TEST_F(ChannelFixture, DeadlineBoundsTheWholeRetryLoop) {
  // Unbound destination: every attempt fails fast with kUnavailable. A
  // manual clock makes the backoff sleeps instantaneous and exact.
  ManualClock clock;
  net::RetryingChannel::Options options = FastRetry();
  options.max_attempts = 1000;
  net::RetryingChannel channel(client_.get(), options, &clock);
  Deadline deadline = Deadline::After(10'000'000, &clock);  // 10 ms budget
  auto r = channel.Call("nobody", kEcho, "x", /*idempotent=*/true, deadline);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsRetryable()) << r.status();
  // Far fewer than max_attempts: the deadline cut the loop off.
  EXPECT_LT(channel.retries(), 20u);
  EXPECT_GE(channel.retries(), 1u);
}

// ------------------------------------------------ FLStore under faults

/// FLStore cluster scaffold with injectable client retry options and
/// optional persistence (for crash-restart scenarios).
class FaultyFLStore {
 public:
  FaultyFLStore(uint32_t num_maintainers, uint64_t batch,
                const std::string& persist_dir = "")
      : journal_(num_maintainers, batch) {
    flstore::ClusterInfo info;
    info.journal = journal_;
    for (uint32_t i = 0; i < num_maintainers; ++i) {
      info.maintainers.push_back("dc0/maintainer/" + std::to_string(i));
    }
    info.indexers.push_back("dc0/indexer/0");
    controller_ = std::make_unique<flstore::ControllerServer>(
        &transport_, "dc0/controller", info);
    EXPECT_TRUE(controller_->Start().ok());
    indexer_ = std::make_unique<flstore::IndexerServer>(&transport_,
                                                        info.indexers[0]);
    EXPECT_TRUE(indexer_->Start().ok());
    for (uint32_t i = 0; i < num_maintainers; ++i) {
      flstore::MaintainerOptions mo;
      mo.index = i;
      mo.journal = journal_;
      if (persist_dir.empty()) {
        mo.store.mode = storage::SyncMode::kMemoryOnly;
      } else {
        mo.store.mode = storage::SyncMode::kBuffered;
        mo.store.dir = persist_dir + "/m" + std::to_string(i);
      }
      flstore::MaintainerServer::Options so;
      so.node = info.maintainers[i];
      so.peers = info.maintainers;
      so.indexers = info.indexers;
      so.gossip_interval_nanos = 500'000;
      if (!persist_dir.empty()) {
        so.dedup_sidecar = persist_dir + "/m" + std::to_string(i) + ".dedup";
      }
      maintainers_.push_back(std::make_unique<flstore::MaintainerServer>(
          &transport_, mo, so));
      EXPECT_TRUE(maintainers_.back()->Start().ok());
    }
  }

  std::unique_ptr<flstore::FLStoreClient> NewClient(const std::string& name) {
    flstore::ClientOptions options;
    options.retry.backoff.initial_nanos = 1'000'000;  // 1 ms
    options.retry.backoff.jitter = 0;
    options.retry.attempt_timeout = 100ms;
    options.retry.max_attempts = 6;
    options.retry.seed = 21;
    auto client = std::make_unique<flstore::FLStoreClient>(
        &transport_, "dc0/client/" + name, "dc0/controller", options);
    EXPECT_TRUE(client->Start().ok());
    return client;
  }

  uint64_t TotalDedupHits() const {
    uint64_t hits = 0;
    for (const auto& m : maintainers_) hits += m->dedup().hits();
    return hits;
  }

  net::InProcTransport transport_;
  flstore::EpochJournal journal_;
  std::unique_ptr<flstore::ControllerServer> controller_;
  std::unique_ptr<flstore::IndexerServer> indexer_;
  std::vector<std::unique_ptr<flstore::MaintainerServer>> maintainers_;
};

TEST(FLStoreFaultTest, DroppedAppendResponseYieldsSameLIdOnRetry) {
  FaultyFLStore cluster(2, 4);
  cluster.transport_.Seed(ScenarioSeed(31));
  // Swallow the maintainer's first kAppend *response*; the client's retried
  // request must hit the dedup window and get the original LId back, not a
  // second record.
  cluster.transport_.faults().DropNth(
      FaultSchedule::Both(FaultSchedule::FromPrefix("dc0/maintainer"),
                          FaultSchedule::TypeIs(flstore::kAppend)),
      /*nth=*/1);
  auto client = cluster.NewClient("a");
  flstore::LogRecord rec;
  rec.body = "exactly once";
  auto lid = client->Append(rec);
  ASSERT_TRUE(lid.ok()) << lid.status();
  EXPECT_GE(client->retries(), 1u);
  EXPECT_EQ(cluster.TotalDedupHits(), 1u);
  // The retry returned the *original* assignment: the record reads back at
  // that LId, and a fresh append gets a different one.
  auto read = client->Read(*lid);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read->body, "exactly once");
  auto lid2 = client->Append(rec);
  ASSERT_TRUE(lid2.ok());
  EXPECT_NE(*lid2, *lid);
}

TEST(FLStoreFaultTest, DuplicatedAppendRequestExecutesOnce) {
  FaultyFLStore cluster(2, 4);
  cluster.transport_.Seed(ScenarioSeed(32));
  // Deliver the client's first kAppend request twice (a retransmission-style
  // duplicate, 1 ms late). The maintainer must execute it once and answer
  // the copy from the dedup window.
  cluster.transport_.faults().DuplicateNth(
      FaultSchedule::Both(FaultSchedule::FromPrefix("dc0/client"),
                          FaultSchedule::TypeIs(flstore::kAppend)),
      /*nth=*/1, /*count=*/1, /*dup_delay_nanos=*/1'000'000);
  auto client = cluster.NewClient("a");
  std::set<flstore::LId> lids;
  for (int i = 0; i < 10; ++i) {
    flstore::LogRecord rec;
    rec.body = "r" + std::to_string(i);
    auto lid = client->Append(rec);
    ASSERT_TRUE(lid.ok()) << lid.status();
    EXPECT_TRUE(lids.insert(*lid).second) << "duplicate LId " << *lid;
  }
  // The duplicated copy may still be in flight; wait for it to land.
  for (int i = 0; i < 1000 && cluster.TotalDedupHits() == 0; ++i) {
    std::this_thread::sleep_for(1ms);
  }
  EXPECT_EQ(cluster.TotalDedupHits(), 1u);
  EXPECT_EQ(lids.size(), 10u);
}

TEST(FLStoreFaultTest, MaintainerCrashRestartKeepsLogAndDedupState) {
  fs::path dir = fs::temp_directory_path() / "chariots_fault_restart";
  fs::remove_all(dir);
  fs::create_directories(dir);
  {
    FaultyFLStore cluster(1, 8, dir.string());
    auto client = cluster.NewClient("a");
    std::set<flstore::LId> lids;
    for (int i = 0; i < 5; ++i) {
      flstore::LogRecord rec;
      rec.body = "pre" + std::to_string(i);
      auto lid = client->Append(rec);
      ASSERT_TRUE(lid.ok()) << lid.status();
      lids.insert(*lid);
    }
    // Crash-and-restart: store segments and the dedup sidecar are replayed
    // from disk; the gossip view restarts cold.
    ASSERT_TRUE(cluster.maintainers_[0]->Restart().ok());
    EXPECT_EQ(cluster.maintainers_[0]->dedup().entries(), 5u);
    for (int i = 0; i < 5; ++i) {
      flstore::LogRecord rec;
      rec.body = "post" + std::to_string(i);
      auto lid = client->Append(rec);
      ASSERT_TRUE(lid.ok()) << lid.status();
      EXPECT_TRUE(lids.insert(*lid).second) << "LId reused after restart";
    }
    EXPECT_EQ(lids.size(), 10u);
    // Pre-crash records survived the restart.
    for (flstore::LId lid : lids) {
      EXPECT_TRUE(client->Read(lid).ok()) << "lid " << lid;
    }
  }
  fs::remove_all(dir);
}

TEST(FLStoreFaultTest, AppendsRideThroughACrashWindow) {
  FaultyFLStore cluster(1, 8);
  auto client = cluster.NewClient("a");
  // Warm up one append so the session is established.
  flstore::LogRecord rec;
  rec.body = "warmup";
  ASSERT_TRUE(client->Append(rec).ok());
  // The maintainer goes dark for 150 ms from now: requests delivered in the
  // window vanish, exactly like a crashed process. The client's retry loop
  // (100 ms attempt timeout, 6 attempts) must carry the append across.
  int64_t now = SystemClock::Default()->NowNanos();
  cluster.transport_.faults().CrashWindow("dc0/maintainer/0", now,
                                          now + 150'000'000);
  rec.body = "through the outage";
  auto lid = client->Append(rec);
  ASSERT_TRUE(lid.ok()) << lid.status();
  EXPECT_GE(client->retries(), 1u);
  auto read = client->Read(*lid);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read->body, "through the outage");
}

TEST(FLStoreFaultTest, GossipConvergesAfterPartitionHeals) {
  FaultyFLStore cluster(2, 2);
  // Sever maintainer<->maintainer gossip. Clients still reach both
  // maintainers, so appends proceed; only HL knowledge is partitioned.
  cluster.transport_.Partition("dc0/maintainer/0", "dc0/maintainer/1");
  auto client = cluster.NewClient("a");
  for (int i = 0; i < 8; ++i) {
    flstore::LogRecord rec;
    rec.body = "x";
    ASSERT_TRUE(client->Append(rec).ok());
  }
  // Both maintainers are fully filled (8 records, batch 2, round-robin),
  // but neither can learn the other's fill level across the partition, so
  // HL must stay below the true head. (A gossip round may have slipped in
  // between cluster start and Partition(), so HL needn't be exactly 0.)
  for (int i = 0; i < 5; ++i) {
    std::this_thread::sleep_for(10ms);
    auto hl = client->HeadOfLog();
    ASSERT_TRUE(hl.ok());
    EXPECT_LT(*hl, 8u) << "HL reached the head across a gossip partition";
  }
  // Heal: gossip resumes and HL converges to the true head.
  cluster.transport_.Heal("dc0/maintainer/0", "dc0/maintainer/1");
  flstore::LId converged = 0;
  for (int i = 0; i < 1000 && converged < 8; ++i) {
    std::this_thread::sleep_for(1ms);
    auto r = client->HeadOfLog();
    ASSERT_TRUE(r.ok());
    converged = *r;
  }
  EXPECT_EQ(converged, 8u);
}

// --------------------------------------------- geo-replication under faults

class GeoFaultCluster {
 public:
  explicit GeoFaultCluster(uint32_t n, geo::ChariotsConfig base = {}) {
    fabric_ = std::make_unique<geo::TransportFabric>(&transport_);
    for (uint32_t d = 0; d < n; ++d) {
      geo::ChariotsConfig config = base;
      config.dc_id = d;
      config.num_datacenters = n;
      config.sender_resend_nanos = 10'000'000;  // 10 ms
      config.sender_resend_max_nanos = 40'000'000;
      dcs_.push_back(
          std::make_unique<geo::Datacenter>(config, fabric_.get()));
      EXPECT_TRUE(dcs_.back()->Start().ok());
    }
  }

  ~GeoFaultCluster() {
    for (auto& dc : dcs_) dc->Stop();
  }

  geo::Datacenter& dc(uint32_t d) { return *dcs_[d]; }

  net::InProcTransport transport_;
  std::unique_ptr<geo::TransportFabric> fabric_;
  std::vector<std::unique_ptr<geo::Datacenter>> dcs_;
};

TEST(GeoFaultTest, PartitionHealDeliversExactlyOnce) {
  const uint64_t incorporated1 =
      CounterValue("chariots.dc1.records_incorporated");
  const uint64_t rewinds = CounterValue("chariots.sender.rewinds");
  GeoFaultCluster cluster(2);
  cluster.transport_.Seed(ScenarioSeed(41));
  cluster.transport_.Partition("geo/dc0", "geo/dc1");
  geo::ChariotsClient client(&cluster.dc(0));
  constexpr int kRecords = 20;
  for (int i = 1; i <= kRecords; ++i) {
    ASSERT_TRUE(client.Append("r" + std::to_string(i)).ok());
  }
  // Let the sender probe the dead link long enough to rewind at least once
  // (resend timer 10 ms, backed off exponentially).
  std::this_thread::sleep_for(100ms);
  EXPECT_EQ(CounterValue("chariots.dc1.records_incorporated") - incorporated1,
            0u);
  // Only dc0 has records to send, so every rewind is dc0's.
  EXPECT_GE(CounterValue("chariots.sender.rewinds") - rewinds, 1u);

  cluster.transport_.Heal("geo/dc0", "geo/dc1");
  ASSERT_TRUE(cluster.dc(1).WaitForToid(0, kRecords, kWaitNanos));
  // Exactly once, in order: toids 1..N each appear a single time.
  auto records = cluster.dc(1).ReadRange(0, 100);
  ASSERT_EQ(records.size(), static_cast<size_t>(kRecords));
  for (int i = 0; i < kRecords; ++i) {
    EXPECT_EQ(records[i].host, 0u);
    EXPECT_EQ(records[i].toid, static_cast<geo::TOId>(i + 1));
  }
}

TEST(GeoFaultTest, LossyLinkStillConvergesExactlyOnce) {
  GeoFaultCluster cluster(2);
  // 20% loss in both directions, seeded: retransmissions recover every
  // batch and receiver-side dedup keeps incorporation exactly-once.
  cluster.transport_.Seed(ScenarioSeed(43));
  cluster.transport_.faults().DropWithProbability(
      FaultSchedule::ToPrefix("geo/"), 0.2);
  geo::ChariotsClient client(&cluster.dc(0));
  constexpr int kRecords = 30;
  for (int i = 1; i <= kRecords; ++i) {
    ASSERT_TRUE(client.Append("r" + std::to_string(i)).ok());
  }
  ASSERT_TRUE(cluster.dc(1).WaitForToid(0, kRecords, kWaitNanos));
  auto records = cluster.dc(1).ReadRange(0, 100);
  ASSERT_EQ(records.size(), static_cast<size_t>(kRecords));
  std::set<geo::TOId> toids;
  for (const auto& r : records) {
    EXPECT_TRUE(toids.insert(r.toid).second) << "duplicate toid " << r.toid;
  }
  EXPECT_EQ(*toids.rbegin(), static_cast<geo::TOId>(kRecords));
}

TEST(GeoFaultTest, CongestedPipelineRefusesAppendsWithoutConsumingToids) {
  geo::ChariotsConfig base;
  base.max_pipeline_pending = 4;
  const uint64_t refused0 = CounterValue("chariots.dc0.appends_refused");
  GeoFaultCluster cluster(2, base);
  // Every record depends on toid 100 of dc1, which never appends anything —
  // unsatisfiable (own-host deps are the toid order itself and ignored), so
  // each record parks in the token's deferred set and the backlog only grows.
  geo::DepVector impossible{0, 100};
  int accepted = 0;
  Status refused = Status::OK();
  for (int i = 0; i < 200 && refused.ok(); ++i) {
    auto r = cluster.dc(0).TryAppend("r", {}, impossible);
    if (r.ok()) {
      ++accepted;
    } else {
      refused = r.status();
    }
    std::this_thread::sleep_for(1ms);
  }
  ASSERT_FALSE(refused.ok()) << "admission control never engaged";
  EXPECT_EQ(refused.code(), StatusCode::kUnavailable);
  EXPECT_TRUE(refused.IsRetryable());
  EXPECT_GE(accepted, 1);
  EXPECT_GE(CounterValue("chariots.dc0.appends_refused") - refused0, 1u);
  // Refused appends consumed no TOId: the max handed out equals the
  // accepted count.
  EXPECT_EQ(cluster.dc(0).max_local_toid(),
            static_cast<geo::TOId>(accepted));
  // Destruction must not deadlock on the deferred records (TokenLoop
  // abandons them at shutdown) — the test completing is the assertion.
}

// Fails the first `failures` vectored writes after Arm(), then recovers;
// every other call goes to the engine $CHARIOTS_IO_ENGINE names. `on_fail`
// runs inside each failed write, on the writer's thread.
class FailingIoEngine : public storage::IoEngine {
 public:
  const char* name() const override { return "failing"; }

  void Arm(int failures, std::function<void()> on_fail) {
    on_fail_ = std::move(on_fail);
    failures_.store(failures);
  }

  Status Appendv(int fd, std::span<const std::string_view> parts,
                 bool sync) override {
    if (failures_.load() > 0) {
      failures_.fetch_sub(1);
      on_fail_();
      return Status::IOError("injected: write failed");
    }
    return inner_->Appendv(fd, parts, sync);
  }

  Status Fsync(int fd) override { return inner_->Fsync(fd); }

  int failures_left() const { return failures_.load(); }

 private:
  storage::IoEngine* const inner_ = storage::IoEngineFromEnv();
  std::atomic<int> failures_{0};
  std::function<void()> on_fail_;
};

TEST(GeoFaultTest, FailedMaintainerWriteHoldsHeadAndRetriesInOrder) {
  // A maintainer write that fails must not leave a hole under the head:
  // the head stops at the first unwritten LId, nothing past it is acked,
  // and the token retries the run's unwritten suffix — in LId order, before
  // admitting anything new — until the disk recovers.
  const fs::path dir =
      fs::temp_directory_path() / "chariots_geo_failed_write";
  fs::remove_all(dir);
  FailingIoEngine engine;
  geo::ChariotsConfig config;
  config.num_maintainers = 2;
  config.stripe_batch = 2;  // runs cross maintainers: partial writes happen
  config.store_mode = storage::SyncMode::kFsyncEach;
  config.store_dir = dir.string();
  config.io_engine = &engine;
  constexpr int kBefore = 5;
  constexpr int kDuring = 20;
  constexpr int kFailures = 6;

  std::mutex mu;
  std::vector<std::pair<geo::TOId, flstore::LId>> acks;
  auto on_ack = [&](geo::TOId toid, flstore::LId lid) {
    std::lock_guard<std::mutex> lock(mu);
    acks.emplace_back(toid, lid);
  };
  auto acked = [&] {
    std::lock_guard<std::mutex> lock(mu);
    return acks.size();
  };
  auto wait_acked = [&](size_t n) {
    const auto deadline = std::chrono::steady_clock::now() + 10s;
    while (acked() < n && std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(1ms);
    }
    return acked() == n;
  };
  {
    geo::Datacenter dc(config);
    ASSERT_TRUE(dc.Start().ok());
    for (int i = 0; i < kBefore; ++i) dc.Append("before", {}, {}, on_ack);
    ASSERT_TRUE(wait_acked(kBefore));
    ASSERT_EQ(dc.HeadLid(), flstore::LId{kBefore});

    // Snapshots taken inside each failed write, on the token task.
    std::vector<std::pair<flstore::LId, size_t>> at_failure;
    engine.Arm(kFailures, [&] { at_failure.emplace_back(dc.HeadLid(), acked()); });
    for (int i = 0; i < kDuring; ++i) dc.Append("during", {}, {}, on_ack);
    ASSERT_TRUE(wait_acked(kBefore + kDuring));
    EXPECT_EQ(engine.failures_left(), 0);
    ASSERT_EQ(at_failure.size(), size_t{kFailures});
    for (const auto& [head, acks_then] : at_failure) {
      EXPECT_EQ(head, flstore::LId{kBefore});  // the first unwritten LId
      EXPECT_EQ(acks_then, size_t{kBefore});   // no ack arrived early
    }
    EXPECT_EQ(dc.HeadLid(), flstore::LId{kBefore + kDuring});
    for (flstore::LId lid = 0; lid < dc.HeadLid(); ++lid) {
      auto record = dc.Read(lid);
      ASSERT_TRUE(record.ok()) << "lid " << lid;
      EXPECT_EQ(record->toid, lid + 1);
    }
  }
  // Every record acked exactly once, in TOId order, at consecutive LIds.
  ASSERT_EQ(acks.size(), size_t{kBefore + kDuring});
  for (size_t i = 0; i < acks.size(); ++i) {
    EXPECT_EQ(acks[i].first, i + 1);
    EXPECT_EQ(acks[i].second, i);
  }
  // The retried writes survive a restart with no hole.
  {
    geo::Datacenter dc(config);
    ASSERT_TRUE(dc.Start().ok());
    EXPECT_EQ(dc.HeadLid(), flstore::LId{kBefore + kDuring});
  }
  fs::remove_all(dir);
}

}  // namespace
}  // namespace chariots
