// Tests for the three applications built on Chariots (paper §4): Hyksos
// (causal KV with get transactions), multi-datacenter event processing with
// exactly-once, and Message Futures strongly consistent transactions.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <thread>

#include "apps/hyksos.h"
#include "apps/msgfutures.h"
#include "apps/stream.h"
#include "apps/workload.h"
#include "chariots/fabric.h"
#include "net/inproc_transport.h"

namespace chariots::apps {
namespace {

using namespace std::chrono_literals;
constexpr int64_t kWaitNanos = 5'000'000'000;

class AppsCluster {
 public:
  explicit AppsCluster(uint32_t n, int64_t wan_latency_nanos = 0) {
    fabric_ = std::make_unique<geo::TransportFabric>(&transport_);
    if (wan_latency_nanos > 0) {
      net::LinkOptions wan;
      wan.latency_nanos = wan_latency_nanos;
      transport_.SetLink("geo/", "geo/", wan);
    }
    for (uint32_t d = 0; d < n; ++d) {
      geo::ChariotsConfig config;
      config.dc_id = d;
      config.num_datacenters = n;
      config.sender_resend_nanos = 20'000'000;
      dcs_.push_back(std::make_unique<geo::Datacenter>(config, fabric_.get()));
      EXPECT_TRUE(dcs_.back()->Start().ok());
    }
  }
  ~AppsCluster() {
    for (auto& dc : dcs_) dc->Stop();
  }
  geo::Datacenter& dc(uint32_t d) { return *dcs_[d]; }
  net::InProcTransport& transport() { return transport_; }

 private:
  net::InProcTransport transport_;
  std::unique_ptr<geo::TransportFabric> fabric_;
  std::vector<std::unique_ptr<geo::Datacenter>> dcs_;
};

// ------------------------------------------------------------------ Hyksos

TEST(HyksosTest, PutGetSingleDatacenter) {
  AppsCluster cluster(1);
  Hyksos kv(&cluster.dc(0));
  ASSERT_TRUE(kv.Put("x", "10").ok());
  auto v = kv.Get("x");
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, "10");
  EXPECT_TRUE(kv.Get("missing").status().IsNotFound());
}

TEST(HyksosTest, OverwriteReturnsLatest) {
  AppsCluster cluster(1);
  Hyksos kv(&cluster.dc(0));
  ASSERT_TRUE(kv.Put("x", "1").ok());
  ASSERT_TRUE(kv.Put("x", "2").ok());
  ASSERT_TRUE(kv.Put("x", "3").ok());
  EXPECT_EQ(*kv.Get("x"), "3");
}

TEST(HyksosTest, ReplicatedGetAcrossDatacenters) {
  AppsCluster cluster(2);
  Hyksos a(&cluster.dc(0));
  Hyksos b(&cluster.dc(1));
  ASSERT_TRUE(a.Put("shared", "v").ok());
  ASSERT_TRUE(cluster.dc(1).WaitForToid(0, 1, kWaitNanos));
  EXPECT_EQ(*b.Get("shared"), "v");
}

TEST(HyksosTest, GetTxnReturnsConsistentSnapshot) {
  // Paper Figure 2: a get transaction pinned at position i must return the
  // values as of i, even if newer values exist.
  AppsCluster cluster(1);
  Hyksos kv(&cluster.dc(0));
  ASSERT_TRUE(kv.Put("x", "10").ok());
  ASSERT_TRUE(kv.Put("y", "20").ok());
  ASSERT_TRUE(kv.Put("z", "40").ok());
  auto snap = kv.GetTxn({"x", "y", "z"});
  ASSERT_TRUE(snap.ok());
  EXPECT_EQ((*snap)["x"], "10");
  EXPECT_EQ((*snap)["y"], "20");
  EXPECT_EQ((*snap)["z"], "40");
  // Newer writes do not leak into an already-pinned view: re-check by
  // querying as-of the earlier snapshot position explicitly.
  flstore::LId pinned = kv.SnapshotPosition();
  ASSERT_TRUE(kv.Put("y", "50").ok());
  geo::ChariotsClient probe(&cluster.dc(0));
  auto y_old = probe.ReadMostRecent("kv:y", pinned);
  ASSERT_TRUE(y_old.ok());
  EXPECT_EQ(y_old->body, "20");
  EXPECT_EQ(*kv.Get("y"), "50");
}

TEST(HyksosTest, GetTxnSkipsUnwrittenKeys) {
  AppsCluster cluster(1);
  Hyksos kv(&cluster.dc(0));
  ASSERT_TRUE(kv.Put("a", "1").ok());
  auto snap = kv.GetTxn({"a", "never-written"});
  ASSERT_TRUE(snap.ok());
  EXPECT_EQ(snap->size(), 1u);
  EXPECT_EQ((*snap)["a"], "1");
}

TEST(HyksosTest, CausalReadYourWritesChain) {
  // Alice writes x at DC0; Bob reads x at DC1 then writes y; Carol at DC0
  // who sees y must also see x (transitivity, paper §3).
  AppsCluster cluster(2, 500'000);
  Hyksos alice(&cluster.dc(0));
  ASSERT_TRUE(alice.Put("x", "from-alice").ok());
  ASSERT_TRUE(cluster.dc(1).WaitForToid(0, 1, kWaitNanos));

  Hyksos bob(&cluster.dc(1));
  ASSERT_TRUE(bob.Get("x").ok());  // read establishes the dependency
  ASSERT_TRUE(bob.Put("y", "after-x").ok());

  ASSERT_TRUE(cluster.dc(0).WaitForToid(1, 1, kWaitNanos));
  Hyksos carol(&cluster.dc(0));
  auto y = carol.Get("y");
  ASSERT_TRUE(y.ok());
  // Because y is in DC0's log, x is necessarily before it.
  auto x = carol.Get("x");
  ASSERT_TRUE(x.ok());
  EXPECT_EQ(*x, "from-alice");
}

TEST(HyksosTest, DeleteMakesKeyNotFound) {
  AppsCluster cluster(1);
  Hyksos kv(&cluster.dc(0));
  ASSERT_TRUE(kv.Put("x", "1").ok());
  ASSERT_TRUE(kv.Del("x").ok());
  EXPECT_TRUE(kv.Get("x").status().IsNotFound());
  // Re-put after delete works (accumulation of changes).
  ASSERT_TRUE(kv.Put("x", "2").ok());
  EXPECT_EQ(*kv.Get("x"), "2");
}

TEST(HyksosTest, DeleteReplicatesAndSnapshotExcludesIt) {
  AppsCluster cluster(2);
  Hyksos a(&cluster.dc(0));
  Hyksos b(&cluster.dc(1));
  ASSERT_TRUE(a.Put("k", "v").ok());
  ASSERT_TRUE(a.Del("k").ok());
  ASSERT_TRUE(cluster.dc(1).WaitForToid(0, 2, kWaitNanos));
  EXPECT_TRUE(b.Get("k").status().IsNotFound());
  auto snap = b.GetTxn({"k"});
  ASSERT_TRUE(snap.ok());
  EXPECT_EQ(snap->count("k"), 0u);
}

// ------------------------------------------------------------------ Stream

TEST(StreamTest, PublishPollSingleDatacenter) {
  AppsCluster cluster(1);
  EventPublisher pub(&cluster.dc(0), "clicks");
  EventReader reader(&cluster.dc(0), "clicks", "g1");
  ASSERT_TRUE(pub.Publish("click-a").ok());
  ASSERT_TRUE(pub.Publish("click-b").ok());
  auto events = reader.Poll();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].payload, "click-a");
  EXPECT_EQ(events[1].payload, "click-b");
  // No re-delivery on subsequent polls.
  EXPECT_TRUE(reader.Poll().empty());
}

TEST(StreamTest, TopicsAreIsolated) {
  AppsCluster cluster(1);
  EventPublisher clicks(&cluster.dc(0), "clicks");
  EventPublisher views(&cluster.dc(0), "views");
  ASSERT_TRUE(clicks.Publish("c").ok());
  ASSERT_TRUE(views.Publish("v").ok());
  EventReader reader(&cluster.dc(0), "clicks", "g1");
  auto events = reader.Poll();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].payload, "c");
}

TEST(StreamTest, JoinsStreamsFromMultipleDatacenters) {
  // Paper §4.2 / Photon: one reader sees the union of events published at
  // every datacenter.
  AppsCluster cluster(3);
  EventPublisher p0(&cluster.dc(0), "clicks");
  EventPublisher p1(&cluster.dc(1), "clicks");
  EventPublisher p2(&cluster.dc(2), "clicks");
  ASSERT_TRUE(p0.Publish("from-0").ok());
  ASSERT_TRUE(p1.Publish("from-1").ok());
  ASSERT_TRUE(p2.Publish("from-2").ok());
  for (uint32_t d = 0; d < 3; ++d) {
    ASSERT_TRUE(cluster.dc(0).WaitForToid(d, 1, kWaitNanos));
  }
  EventReader reader(&cluster.dc(0), "clicks", "join");
  auto events = reader.Poll();
  ASSERT_EQ(events.size(), 3u);
  std::set<geo::DatacenterId> origins;
  for (const auto& e : events) origins.insert(e.origin);
  EXPECT_EQ(origins, (std::set<geo::DatacenterId>{0, 1, 2}));
}

TEST(StreamTest, CheckpointRestartIsExactlyOnce) {
  AppsCluster cluster(1);
  EventPublisher pub(&cluster.dc(0), "orders");
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(pub.Publish("o" + std::to_string(i)).ok());
  }
  CountingAggregator agg;
  {
    EventReader reader(&cluster.dc(0), "orders", "billing");
    auto events = reader.Poll(6);
    EXPECT_EQ(agg.Consume(events), 6u);
    ASSERT_TRUE(reader.Checkpoint().ok());
    // Reader "crashes" here: 6 processed and checkpointed.
  }
  // Failover: a new reader in the same group resumes from the checkpoint.
  EventReader reader2(&cluster.dc(0), "orders", "billing");
  auto events = reader2.Poll();
  EXPECT_EQ(agg.Consume(events), 4u);  // exactly the 4 unprocessed ones
  EXPECT_EQ(agg.total(), 10u);
}

TEST(StreamTest, UncheckpointedWorkIsRedeliveredNotLost) {
  AppsCluster cluster(1);
  EventPublisher pub(&cluster.dc(0), "t");
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(pub.Publish("e" + std::to_string(i)).ok());
  }
  CountingAggregator agg;
  {
    EventReader reader(&cluster.dc(0), "t", "g");
    agg.Consume(reader.Poll(3));  // processed but NOT checkpointed
  }
  EventReader reader2(&cluster.dc(0), "t", "g");
  auto events = reader2.Poll();
  EXPECT_EQ(events.size(), 5u);             // at-least-once redelivery
  EXPECT_EQ(agg.Consume(events), 2u);       // dedup makes it exactly-once
  EXPECT_EQ(agg.total(), 5u);
}

TEST(StreamTest, IndependentGroupsIndependentCursors) {
  AppsCluster cluster(1);
  EventPublisher pub(&cluster.dc(0), "t");
  ASSERT_TRUE(pub.Publish("e").ok());
  EventReader g1(&cluster.dc(0), "t", "g1");
  EventReader g2(&cluster.dc(0), "t", "g2");
  EXPECT_EQ(g1.Poll().size(), 1u);
  ASSERT_TRUE(g1.Checkpoint().ok());
  EXPECT_EQ(g2.Poll().size(), 1u);  // g2 unaffected by g1's checkpoint
}

TEST(StreamTest, ShardedReadersPartitionTheTopicExactly) {
  AppsCluster cluster(1);
  EventPublisher pub(&cluster.dc(0), "t");
  for (int i = 0; i < 30; ++i) {
    ASSERT_TRUE(pub.Publish("e" + std::to_string(i)).ok());
  }
  constexpr uint32_t kShards = 3;
  std::set<flstore::LId> seen;
  size_t total = 0;
  for (uint32_t s = 0; s < kShards; ++s) {
    ShardedEventReader reader(&cluster.dc(0), "t", "g", s, kShards);
    auto events = reader.Poll(100);
    for (const Event& e : events) {
      EXPECT_EQ(e.lid % kShards, s);           // own stripe only
      EXPECT_TRUE(seen.insert(e.lid).second);  // no overlap across shards
    }
    total += events.size();
  }
  EXPECT_EQ(total, 30u);  // union covers the topic exactly once
}

TEST(StreamTest, ShardedReaderCheckpointsIndependently) {
  AppsCluster cluster(1);
  EventPublisher pub(&cluster.dc(0), "t");
  for (int i = 0; i < 12; ++i) {
    ASSERT_TRUE(pub.Publish("e").ok());
  }
  size_t first_batch = 0;
  {
    ShardedEventReader shard0(&cluster.dc(0), "t", "g", 0, 2);
    first_batch = shard0.Poll(3).size();
    ASSERT_TRUE(shard0.Checkpoint().ok());
  }
  // Replacement shard-0 worker resumes; shard 1 is unaffected.
  ShardedEventReader shard0b(&cluster.dc(0), "t", "g", 0, 2);
  ShardedEventReader shard1(&cluster.dc(0), "t", "g", 1, 2);
  size_t rest0 = shard0b.Poll(100).size();
  size_t all1 = shard1.Poll(100).size();
  EXPECT_EQ(first_batch + rest0, 6u);  // shard 0's half, exactly once
  EXPECT_EQ(all1, 6u);                 // shard 1 still sees its whole half
}

TEST(StreamTest, PushProcessorDeliversAsRecordsLand) {
  net::InProcTransport transport;
  geo::TransportFabric fabric(&transport);
  geo::ChariotsConfig config;
  config.num_datacenters = 1;
  geo::Datacenter dc(config, &fabric);
  std::mutex mu;
  std::vector<std::string> pushed;
  PushProcessor::Attach(&dc, "alerts", [&](const Event& e) {
    std::lock_guard<std::mutex> lock(mu);
    pushed.push_back(e.payload);
  });
  ASSERT_TRUE(dc.Start().ok());

  EventPublisher alerts(&dc, "alerts");
  EventPublisher noise(&dc, "noise");
  ASSERT_TRUE(alerts.Publish("cpu-high").ok());
  ASSERT_TRUE(noise.Publish("irrelevant").ok());
  ASSERT_TRUE(alerts.Publish("disk-full").ok());

  // Publish() waits for durability, and subscribers run before the
  // acknowledgment, so everything is delivered by now. (Check in its own
  // scope: holding the subscriber mutex across Stop() would deadlock the
  // token thread.)
  {
    std::lock_guard<std::mutex> lock(mu);
    EXPECT_EQ(pushed, (std::vector<std::string>{"cpu-high", "disk-full"}));
  }
  dc.Stop();
}

// ---------------------------------------------------------- MessageFutures

TEST(MsgFuturesTest, TxnCodecRoundTrip) {
  TxnRecord t;
  t.reads = {"a", "b"};
  t.writes = {{"c", "1"}, {"d", "2"}};
  auto d = DecodeTxnRecord(EncodeTxnRecord(t));
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(d->reads, t.reads);
  EXPECT_EQ(d->writes, t.writes);
}

TEST(MsgFuturesTest, SingleDatacenterCommit) {
  AppsCluster cluster(1);
  MessageFutures mf(&cluster.dc(0));
  auto txn = mf.Begin();
  txn.Put("balance", "100");
  auto outcome = mf.Commit(txn);
  ASSERT_TRUE(outcome.ok()) << outcome.status();
  EXPECT_EQ(*outcome, TxnOutcome::kCommitted);
  EXPECT_EQ(*mf.Get("balance"), "100");
}

TEST(MsgFuturesTest, ReadYourOwnWritesInTxn) {
  AppsCluster cluster(1);
  MessageFutures mf(&cluster.dc(0));
  auto txn = mf.Begin();
  txn.Put("k", "v");
  auto v = txn.Get("k");
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, "v");
}

TEST(MsgFuturesTest, SequentialTxnsSeeEachOther) {
  AppsCluster cluster(1);
  MessageFutures mf(&cluster.dc(0));
  auto t1 = mf.Begin();
  t1.Put("x", "1");
  ASSERT_EQ(*mf.Commit(t1), TxnOutcome::kCommitted);
  auto t2 = mf.Begin();
  auto x = t2.Get("x");
  ASSERT_TRUE(x.ok());
  t2.Put("x", "2");
  ASSERT_EQ(*mf.Commit(t2), TxnOutcome::kCommitted);
  EXPECT_EQ(*mf.Get("x"), "2");
}

TEST(MsgFuturesTest, NonConflictingConcurrentTxnsBothCommit) {
  AppsCluster cluster(2);
  MessageFutures mf0(&cluster.dc(0));
  MessageFutures mf1(&cluster.dc(1));
  mf0.StartBackground();
  mf1.StartBackground();

  auto t0 = mf0.Begin();
  t0.Put("a", "from-0");
  auto t1 = mf1.Begin();
  t1.Put("b", "from-1");

  TxnOutcome o0{}, o1{};
  std::thread c0([&] { o0 = *mf0.Commit(t0); });
  std::thread c1([&] { o1 = *mf1.Commit(t1); });
  c0.join();
  c1.join();
  EXPECT_EQ(o0, TxnOutcome::kCommitted);
  EXPECT_EQ(o1, TxnOutcome::kCommitted);

  // Both replicas converge to the same state.
  int64_t deadline = SystemClock::Default()->NowNanos() + kWaitNanos;
  while (SystemClock::Default()->NowNanos() < deadline) {
    if (mf0.Get("b").ok() && mf1.Get("a").ok()) break;
    std::this_thread::sleep_for(1ms);
  }
  EXPECT_EQ(*mf0.Get("a"), "from-0");
  EXPECT_EQ(*mf0.Get("b"), "from-1");
  EXPECT_EQ(*mf1.Get("a"), "from-0");
  EXPECT_EQ(*mf1.Get("b"), "from-1");
}

TEST(MsgFuturesTest, ConflictingConcurrentTxnsExactlyOneCommits) {
  AppsCluster cluster(2);
  // Make the window wide enough that the transactions are genuinely
  // concurrent: hold replication back while both commit-append locally.
  cluster.transport().Partition("geo/dc0", "geo/dc1");
  MessageFutures mf0(&cluster.dc(0));
  MessageFutures mf1(&cluster.dc(1));
  mf0.StartBackground();
  mf1.StartBackground();

  auto t0 = mf0.Begin();
  t0.Put("hot", "zero");
  auto t1 = mf1.Begin();
  t1.Put("hot", "one");

  Result<TxnOutcome> o0(Status::Internal("unset"));
  Result<TxnOutcome> o1(Status::Internal("unset"));
  std::thread c0([&] { o0 = mf0.Commit(t0, 15000ms); });
  std::thread c1([&] { o1 = mf1.Commit(t1, 15000ms); });
  std::this_thread::sleep_for(50ms);  // both appended during the partition
  cluster.transport().Heal("geo/dc0", "geo/dc1");
  c0.join();
  c1.join();

  ASSERT_TRUE(o0.ok()) << o0.status();
  ASSERT_TRUE(o1.ok()) << o1.status();
  int commits = (*o0 == TxnOutcome::kCommitted ? 1 : 0) +
                (*o1 == TxnOutcome::kCommitted ? 1 : 0);
  EXPECT_EQ(commits, 1) << "exactly one of two conflicting writers wins";

  // Both replicas agree on the surviving value.
  std::string expected = *o0 == TxnOutcome::kCommitted ? "zero" : "one";
  int64_t deadline = SystemClock::Default()->NowNanos() + kWaitNanos;
  while (SystemClock::Default()->NowNanos() < deadline) {
    auto a = mf0.Get("hot");
    auto b = mf1.Get("hot");
    if (a.ok() && b.ok() && *a == *b) break;
    std::this_thread::sleep_for(1ms);
  }
  EXPECT_EQ(*mf0.Get("hot"), expected);
  EXPECT_EQ(*mf1.Get("hot"), expected);
}

TEST(MsgFuturesTest, WriteReadConflictDetected) {
  AppsCluster cluster(2);
  cluster.transport().Partition("geo/dc0", "geo/dc1");
  MessageFutures mf0(&cluster.dc(0));
  MessageFutures mf1(&cluster.dc(1));
  mf0.StartBackground();
  mf1.StartBackground();

  auto t0 = mf0.Begin();
  (void)t0.Get("inventory");  // anti-dependency
  t0.Put("order", "placed");
  auto t1 = mf1.Begin();
  t1.Put("inventory", "0");

  Result<TxnOutcome> o0(Status::Internal("unset"));
  Result<TxnOutcome> o1(Status::Internal("unset"));
  std::thread c0([&] { o0 = mf0.Commit(t0, 15000ms); });
  std::thread c1([&] { o1 = mf1.Commit(t1, 15000ms); });
  std::this_thread::sleep_for(50ms);
  cluster.transport().Heal("geo/dc0", "geo/dc1");
  c0.join();
  c1.join();
  ASSERT_TRUE(o0.ok());
  ASSERT_TRUE(o1.ok());
  // r/w conflict: they cannot both commit.
  EXPECT_FALSE(*o0 == TxnOutcome::kCommitted &&
               *o1 == TxnOutcome::kCommitted);
}

TEST(MsgFuturesTest, StaleReadAbortsInsteadOfLosingAnUpdate) {
  // dc0's transaction reads x, then a dc1 transaction overwriting x reaches
  // dc0 and is applied there before dc0 commits. Committing would order
  // dc0's transaction after a write it never saw (a lost update), so it
  // must abort, and x keeps dc1's value everywhere.
  AppsCluster cluster(2);
  MessageFutures mf0(&cluster.dc(0));
  MessageFutures mf1(&cluster.dc(1));
  mf0.StartBackground();
  mf1.StartBackground();
  auto init = mf0.Begin();
  init.Put("x", "0");
  ASSERT_EQ(*mf0.Commit(init), TxnOutcome::kCommitted);

  auto stale = mf0.Begin();
  ASSERT_EQ(*stale.Get("x"), "0");
  stale.Put("x", "from-0");
  auto overwrite = mf1.Begin();
  overwrite.Put("x", "from-1");
  ASSERT_EQ(*mf1.Commit(overwrite, 15000ms), TxnOutcome::kCommitted);
  int64_t deadline = SystemClock::Default()->NowNanos() + kWaitNanos;
  while (mf0.Get("x").value_or("") != "from-1" &&
         SystemClock::Default()->NowNanos() < deadline) {
    std::this_thread::sleep_for(1ms);
  }
  ASSERT_EQ(*mf0.Get("x"), "from-1");

  EXPECT_EQ(*mf0.Commit(stale, 15000ms), TxnOutcome::kAborted);
  EXPECT_EQ(*mf0.Get("x"), "from-1");
  EXPECT_EQ(*mf1.Get("x"), "from-1");
}

TEST(MsgFuturesTest, BankTransferInvariantUnderConcurrency) {
  // Classic serializability check: concurrent transfers between two
  // accounts never create or destroy money.
  AppsCluster cluster(2);
  MessageFutures mf0(&cluster.dc(0));
  MessageFutures mf1(&cluster.dc(1));
  mf0.StartBackground();
  mf1.StartBackground();

  auto init = mf0.Begin();
  init.Put("acct:a", "100");
  init.Put("acct:b", "100");
  ASSERT_EQ(*mf0.Commit(init), TxnOutcome::kCommitted);
  // Wait until DC1 has applied the initial state.
  int64_t deadline = SystemClock::Default()->NowNanos() + kWaitNanos;
  while (!mf1.Get("acct:a").ok() &&
         SystemClock::Default()->NowNanos() < deadline) {
    std::this_thread::sleep_for(1ms);
  }

  auto transfer = [](MessageFutures& mf, int amount) {
    for (int attempt = 0; attempt < 10; ++attempt) {
      auto txn = mf.Begin();
      auto a = txn.Get("acct:a");
      auto b = txn.Get("acct:b");
      if (!a.ok() || !b.ok()) continue;
      int va = std::stoi(*a), vb = std::stoi(*b);
      txn.Put("acct:a", std::to_string(va - amount));
      txn.Put("acct:b", std::to_string(vb + amount));
      auto outcome = mf.Commit(txn, std::chrono::milliseconds(15000));
      if (outcome.ok() && *outcome == TxnOutcome::kCommitted) return true;
      // Aborted: optimistic retry.
    }
    return false;
  };

  std::atomic<int> succeeded{0};
  std::thread w0([&] {
    for (int i = 0; i < 3; ++i) {
      if (transfer(mf0, 10)) ++succeeded;
    }
  });
  std::thread w1([&] {
    for (int i = 0; i < 3; ++i) {
      if (transfer(mf1, -5)) ++succeeded;
    }
  });
  w0.join();
  w1.join();
  EXPECT_GT(succeeded.load(), 0);

  // Converge: both replicas identical AND the invariant holds (reads are
  // not snapshot-atomic, so retry until the system quiesces).
  int total0 = 0, total1 = 0;
  deadline = SystemClock::Default()->NowNanos() + kWaitNanos;
  while (SystemClock::Default()->NowNanos() < deadline) {
    auto a0 = mf0.Get("acct:a");
    auto b0 = mf0.Get("acct:b");
    auto a1 = mf1.Get("acct:a");
    auto b1 = mf1.Get("acct:b");
    if (a0.ok() && b0.ok() && a1.ok() && b1.ok() && *a0 == *a1 &&
        *b0 == *b1) {
      total0 = std::stoi(*a0) + std::stoi(*b0);
      total1 = std::stoi(*a1) + std::stoi(*b1);
      if (total0 == 200 && total1 == 200) break;
    }
    std::this_thread::sleep_for(1ms);
  }
  EXPECT_EQ(total0, 200);
  EXPECT_EQ(total1, 200);
}

// ------------------------------------------------- WorkloadGenerator

TEST(WorkloadTest, MixFractionsRespected) {
  WorkloadOptions options;
  options.put_fraction = 0.3;
  options.delete_fraction = 0.1;
  options.get_txn_fraction = 0.1;
  WorkloadGenerator gen(options);
  std::map<OpType, int> counts;
  constexpr int kOps = 20000;
  for (int i = 0; i < kOps; ++i) ++counts[gen.Next().type];
  EXPECT_NEAR(counts[OpType::kPut] / double(kOps), 0.3, 0.03);
  EXPECT_NEAR(counts[OpType::kDelete] / double(kOps), 0.1, 0.02);
  EXPECT_NEAR(counts[OpType::kGetTxn] / double(kOps), 0.1, 0.02);
  EXPECT_NEAR(counts[OpType::kGet] / double(kOps), 0.5, 0.03);
}

TEST(WorkloadTest, ZipfianIsSkewedUniformIsNot) {
  auto hottest_share = [](KeyDistribution dist) {
    WorkloadOptions options;
    options.num_keys = 100;
    options.distribution = dist;
    options.put_fraction = 1.0;
    WorkloadGenerator gen(options);
    std::map<std::string, int> counts;
    for (int i = 0; i < 20000; ++i) ++counts[gen.Next().key];
    int max = 0;
    for (auto& [k, c] : counts) max = std::max(max, c);
    return max / 20000.0;
  };
  double zipf = hottest_share(KeyDistribution::kZipfian);
  double uniform = hottest_share(KeyDistribution::kUniform);
  EXPECT_GT(zipf, 0.1);      // a genuinely hot key
  EXPECT_LT(uniform, 0.03);  // ~1% each
  EXPECT_GT(zipf, uniform * 3);
}

TEST(WorkloadTest, DeterministicForSeed) {
  WorkloadOptions options;
  WorkloadGenerator a(options), b(options);
  for (int i = 0; i < 100; ++i) {
    Op oa = a.Next();
    Op ob = b.Next();
    EXPECT_EQ(static_cast<int>(oa.type), static_cast<int>(ob.type));
    EXPECT_EQ(oa.key, ob.key);
  }
}

TEST(WorkloadTest, KeysInRange) {
  WorkloadOptions options;
  options.num_keys = 7;
  options.distribution = KeyDistribution::kLatest;
  WorkloadGenerator gen(options);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(gen.NextKeyIndex(), 7u);
  }
}

}  // namespace
}  // namespace chariots::apps
