// Unit tests for the Chariots pipeline stages in isolation: filter map,
// batcher, filter, queue/token (paper §6.2) and the replication pieces.

#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include "chariots/batcher.h"
#include "chariots/fabric.h"
#include "chariots/filter.h"
#include "chariots/filter_map.h"
#include "chariots/queue.h"
#include "chariots/replication.h"
#include "common/clock.h"
#include "common/executor.h"
#include "common/metrics.h"
#include "net/inproc_transport.h"

namespace chariots::geo {
namespace {

// Stage counters live in the process-global registry: tests read the
// change across the code under test.
uint64_t CounterValue(const char* name) {
  return metrics::Registry::Default().GetCounter(name)->Value();
}

GeoRecord Rec(DatacenterId host, TOId toid, DepVector deps = {},
              std::string body = "") {
  GeoRecord r;
  r.host = host;
  r.toid = toid;
  r.deps = std::move(deps);
  r.body = std::move(body);
  return r;
}

// ---------------------------------------------------------------- FilterMap

TEST(FilterMapTest, FewerFiltersThanDatacenters) {
  FilterMap map(2, 5);  // filters champion whole DCs, host % 2
  for (TOId t = 1; t < 20; ++t) {
    EXPECT_EQ(map.FilterFor(0, t), 0u);
    EXPECT_EQ(map.FilterFor(1, t), 1u);
    EXPECT_EQ(map.FilterFor(4, t), 0u);
  }
}

TEST(FilterMapTest, MoreFiltersThanDatacentersSplitsByToid) {
  FilterMap map(4, 2);  // DC0 -> filters {0,2}, DC1 -> {1,3}
  std::set<uint32_t> dc0_filters, dc1_filters;
  for (TOId t = 1; t <= 100; ++t) {
    dc0_filters.insert(map.FilterFor(0, t));
    dc1_filters.insert(map.FilterFor(1, t));
  }
  EXPECT_EQ(dc0_filters, (std::set<uint32_t>{0, 2}));
  EXPECT_EQ(dc1_filters, (std::set<uint32_t>{1, 3}));
  // Exactly one filter champions each (host, toid).
  for (TOId t = 1; t <= 50; ++t) {
    uint64_t stride, phase;
    uint32_t f = map.FilterFor(0, t);
    ASSERT_TRUE(map.StrideFor(f, 0, t, &stride, &phase));
    EXPECT_EQ(stride, 2u);
    EXPECT_EQ(t % stride, phase);
  }
}

TEST(FilterMapTest, NextChampionedWalksOwnStride) {
  FilterMap map(4, 2);
  uint32_t f = map.FilterFor(0, 1);
  TOId next = map.NextChampioned(f, 0, 1);
  EXPECT_EQ(map.FilterFor(0, next), f);
  EXPECT_EQ(next, 3u);  // stride 2
}

TEST(FilterMapTest, FutureReassignmentTakesEffectAtBoundary) {
  FilterMap map(1, 1);
  // From toid 10, split DC0 between filters 0 and 1 (paper's odd/even).
  ASSERT_TRUE(map.Reassign(0, 10, {0, 1}).ok());
  for (TOId t = 1; t < 10; ++t) EXPECT_EQ(map.FilterFor(0, t), 0u);
  EXPECT_EQ(map.FilterFor(0, 10), 10 % 2 == 0 ? 0u : 1u);
  std::set<uint32_t> seen;
  for (TOId t = 10; t < 30; ++t) seen.insert(map.FilterFor(0, t));
  EXPECT_EQ(seen, (std::set<uint32_t>{0, 1}));
  EXPECT_EQ(map.num_filters(), 2u);
}

TEST(FilterMapTest, ReassignmentMustBeFuture) {
  FilterMap map(2, 1);
  ASSERT_TRUE(map.Reassign(0, 100, {0, 1}).ok());
  EXPECT_FALSE(map.Reassign(0, 50, {0}).ok());
  EXPECT_FALSE(map.Reassign(0, 100, {0}).ok());
  EXPECT_FALSE(map.Reassign(5, 200, {0}).ok());  // unknown DC
  EXPECT_FALSE(map.Reassign(0, 200, {}).ok());   // empty
}

TEST(FilterMapTest, NextChampionedCrossesReassignment) {
  FilterMap map(1, 1);
  // Filter 0 champions everything until 10; from 10 only even toids.
  ASSERT_TRUE(map.Reassign(0, 10, {0, 1}).ok());
  EXPECT_EQ(map.NextChampioned(0, 0, 8), 9u);
  EXPECT_EQ(map.NextChampioned(0, 0, 9), 10u);  // 10 % 2 == 0 -> filter 0
  EXPECT_EQ(map.NextChampioned(0, 0, 10), 12u);
  EXPECT_EQ(map.NextChampioned(1, 0, 0), 11u);  // filter 1's first odd
}

// ------------------------------------------------------------------ Batcher

TEST(BatcherTest, SubmitReachesFilterWithoutTimer) {
  // No size threshold and no flush timer: one record is delivered during
  // the Submit call itself. Under a virtual-time executor whose clock never
  // moves, nothing else could deliver it.
  ManualClock clock;
  Executor exec({.num_threads = 2, .name = "bt-virt", .manual_clock = &clock});
  FilterMap map(1, 1);
  std::vector<TOId> received;
  Batcher batcher(&map, [&](uint32_t f, std::vector<GeoRecord> b) {
    EXPECT_EQ(f, 0u);
    for (auto& r : b) received.push_back(r.toid);
  });
  const uint64_t records_in = CounterValue("chariots.batcher.records_in");
  batcher.Submit(Rec(0, 1));
  EXPECT_EQ(received, (std::vector<TOId>{1}));
  EXPECT_EQ(CounterValue("chariots.batcher.records_in") - records_in, 1u);
  exec.WaitIdle();
  EXPECT_EQ(exec.tasks_run(), 0u);
  EXPECT_EQ(clock.NowNanos(), 0);
}

TEST(BatcherTest, RoutesByChampion) {
  FilterMap map(2, 2);
  std::map<uint32_t, std::vector<TOId>> by_filter;
  Batcher batcher(&map, [&](uint32_t f, std::vector<GeoRecord> b) {
    for (auto& r : b) by_filter[f].push_back(r.toid);
  });
  batcher.Submit(Rec(0, 1));
  batcher.Submit(Rec(1, 1));
  batcher.Submit(Rec(0, 2));
  EXPECT_EQ(by_filter[0].size(), 2u);
  EXPECT_EQ(by_filter[1].size(), 1u);
}

TEST(BatcherTest, ConcurrentSubmitDeliversExactlyOnce) {
  // Whatever the interleaving of concurrent producers, each record must be
  // delivered exactly once.
  FilterMap map(4, 4);
  std::mutex mu;
  std::map<std::pair<uint32_t, TOId>, int> seen;
  std::atomic<uint64_t> delivered{0};
  Batcher batcher(&map, [&](uint32_t, std::vector<GeoRecord> b) {
    std::lock_guard<std::mutex> lock(mu);
    for (auto& r : b) ++seen[{r.host, r.toid}];
    delivered += b.size();
  });
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 3000;
  const uint64_t records_in = CounterValue("chariots.batcher.records_in");
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (TOId t = 1; t <= kPerProducer; ++t) {
        batcher.Submit(Rec(static_cast<DatacenterId>(p), t));
      }
    });
  }
  for (auto& t : producers) t.join();
  EXPECT_EQ(CounterValue("chariots.batcher.records_in") - records_in,
            uint64_t{kProducers} * kPerProducer);
  EXPECT_EQ(delivered.load(), uint64_t{kProducers} * kPerProducer);
  EXPECT_EQ(seen.size(), size_t{kProducers} * kPerProducer);
  for (const auto& [key, count] : seen) {
    ASSERT_EQ(count, 1) << "host " << key.first << " toid " << key.second;
  }
}

// ------------------------------------------------------------------- Filter

TEST(FilterTest, ForwardsInOrderAndDropsDuplicates) {
  FilterMap map(1, 1);
  std::vector<TOId> forwarded;
  Filter filter(0, &map, [&](GeoRecord r) { forwarded.push_back(r.toid); });
  std::vector<GeoRecord> batch;
  for (TOId t = 1; t <= 3; ++t) batch.push_back(Rec(0, t));
  batch.push_back(Rec(0, 2));  // duplicate
  const uint64_t dups = CounterValue("chariots.filter.duplicates_dropped");
  filter.Accept(std::move(batch));
  EXPECT_EQ(forwarded, (std::vector<TOId>{1, 2, 3}));
  EXPECT_EQ(CounterValue("chariots.filter.duplicates_dropped") - dups, 1u);
}

TEST(FilterTest, BuffersOutOfOrderUntilGapFills) {
  FilterMap map(1, 1);
  std::vector<TOId> forwarded;
  Filter filter(0, &map, [&](GeoRecord r) { forwarded.push_back(r.toid); });
  filter.Accept({Rec(0, 3), Rec(0, 2)});
  EXPECT_TRUE(forwarded.empty());
  EXPECT_EQ(filter.buffered(), 2u);
  filter.Accept({Rec(0, 1)});
  EXPECT_EQ(forwarded, (std::vector<TOId>{1, 2, 3}));
  EXPECT_EQ(filter.buffered(), 0u);
}

TEST(FilterTest, DuplicateOfBufferedRecordDropped) {
  FilterMap map(1, 1);
  std::vector<TOId> forwarded;
  Filter filter(0, &map, [&](GeoRecord r) { forwarded.push_back(r.toid); });
  const uint64_t dups = CounterValue("chariots.filter.duplicates_dropped");
  filter.Accept({Rec(0, 5), Rec(0, 5)});
  EXPECT_EQ(CounterValue("chariots.filter.duplicates_dropped") - dups, 1u);
}

TEST(FilterTest, StrideChampionSkipsOthersToids) {
  FilterMap map(4, 2);  // DC0 split across filters 0 and 2 (stride 2)
  std::vector<TOId> forwarded;
  uint32_t f = map.FilterFor(0, 2);
  Filter filter(f, &map, [&](GeoRecord r) { forwarded.push_back(r.toid); });
  // Feed only this filter's championed toids, in order: works without
  // seeing the other stride's records at all.
  TOId t = map.NextChampioned(f, 0, 0);
  std::vector<GeoRecord> batch;
  for (int i = 0; i < 3; ++i) {
    batch.push_back(Rec(0, t));
    t = map.NextChampioned(f, 0, t);
  }
  filter.Accept(std::move(batch));
  EXPECT_EQ(forwarded.size(), 3u);
}

TEST(FilterTest, MisroutedRecordPassesThrough) {
  FilterMap map(2, 2);
  std::vector<TOId> forwarded;
  Filter filter(0, &map, [&](GeoRecord r) { forwarded.push_back(r.toid); });
  const uint64_t misrouted = CounterValue("chariots.filter.misrouted");
  filter.Accept({Rec(1, 1)});  // championed by filter 1
  EXPECT_EQ(CounterValue("chariots.filter.misrouted") - misrouted, 1u);
  EXPECT_EQ(forwarded.size(), 1u);  // liveness preserved
}

// ---------------------------------------------------------------- GeoQueue

class QueueTest : public ::testing::Test {
 protected:
  QueueTest() : token_(2) {}

  std::unique_ptr<GeoQueue> MakeQueue(uint32_t id = 0) {
    return std::make_unique<GeoQueue>(id, [this](std::vector<GeoRecord> run) {
      // Each step routes one run: consecutive LIds, continuing the log.
      EXPECT_FALSE(run.empty());
      for (const GeoRecord& r : run) {
        EXPECT_EQ(r.lid, routed_.size());
        routed_.push_back(r);
      }
      ++runs_;
    });
  }

  Token token_;
  std::vector<GeoRecord> routed_;
  int runs_ = 0;
};

TEST_F(QueueTest, AssignsConsecutiveLIdsInToidOrder) {
  auto q = MakeQueue();
  q->Enqueue(Rec(0, 1));
  q->Enqueue(Rec(0, 2));
  q->Enqueue(Rec(1, 1));
  EXPECT_EQ(q->ProcessToken(&token_), 3u);
  EXPECT_EQ(token_.next_lid, 3u);
  ASSERT_EQ(routed_.size(), 3u);
  EXPECT_EQ(runs_, 1);  // the whole admission is one run
  EXPECT_EQ(routed_[0].toid, 1u);  // host 0 in TOId order
  EXPECT_EQ(routed_[1].toid, 2u);
  EXPECT_EQ(token_.max_toid[0], 2u);
  EXPECT_EQ(token_.max_toid[1], 1u);
}

TEST_F(QueueTest, HostOrderGapDefersRecord) {
  auto q = MakeQueue();
  q->Enqueue(Rec(0, 2));  // toid 1 missing
  EXPECT_EQ(q->ProcessToken(&token_), 0u);
  EXPECT_EQ(token_.deferred.size(), 1u);
  q->Enqueue(Rec(0, 1));
  EXPECT_EQ(q->ProcessToken(&token_), 2u);  // both land, in order
  EXPECT_TRUE(token_.deferred.empty());
  EXPECT_EQ(runs_, 1);  // an empty admission routes nothing
  EXPECT_EQ(routed_[0].toid, 1u);
  EXPECT_EQ(routed_[1].toid, 2u);
}

TEST_F(QueueTest, CausalDependencyDefersUntilSatisfied) {
  auto q = MakeQueue();
  // DC1's record 1 depends on DC0's record 2 (read-from relation).
  q->Enqueue(Rec(1, 1, {2, 0}));
  EXPECT_EQ(q->ProcessToken(&token_), 0u);
  q->Enqueue(Rec(0, 1));
  q->Enqueue(Rec(0, 2));
  EXPECT_EQ(q->ProcessToken(&token_), 3u);
  // The dependent record must come after its dependency in LId order.
  flstore::LId dep_lid = 0, dependent_lid = 0;
  for (const GeoRecord& r : routed_) {
    if (r.host == 0 && r.toid == 2) dep_lid = r.lid;
    if (r.host == 1) dependent_lid = r.lid;
  }
  EXPECT_GT(dependent_lid, dep_lid);
}

TEST_F(QueueTest, DuplicateDroppedAgainstToken) {
  auto q = MakeQueue();
  q->Enqueue(Rec(0, 1));
  q->ProcessToken(&token_);
  q->Enqueue(Rec(0, 1));  // resent copy
  const uint64_t dups = CounterValue("chariots.queue.duplicates_dropped");
  EXPECT_EQ(q->ProcessToken(&token_), 0u);
  EXPECT_EQ(CounterValue("chariots.queue.duplicates_dropped") - dups, 1u);
  EXPECT_TRUE(token_.deferred.empty());
}

TEST_F(QueueTest, DeferredRecordsTravelWithToken) {
  // Paper: the token may carry deferred records to the next queue, which
  // can then append them once dependencies are met.
  auto q0 = MakeQueue(0);
  auto q1 = MakeQueue(1);
  q0->Enqueue(Rec(0, 2));  // waits for toid 1
  q0->ProcessToken(&token_);
  EXPECT_EQ(token_.deferred.size(), 1u);
  q1->Enqueue(Rec(0, 1));
  EXPECT_EQ(q1->ProcessToken(&token_), 2u);  // q1 appends both
  EXPECT_EQ(token_.max_toid[0], 2u);
}

TEST_F(QueueTest, TransitiveCausalChainSameToken) {
  auto q = MakeQueue();
  // Chain: (0,1) <- (1,1) <- (0,2) all enqueued out of order.
  q->Enqueue(Rec(0, 2, {1, 1}));
  q->Enqueue(Rec(1, 1, {1, 0}));
  q->Enqueue(Rec(0, 1));
  EXPECT_EQ(q->ProcessToken(&token_), 3u);
  // LId order must embed the causal chain.
  std::map<std::pair<DatacenterId, TOId>, flstore::LId> lid_of;
  for (const GeoRecord& r : routed_) lid_of[{r.host, r.toid}] = r.lid;
  flstore::LId lid_0_1 = lid_of[{0, 1}];
  flstore::LId lid_1_1 = lid_of[{1, 1}];
  flstore::LId lid_0_2 = lid_of[{0, 2}];
  EXPECT_LT(lid_0_1, lid_1_1);
  EXPECT_LT(lid_1_1, lid_0_2);
}

// -------------------------------------------------------------- Replication

TEST(ReplicationBatchTest, CodecRoundTrip) {
  ReplicationBatch b;
  b.atable = "table-bytes";
  b.first_toid = 42;
  b.records = {"r1", "r2", ""};
  auto d = DecodeReplicationBatch(EncodeReplicationBatch(b));
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(d->atable, b.atable);
  EXPECT_EQ(d->first_toid, 42u);
  EXPECT_EQ(d->records, b.records);
  EXPECT_FALSE(DecodeReplicationBatch("zzz").ok());
}

// ----------------------------------------------------- Sender / Receiver

class SenderReceiverTest : public ::testing::Test {
 protected:
  SenderReceiverTest() : atable0_(2, 0), atable1_(2, 1) {}

  // Wires a sender at DC0 and a receiver at DC1 through a zero-latency
  // in-process transport whose deliveries run on exec_.
  void Wire(Sender::Options options = {}) {
    receiver_ = std::make_unique<Receiver>(
        1, &atable1_, [this](GeoRecord r) {
          sent_when_received_.push_back(
              CounterValue("chariots.sender.records_sent"));
          received_.push_back(std::move(r));
          // A real datacenter incorporates via the pipeline; the test
          // incorporates instantly and advances its own awareness row.
          atable1_.Advance(1, 0, received_.back().toid);
          return true;
        });
    ASSERT_TRUE(fabric_
                    .RegisterReceiver(1,
                                      [this](DatacenterId from,
                                             std::string payload) {
                                        receiver_->OnMessage(from,
                                                             std::move(
                                                                 payload));
                                      })
                    .ok());
    sender_ = std::make_unique<Sender>(
        0, std::vector<DatacenterId>{1},
        [this](TOId toid) -> Result<std::string> {
          std::lock_guard<std::mutex> lock(log_mu_);
          auto it = log_.find(toid);
          if (it == log_.end()) return Status::NotFound("not in the log");
          return it->second;
        },
        &atable0_, &fabric_, options);
  }

  /// Incorporates a local record into DC0's fake log: the sender reads it
  /// back through its read callback, up to DC0's own awareness cell.
  void PutLocal(TOId toid) {
    {
      std::lock_guard<std::mutex> lock(log_mu_);
      log_[toid] = EncodeGeoRecord(Rec(0, toid));
    }
    atable0_.Advance(0, 0, toid);
  }

  /// One sender pass, then every delivery it caused.
  size_t Tick() {
    size_t shipped = sender_->Tick();
    exec_.WaitIdle();
    return shipped;
  }

  /// Virtual time: it moves only when a test moves it.
  ManualClock clock_;
  Executor exec_{{.num_threads = 2, .name = "sender-recv",
                  .manual_clock = &clock_}};
  net::InProcTransport transport_{nullptr, &exec_};
  TransportFabric fabric_{&transport_};
  AwarenessTable atable0_, atable1_;
  std::mutex log_mu_;
  std::map<TOId, std::string> log_;
  std::unique_ptr<Receiver> receiver_;
  std::unique_ptr<Sender> sender_;
  std::vector<GeoRecord> received_;
  /// chariots.sender.records_sent as each record reached the receiver.
  std::vector<uint64_t> sent_when_received_;
};

TEST_F(SenderReceiverTest, ShipsNewRecordsOnTick) {
  Wire();
  PutLocal(1);
  PutLocal(2);
  EXPECT_EQ(Tick(), 2u);
  ASSERT_EQ(received_.size(), 2u);
  EXPECT_EQ(received_[0].toid, 1u);
  EXPECT_EQ(received_[1].toid, 2u);
  // Nothing new: the next tick ships nothing.
  EXPECT_EQ(Tick(), 0u);
}

TEST_F(SenderReceiverTest, PiggybackedAwarenessMerges) {
  Wire();
  atable0_.Advance(0, 0, 5);  // sender's own knowledge row
  PutLocal(1);
  (void)Tick();
  // The receiver learned the sender's row transitively.
  EXPECT_EQ(atable1_.Get(0, 0), 5u);
}

TEST_F(SenderReceiverTest, AckStopsRetransmission) {
  Sender::Options options;
  options.resend_nanos = 0;  // rewind to acked on every tick
  Wire(options);
  const uint64_t rewinds = CounterValue("chariots.sender.rewinds");
  const uint64_t deduped = CounterValue("chariots.receiver.records_deduped");
  PutLocal(1);
  (void)Tick();
  ASSERT_EQ(received_.size(), 1u);
  // No ack yet (atable0 row for DC1 is still 0): the sender rewinds and
  // resends. The test's submit callback already advanced DC1's knowledge
  // row, so the receiver drops the retransmission as a duplicate before it
  // would reach the pipeline.
  (void)Tick();
  EXPECT_GE(CounterValue("chariots.sender.rewinds") - rewinds, 1u);
  EXPECT_EQ(received_.size(), 1u);
  EXPECT_EQ(CounterValue("chariots.receiver.records_deduped") - deduped, 1u);
  // Ack arrives: DC1's awareness of DC0 reaches toid 1.
  atable0_.Advance(1, 0, 1);
  EXPECT_EQ(Tick(), 0u);
  EXPECT_EQ(received_.size(), 1u);
}

TEST_F(SenderReceiverTest, HeartbeatCarriesAwarenessWhenIdle) {
  Sender::Options options;
  options.heartbeat_nanos = 0;  // heartbeat on every idle tick
  Wire(options);
  atable0_.Advance(0, 1, 7);  // something worth telling DC1
  const uint64_t heartbeats = CounterValue("chariots.sender.heartbeats_sent");
  const uint64_t batches = CounterValue("chariots.sender.batches_sent");
  EXPECT_EQ(Tick(), 0u);  // no records shipped...
  // ...but a heartbeat went out, counted apart from the record batches.
  EXPECT_GE(CounterValue("chariots.sender.heartbeats_sent") - heartbeats, 1u);
  EXPECT_EQ(CounterValue("chariots.sender.batches_sent"), batches);
  EXPECT_EQ(atable1_.Get(0, 1), 7u);
}

TEST_F(SenderReceiverTest, RecordsSentCountsABatchBeforeThePeerHoldsIt) {
  // An idle worker can deliver the batch before Send returns. By then
  // records_sent must already count it: no reader may find the sender
  // behind what its peer holds.
  Wire();
  const uint64_t sent = CounterValue("chariots.sender.records_sent");
  for (TOId t = 1; t <= 3; ++t) PutLocal(t);
  EXPECT_EQ(Tick(), 3u);
  ASSERT_EQ(sent_when_received_.size(), 3u);
  for (uint64_t at_receipt : sent_when_received_) {
    EXPECT_EQ(at_receipt - sent, 3u);
  }
  PutLocal(4);
  EXPECT_EQ(Tick(), 1u);
  ASSERT_EQ(sent_when_received_.size(), 4u);
  EXPECT_EQ(sent_when_received_.back() - sent, 4u);
}

TEST_F(SenderReceiverTest, BatchSizeLimitsPerTick) {
  Sender::Options options;
  options.batch_records = 3;
  Wire(options);
  for (TOId t = 1; t <= 10; ++t) PutLocal(t);
  EXPECT_EQ(Tick(), 3u);
  EXPECT_EQ(Tick(), 3u);
  EXPECT_EQ(Tick(), 3u);
  EXPECT_EQ(Tick(), 1u);
  EXPECT_EQ(received_.size(), 10u);
}

TEST_F(SenderReceiverTest, KickShipsWithoutWaitingForTheTick) {
  // The virtual clock never moves: only a kick can ship anything.
  Sender::Options options;
  options.executor = &exec_;
  Wire(options);
  PutLocal(1);
  sender_->Kick();  // not started: no-op
  exec_.WaitIdle();
  EXPECT_TRUE(received_.empty());
  sender_->Start();
  PutLocal(2);
  sender_->Kick();
  sender_->Kick();  // collapses into the pending drain or runs an idle one
  exec_.WaitIdle();
  ASSERT_EQ(received_.size(), 2u);
  EXPECT_EQ(received_[1].toid, 2u);
  EXPECT_EQ(clock_.NowNanos(), 0);
  sender_->Stop();
  PutLocal(3);
  sender_->Kick();  // stopped: fenced
  exec_.WaitIdle();
  EXPECT_EQ(received_.size(), 2u);
}

TEST_F(SenderReceiverTest, ReceiverIgnoresGarbage) {
  Wire();
  receiver_->OnMessage(0, "complete garbage");
  EXPECT_TRUE(received_.empty());
  // Still functional afterwards.
  PutLocal(1);
  (void)Tick();
  EXPECT_EQ(received_.size(), 1u);
}

}  // namespace
}  // namespace chariots::geo
