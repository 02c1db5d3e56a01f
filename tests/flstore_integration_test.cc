// Integration tests: a full FLStore cluster (controller + maintainers +
// indexers + clients) wired over the in-process transport, exercising the
// paper §5 behaviours end to end.

#include <gtest/gtest.h>

#include <memory>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "flstore/client.h"
#include "flstore/service.h"
#include "net/inproc_transport.h"

namespace chariots::flstore {
namespace {

using namespace std::chrono_literals;

/// Spins up a single-datacenter FLStore deployment on InProcTransport.
class Cluster {
 public:
  Cluster(uint32_t num_maintainers, uint32_t num_indexers, uint64_t batch)
      : journal_(num_maintainers, batch) {
    ClusterInfo info;
    info.journal = journal_;
    for (uint32_t i = 0; i < num_maintainers; ++i) {
      info.maintainers.push_back("dc0/maintainer/" + std::to_string(i));
    }
    for (uint32_t i = 0; i < num_indexers; ++i) {
      info.indexers.push_back("dc0/indexer/" + std::to_string(i));
    }
    controller_ = std::make_unique<ControllerServer>(
        &transport_, "dc0/controller", info);
    EXPECT_TRUE(controller_->Start().ok());

    for (uint32_t i = 0; i < num_indexers; ++i) {
      indexers_.push_back(std::make_unique<IndexerServer>(
          &transport_, info.indexers[i]));
      EXPECT_TRUE(indexers_.back()->Start().ok());
    }
    for (uint32_t i = 0; i < num_maintainers; ++i) {
      MaintainerOptions mo;
      mo.index = i;
      mo.journal = journal_;
      mo.store.mode = storage::SyncMode::kMemoryOnly;
      MaintainerServer::Options so;
      so.node = info.maintainers[i];
      so.peers = info.maintainers;
      so.indexers = info.indexers;
      so.gossip_interval_nanos = 500'000;  // 0.5 ms: fast HL convergence
      maintainers_.push_back(std::make_unique<MaintainerServer>(
          &transport_, mo, so));
      EXPECT_TRUE(maintainers_.back()->Start().ok());
    }
  }

  std::unique_ptr<FLStoreClient> NewClient(const std::string& name) {
    auto client = std::make_unique<FLStoreClient>(
        &transport_, "dc0/client/" + name, "dc0/controller");
    EXPECT_TRUE(client->Start().ok());
    return client;
  }

  net::InProcTransport transport_;
  EpochJournal journal_;
  std::unique_ptr<ControllerServer> controller_;
  std::vector<std::unique_ptr<IndexerServer>> indexers_;
  std::vector<std::unique_ptr<MaintainerServer>> maintainers_;
};

TEST(FLStoreIntegrationTest, SessionBootstrapFetchesLayout) {
  Cluster cluster(3, 2, 10);
  auto client = cluster.NewClient("a");
  ClusterInfo info = client->cluster_info();
  EXPECT_EQ(info.maintainers.size(), 3u);
  EXPECT_EQ(info.indexers.size(), 2u);
  EXPECT_EQ(info.journal.current().batch_size, 10u);
}

TEST(FLStoreIntegrationTest, AppendsGetUniqueLIdsAcrossMaintainers) {
  Cluster cluster(3, 1, 5);
  auto client = cluster.NewClient("a");
  std::set<LId> lids;
  for (int i = 0; i < 60; ++i) {
    LogRecord rec;
    rec.body = "r" + std::to_string(i);
    auto lid = client->Append(rec);
    ASSERT_TRUE(lid.ok()) << lid.status();
    EXPECT_TRUE(lids.insert(*lid).second);
  }
  EXPECT_EQ(lids.size(), 60u);
}

TEST(FLStoreIntegrationTest, ReadBackByLId) {
  Cluster cluster(2, 1, 3);
  auto client = cluster.NewClient("a");
  LogRecord rec;
  rec.body = "find me";
  rec.tags.push_back(Tag{"k", "v"});
  auto lid = client->Append(rec);
  ASSERT_TRUE(lid.ok());
  auto read = client->Read(*lid);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read->body, "find me");
  EXPECT_EQ(read->tags[0].key, "k");
}

TEST(FLStoreIntegrationTest, HeadOfLogConvergesViaGossip) {
  Cluster cluster(3, 1, 2);
  auto client = cluster.NewClient("a");
  // Round-robin appends fill all maintainers evenly: 30 records over 3
  // maintainers with batch 2.
  for (int i = 0; i < 30; ++i) {
    LogRecord rec;
    rec.body = "x";
    ASSERT_TRUE(client->Append(rec).ok());
  }
  // Gossip needs a few intervals to converge.
  LId hl = 0;
  for (int attempt = 0; attempt < 100 && hl < 30; ++attempt) {
    std::this_thread::sleep_for(5ms);
    auto r = client->HeadOfLog();
    ASSERT_TRUE(r.ok());
    hl = *r;
  }
  EXPECT_EQ(hl, 30u);
  // Every position below HL is committed-readable.
  for (LId lid = 0; lid < hl; ++lid) {
    EXPECT_TRUE(client->ReadCommitted(lid).ok()) << lid;
  }
}

TEST(FLStoreIntegrationTest, ReadCommittedBlocksAboveHL) {
  Cluster cluster(2, 1, 4);
  auto client = cluster.NewClient("a");
  LogRecord rec;
  rec.body = "x";
  // One append lands at maintainer 0 (lid 0); maintainer 1 never fills its
  // batch, so HL stays at most 4 and positions >= HL are unreadable.
  auto lid = client->Append(rec);
  ASSERT_TRUE(lid.ok());
  std::this_thread::sleep_for(10ms);
  auto blocked = client->ReadCommitted(7);
  EXPECT_FALSE(blocked.ok());
}

TEST(FLStoreIntegrationTest, TagLookupThroughIndexers) {
  Cluster cluster(2, 2, 5);
  auto client = cluster.NewClient("a");
  for (int i = 0; i < 10; ++i) {
    LogRecord rec;
    rec.body = "val" + std::to_string(i);
    rec.tags.push_back(Tag{"user", std::to_string(i % 3)});
    ASSERT_TRUE(client->Append(rec).ok());
  }
  // Index postings travel as one-way messages; allow delivery.
  std::this_thread::sleep_for(20ms);
  IndexQuery q;
  q.key = "user";
  q.value_equals = "1";
  q.limit = 10;
  auto postings = client->Lookup(q);
  ASSERT_TRUE(postings.ok());
  EXPECT_EQ(postings->size(), 3u);  // i % 3 == 1 for i in 0..9: 1, 4, 7

  auto records = client->ReadByTag(q);
  ASSERT_TRUE(records.ok());
  for (const auto& r : *records) {
    ASSERT_EQ(r.tags.size(), 1u);
    EXPECT_EQ(r.tags[0].value, "1");
  }
}

TEST(FLStoreIntegrationTest, AppendBatchOneRoundTrip) {
  Cluster cluster(2, 1, 5);
  auto client = cluster.NewClient("a");
  std::vector<LogRecord> batch;
  for (int i = 0; i < 7; ++i) {
    LogRecord rec;
    rec.body = "b" + std::to_string(i);
    batch.push_back(rec);
  }
  auto lids = client->AppendBatch(batch);
  ASSERT_TRUE(lids.ok()) << lids.status();
  ASSERT_EQ(lids->size(), 7u);
  // All on one maintainer, in order, and readable.
  uint32_t owner = cluster.journal_.MaintainerFor((*lids)[0]);
  for (size_t i = 0; i < lids->size(); ++i) {
    EXPECT_EQ(cluster.journal_.MaintainerFor((*lids)[i]), owner);
    if (i > 0) EXPECT_GT((*lids)[i], (*lids)[i - 1]);
    auto read = client->Read((*lids)[i]);
    ASSERT_TRUE(read.ok());
    EXPECT_EQ(read->body, "b" + std::to_string(i));
  }
}

TEST(FLStoreIntegrationTest, OrderedAppendRespectsBound) {
  Cluster cluster(1, 1, 100);
  auto client = cluster.NewClient("a");
  LogRecord first;
  first.body = "first";
  auto lid1 = client->Append(first);
  ASSERT_TRUE(lid1.ok());
  // Explicit order: second must land strictly after lid1.
  LogRecord second;
  second.body = "second";
  auto lid2 = client->AppendOrdered(second, *lid1);
  ASSERT_TRUE(lid2.ok());
  EXPECT_NE(*lid2, kInvalidLId);
  EXPECT_GT(*lid2, *lid1);
}

TEST(FLStoreIntegrationTest, MultipleClientsShareOneView) {
  Cluster cluster(2, 1, 3);
  auto a = cluster.NewClient("a");
  auto b = cluster.NewClient("b");
  LogRecord rec;
  rec.body = "from-a";
  auto lid = a->Append(rec);
  ASSERT_TRUE(lid.ok());
  auto read = b->Read(*lid);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read->body, "from-a");
}

TEST(FLStoreIntegrationTest, ElasticityAddMaintainerViaFutureEpoch) {
  Cluster cluster(2, 1, 2);
  auto client = cluster.NewClient("a");
  for (int i = 0; i < 8; ++i) {
    LogRecord rec;
    rec.body = "pre";
    ASSERT_TRUE(client->Append(rec).ok());
  }

  // Install a future epoch at lid 100 growing to 3 maintainers.
  StripeEpoch epoch{100, 3, 2};
  // 1. New maintainer joins the fabric.
  MaintainerOptions mo;
  mo.index = 2;
  mo.journal = cluster.journal_;
  mo.store.mode = storage::SyncMode::kMemoryOnly;
  MaintainerServer::Options so;
  so.node = "dc0/maintainer/2";
  so.peers = {"dc0/maintainer/0", "dc0/maintainer/1", "dc0/maintainer/2"};
  auto new_maintainer =
      std::make_unique<MaintainerServer>(&cluster.transport_, mo, so);
  ASSERT_TRUE(new_maintainer->Start().ok());
  ASSERT_TRUE(new_maintainer->maintainer().AddEpoch(epoch).ok());
  // 2. Existing maintainers learn the epoch.
  for (auto& m : cluster.maintainers_) {
    ASSERT_TRUE(m->maintainer().AddEpoch(epoch).ok());
  }
  // 3. Controller records the new layout for future sessions (CAS on the
  // version the installer read).
  uint64_t version = cluster.controller_->controller().version();
  ASSERT_TRUE(cluster.controller_->controller()
                  .AddMaintainer(so.node, epoch, version)
                  .ok());
  ASSERT_TRUE(client->RefreshClusterInfo().ok());
  EXPECT_EQ(client->cluster_info().maintainers.size(), 3u);

  // The new maintainer post-assigns only from its epoch-1 territory.
  LogRecord rec;
  rec.body = "on-new";
  auto lid = new_maintainer->maintainer().Append(rec);
  ASSERT_TRUE(lid.ok());
  EXPECT_GE(*lid, 100u);
  EXPECT_EQ(client->cluster_info().journal.MaintainerFor(*lid), 2u);
  // And the client can read it back through the refreshed routing.
  auto read = client->Read(*lid);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read->body, "on-new");
}

TEST(FLStoreIntegrationTest, ManyConcurrentClients) {
  Cluster cluster(3, 1, 10);
  constexpr int kClients = 4;
  constexpr int kAppendsEach = 50;
  std::vector<std::thread> threads;
  std::mutex mu;
  std::set<LId> lids;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      auto client = cluster.NewClient("t" + std::to_string(c));
      for (int i = 0; i < kAppendsEach; ++i) {
        LogRecord rec;
        rec.body = "c" + std::to_string(c) + ":" + std::to_string(i);
        auto lid = client->Append(rec);
        ASSERT_TRUE(lid.ok());
        std::lock_guard<std::mutex> lock(mu);
        EXPECT_TRUE(lids.insert(*lid).second);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(lids.size(), static_cast<size_t>(kClients * kAppendsEach));
}

// The failover loop's backoff between attempts sleeps on the client's
// clock: against a dead stripe, a client on a ManualClock spends the whole
// budget in virtual time and returns at once, however long the backoff.
TEST(FLStoreIntegrationTest, FailoverBackoffSleepsOnTheClientClock) {
  Cluster cluster(1, 0, 10);
  cluster.maintainers_[0]->Stop();
  ManualClock clock;
  ClientOptions options;
  options.clock = &clock;
  options.failover_attempts = 3;
  options.failover_backoff_nanos = 3'000'000'000;  // 3 s
  FLStoreClient client(&cluster.transport_, "dc0/client/manual",
                       "dc0/controller", options);
  ASSERT_TRUE(client.Start().ok());
  const auto start = std::chrono::steady_clock::now();
  LogRecord rec;
  rec.body = "nowhere";
  EXPECT_EQ(client.Append(rec).status().code(), StatusCode::kUnavailable);
  EXPECT_GE(clock.NowNanos(), 2 * options.failover_backoff_nanos)
      << "the backoff between the three attempts did not use the clock";
  EXPECT_LT(std::chrono::steady_clock::now() - start, 3s)
      << "the backoff slept in real time";
  EXPECT_GE(client.retries(), 2u);
}

}  // namespace
}  // namespace chariots::flstore
