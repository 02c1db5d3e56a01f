// Read-path tests (DESIGN.md §11): the maintainer tail cache over the
// store's index, the client read-through cache with epoch invalidation, batched
// ReadMany coalescing, the Hyksos version index, and the replay loop that
// feeds it.

#include <gtest/gtest.h>

#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "apps/hyksos.h"
#include "chariots/fabric.h"
#include "common/clock.h"
#include "common/metrics.h"
#include "flstore/client.h"
#include "flstore/indexer.h"
#include "flstore/maintainer.h"
#include "flstore/read_cache.h"
#include "flstore/hermes.h"
#include "flstore/service.h"
#include "net/inproc_transport.h"

namespace chariots::flstore {
namespace {

// ---------------------------------------------------------- TailCache unit

TEST(TailCacheTest, EvictsOldestToStayWithinByteBound) {
  TailCache cache(TailCacheOptions{64, 1024});
  for (LId lid = 0; lid < 32; ++lid) {
    cache.Put(lid, std::string(16, 'x'));
    EXPECT_LE(cache.bytes(), 64u) << "byte bound violated at lid " << lid;
  }
  // 64 bytes / 16-byte payloads: exactly the four newest survive, FIFO.
  EXPECT_EQ(cache.entries(), 4u);
  EXPECT_FALSE(cache.Get(0).has_value());
  EXPECT_FALSE(cache.Get(27).has_value());
  for (LId lid = 28; lid < 32; ++lid) {
    ASSERT_TRUE(cache.Get(lid).has_value()) << "lid " << lid;
  }
}

TEST(TailCacheTest, RecordBoundInvalidateAndClear) {
  TailCache cache(TailCacheOptions{1 << 20, 4});
  for (LId lid = 0; lid < 6; ++lid) cache.Put(lid, "payload");
  EXPECT_EQ(cache.entries(), 4u);  // record bound
  EXPECT_FALSE(cache.Get(0).has_value());
  EXPECT_TRUE(cache.Get(5).has_value());

  cache.Invalidate(4);
  EXPECT_FALSE(cache.Get(4).has_value());
  EXPECT_EQ(cache.entries(), 3u);

  cache.Clear();
  EXPECT_EQ(cache.entries(), 0u);
  EXPECT_EQ(cache.bytes(), 0u);
  EXPECT_FALSE(cache.Get(5).has_value());
}

TEST(TailCacheTest, OversizedRecordIsNeverAdmitted) {
  TailCache cache(TailCacheOptions{32, 1024});
  cache.Put(1, "small");
  cache.Put(2, std::string(64, 'x'));  // larger than the whole budget
  EXPECT_FALSE(cache.Get(2).has_value());
  EXPECT_TRUE(cache.Get(1).has_value()) << "oversized put must not evict";
}

TEST(TailCacheTest, ZeroBoundDisablesTheCache) {
  TailCache cache(TailCacheOptions{0, 0});
  EXPECT_FALSE(cache.enabled());
  cache.Put(1, "x");
  EXPECT_FALSE(cache.Get(1).has_value());
  EXPECT_EQ(cache.entries(), 0u);
}

// ---------------------------------------------------- ClientReadCache unit

TEST(ClientReadCacheTest, EpochBumpPurgesTailEntriesPerStripe) {
  ClientReadCache cache(1 << 20);
  cache.Put(1, "immutable", /*stripe=*/0, /*epoch=*/1, /*permanent=*/true);
  cache.Put(5, "tail-s0", /*stripe=*/0, /*epoch=*/1, /*permanent=*/false);
  cache.Put(6, "tail-s1", /*stripe=*/1, /*epoch=*/1, /*permanent=*/false);

  // Re-observing the same epoch purges nothing.
  EXPECT_FALSE(cache.ObserveEpoch(0, 1));
  EXPECT_TRUE(cache.Get(5).has_value());

  // Stripe 0 fails over: its tail entries go, permanent and other-stripe
  // entries stay.
  EXPECT_TRUE(cache.ObserveEpoch(0, 2));
  EXPECT_TRUE(cache.Get(1).has_value());
  EXPECT_FALSE(cache.Get(5).has_value());
  EXPECT_TRUE(cache.Get(6).has_value());
}

TEST(ClientReadCacheTest, ByteBoundEvictsFifo) {
  ClientReadCache cache(64);
  for (LId lid = 0; lid < 8; ++lid) {
    cache.Put(lid, std::string(16, 'x'), 0, 1, true);
    EXPECT_LE(cache.bytes(), 64u);
  }
  EXPECT_FALSE(cache.Get(0).has_value());
  EXPECT_TRUE(cache.Get(7).has_value());

  cache.Clear();
  EXPECT_EQ(cache.entries(), 0u);
}

// ------------------------------------------------------- VersionIndex unit

TEST(VersionIndexTest, SnapshotBoundedLookups) {
  VersionIndex index;
  index.Apply("k", "v1", 5);
  index.Apply("k", "v2", 9);
  index.Apply("j", "w", 7);
  EXPECT_EQ(index.version_count(), 3u);

  auto latest = index.Get("k");
  ASSERT_TRUE(latest.has_value());
  EXPECT_EQ(latest->lid, 9u);
  EXPECT_EQ(latest->value, "v2");

  // Snapshot bounds are strict: as-of 9 sees only lid 5.
  auto pinned = index.Get("k", 9);
  ASSERT_TRUE(pinned.has_value());
  EXPECT_EQ(pinned->lid, 5u);
  EXPECT_FALSE(index.Get("k", 5).has_value());
  EXPECT_FALSE(index.Get("missing").has_value());
}

TEST(VersionIndexTest, ReplayIsIdempotentAndTruncates) {
  VersionIndex index;
  index.Apply("k", "v1", 5);
  index.Apply("k", "v1", 5);  // replay revisits a record
  index.Apply("k", "v2", 9);
  index.Apply("k", "v2", 9);
  EXPECT_EQ(index.version_count(), 2u);

  index.TruncateBelow(9);
  EXPECT_EQ(index.version_count(), 1u);
  EXPECT_FALSE(index.Get("k", 9).has_value());
  EXPECT_EQ(index.Get("k")->lid, 9u);
}

// ------------------------------------------- maintainer tail cache + index

MaintainerOptions MemOptions(uint32_t index, uint32_t maintainers,
                             uint64_t batch) {
  MaintainerOptions o;
  o.index = index;
  o.journal = EpochJournal(maintainers, batch);
  o.store.mode = storage::SyncMode::kMemoryOnly;
  return o;
}

LogRecord Rec(const std::string& body) {
  LogRecord r;
  r.body = body;
  return r;
}

TEST(MaintainerReadPathTest, AppendsPopulateBoundedTailCache) {
  MaintainerOptions options = MemOptions(0, 1, 8);
  options.tail_cache_bytes = 256;
  options.tail_cache_records = 8;
  LogMaintainer m(options);
  ASSERT_TRUE(m.Open().ok());
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(m.Append(Rec("record-" + std::to_string(i))).ok());
    EXPECT_LE(m.TailCacheBytes(), 256u);
    EXPECT_LE(m.TailCacheEntries(), 8u);
  }
  EXPECT_GT(m.TailCacheEntries(), 0u);
  // The store holds every record, whatever the cache evicted.
  EXPECT_EQ(m.count(), 50u);
  std::vector<LId> all(50);
  std::iota(all.begin(), all.end(), LId{0});
  EXPECT_EQ(m.StoredLids(), all);

  // Every record — cached tail or not — reads back.
  for (LId lid = 0; lid < 50; ++lid) {
    auto rec = m.Read(lid);
    ASSERT_TRUE(rec.ok()) << lid << ": " << rec.status();
    EXPECT_EQ(rec->body, "record-" + std::to_string(lid));
  }
}

TEST(MaintainerReadPathTest, HotTailReadsHitTheTailCache) {
  auto* hits = metrics::Registry::Default().GetCounter(
      "chariots.flstore.tail_cache.hits");
  LogMaintainer m(MemOptions(0, 1, 8));
  ASSERT_TRUE(m.Open().ok());
  auto lid = m.Append(Rec("hot"));
  ASSERT_TRUE(lid.ok());
  uint64_t before = hits->Value();
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(m.Read(*lid).ok());
  }
  EXPECT_GE(hits->Value() - before, 10u);
}

TEST(MaintainerReadPathTest, InvalidateTailCacheDropsEntriesNotRecords) {
  LogMaintainer m(MemOptions(0, 1, 8));
  ASSERT_TRUE(m.Open().ok());
  auto lid = m.Append(Rec("still-readable"));
  ASSERT_TRUE(lid.ok());
  ASSERT_GT(m.TailCacheEntries(), 0u);
  m.InvalidateTailCache();
  EXPECT_EQ(m.TailCacheEntries(), 0u);
  auto rec = m.Read(*lid);  // falls through to the store
  ASSERT_TRUE(rec.ok()) << rec.status();
  EXPECT_EQ(rec->body, "still-readable");
}

// ------------------------------------------------- cluster-level read path

/// Single-datacenter FLStore deployment on the in-process transport.
class Cluster {
 public:
  Cluster(uint32_t num_maintainers, uint64_t batch)
      : journal_(num_maintainers, batch) {
    ClusterInfo info;
    info.journal = journal_;
    for (uint32_t i = 0; i < num_maintainers; ++i) {
      info.maintainers.push_back("dc0/maintainer/" + std::to_string(i));
    }
    controller_ = std::make_unique<ControllerServer>(
        &transport_, "dc0/controller", info);
    EXPECT_TRUE(controller_->Start().ok());
    for (uint32_t i = 0; i < num_maintainers; ++i) {
      MaintainerOptions mo;
      mo.index = i;
      mo.journal = journal_;
      mo.store.mode = storage::SyncMode::kMemoryOnly;
      MaintainerServer::Options so;
      so.node = info.maintainers[i];
      so.peers = info.maintainers;
      so.gossip_interval_nanos = 500'000;
      maintainers_.push_back(
          std::make_unique<MaintainerServer>(&transport_, mo, so));
      EXPECT_TRUE(maintainers_.back()->Start().ok());
    }
  }

  std::unique_ptr<FLStoreClient> NewClient(const std::string& name,
                                           ClientOptions options = {}) {
    auto client = std::make_unique<FLStoreClient>(
        &transport_, "dc0/client/" + name, "dc0/controller", options);
    EXPECT_TRUE(client->Start().ok());
    return client;
  }

  net::InProcTransport transport_;
  EpochJournal journal_;
  std::unique_ptr<ControllerServer> controller_;
  std::vector<std::unique_ptr<MaintainerServer>> maintainers_;
};

TEST(ClusterReadPathTest, ReadManyCoalescesAndPreservesInputOrder) {
  Cluster cluster(2, 4);
  auto client = cluster.NewClient("a");
  std::vector<LId> lids;
  for (int i = 0; i < 12; ++i) {
    auto lid = client->Append(Rec("body-" + std::to_string(i)));
    ASSERT_TRUE(lid.ok()) << lid.status();
    lids.push_back(*lid);
  }
  // Reverse order across both stripes: one kReadRange per stripe, results
  // restitched into input order.
  std::vector<LId> reversed(lids.rbegin(), lids.rend());
  auto records = client->ReadMany(reversed);
  ASSERT_TRUE(records.ok()) << records.status();
  ASSERT_EQ(records->size(), reversed.size());
  for (size_t i = 0; i < reversed.size(); ++i) {
    EXPECT_EQ((*records)[i].body,
              "body-" + std::to_string(12 - 1 - static_cast<int>(i)));
  }
  // The sweep populated the read-through cache; a repeat is served locally.
  EXPECT_GT(client->read_cache_entries(), 0u);
  auto again = client->ReadMany(reversed);
  ASSERT_TRUE(again.ok());

  // A position nothing was appended to fails the whole batch.
  auto missing = client->ReadMany({lids[0], 1'000'000});
  EXPECT_TRUE(missing.status().IsNotFound()) << missing.status();
}

TEST(ClusterReadPathTest, CachedCommittedTailSurvivesMaintainerShutdown) {
  Cluster cluster(1, 4);
  auto client = cluster.NewClient("a");
  std::vector<LId> lids;
  for (int i = 0; i < 8; ++i) {
    auto lid = client->Append(Rec("sticky-" + std::to_string(i)));
    ASSERT_TRUE(lid.ok());
    lids.push_back(*lid);
  }
  // First pass fetches and caches; every lid is below HL (single stripe,
  // fully appended), so the entries are permanent.
  for (LId lid : lids) {
    ASSERT_TRUE(client->Read(lid).ok());
  }
  ASSERT_EQ(client->read_cache_entries(), lids.size());

  // With the only maintainer gone, the committed tail still reads at
  // memory speed from the client cache — no RPC, no failover stall.
  cluster.maintainers_[0]->Stop();
  for (size_t i = 0; i < lids.size(); ++i) {
    auto rec = client->Read(lids[i]);
    ASSERT_TRUE(rec.ok()) << rec.status();
    EXPECT_EQ(rec->body, "sticky-" + std::to_string(i));
  }
}

TEST(ClusterReadPathTest, DisabledClientCacheStillReads) {
  Cluster cluster(1, 4);
  ClientOptions options;
  options.read_cache_bytes = 0;
  auto client = cluster.NewClient("nocache", options);
  auto lid = client->Append(Rec("plain"));
  ASSERT_TRUE(lid.ok());
  EXPECT_EQ(client->Read(*lid)->body, "plain");
  EXPECT_EQ(client->read_cache_entries(), 0u);
}

// ------------------------------ replicated stripe × client cache coherence

// A record not yet validated everywhere reads back with a cacheable-HL
// capped at the validated floor, so the client must not pin it as permanent:
// after a failover junk-fills its position, the epoch piggyback on the next
// remote read purges it — while validated-below-floor entries keep serving
// from cache across the failover, byte-identical.
TEST(ClusterReadPathTest, ReplicatedStripeCachesPermanentOnlyBelowFloor) {
  ManualClock clock;
  net::InProcTransport transport(&clock, nullptr);
  const net::NodeId kCtl = "dc0/controller";
  const net::NodeId kCoord = "dc0/maintainer/0";
  const net::NodeId kReplica = "dc0/maintainer/0-replica";

  ClusterInfo info;
  info.journal = EpochJournal(1, 4);
  info.maintainers = {kCoord};
  info.replicas = {{kReplica}};
  info.fence_epochs = {1};
  ControllerServerOptions cso;
  cso.controller.clock = &clock;
  cso.controller.lease_nanos = 100'000'000;
  ControllerServer controller(&transport, kCtl, info, cso);
  ASSERT_TRUE(controller.Start().ok());

  auto make_server = [&](const net::NodeId& node, ReplicaRole role) {
    MaintainerOptions mo;
    mo.index = 0;
    mo.journal = EpochJournal(1, 4);
    mo.store.mode = storage::SyncMode::kMemoryOnly;
    MaintainerServer::Options so;
    so.node = node;
    so.peers = {kCoord};
    so.replica.role = role;
    so.replica.epoch = 1;
    if (role == ReplicaRole::kCoordinator) so.replica.peers = {kReplica};
    return std::make_unique<MaintainerServer>(&transport, mo, so);
  };
  auto replica = make_server(kReplica, ReplicaRole::kReplica);
  ASSERT_TRUE(replica->Start().ok());
  auto coordinator = make_server(kCoord, ReplicaRole::kCoordinator);
  ASSERT_TRUE(coordinator->Start().ok());

  FLStoreClient client(&transport, "dc0/client/a", kCtl);
  ASSERT_TRUE(client.Start().ok());

  // Two replicated records (validated floor = 2), then an orphan the
  // coordinator landed but never replicated (floor stays at 2, HL = 3).
  ASSERT_TRUE(client.Append(Rec("r0")).ok());
  ASSERT_TRUE(client.Append(Rec("r1")).ok());
  ASSERT_TRUE(coordinator->maintainer().Append(Rec("orphan")).ok());

  // The sweep caches all three; lid 2's piggybacked HL was capped at the
  // floor, so only lids 0-1 were pinned as permanent.
  for (LId lid = 0; lid < 3; ++lid) {
    ASSERT_TRUE(client.Read(lid).ok()) << "lid " << lid;
  }
  ASSERT_EQ(client.read_cache_entries(), 3u);

  // A later replicated record makes the orphan a true hole on the replica.
  ASSERT_TRUE(client.Append(Rec("r3")).ok());  // lid 3

  // Coordinator dies; the lease backstop promotes the replica, which
  // junk-fills the orphaned position under epoch 2.
  coordinator->Stop();
  controller.controller().Heartbeat(0, kCoord);
  clock.Advance(150'000'000);
  ASSERT_EQ(controller.TickLeases(), 1);

  // Permanent below-floor entries keep serving from cache — replay
  // preserved those records byte-identical, so this is still linearizable.
  EXPECT_EQ(client.Read(0)->body, "r0");
  EXPECT_EQ(client.Read(1)->body, "r1");

  // The next *remote* read piggybacks epoch 2 and purges the stripe's
  // non-permanent tail: the orphan entry goes, the permanent ones stay.
  ASSERT_TRUE(client.Read(3).ok());
  EXPECT_EQ(client.read_cache_entries(), 3u)  // r0, r1, r3 — orphan purged
      << "non-permanent entry above the validated floor survived the fence";

  // Re-reading the orphaned position now returns the junk fill, not the
  // stale orphan body.
  auto filled = client.Read(2);
  ASSERT_TRUE(filled.ok()) << filled.status();
  EXPECT_TRUE(IsJunkRecord(*filled));
  EXPECT_NE(filled->body, "orphan");
}

// --------------------------------------------------- Hyksos replay + index

TEST(HyksosReadPathTest, ReplayBuildsVersionIndexIdempotently) {
  net::InProcTransport transport;
  geo::TransportFabric fabric(&transport);
  geo::ChariotsConfig config;
  config.dc_id = 0;
  config.num_datacenters = 1;
  geo::Datacenter dc(config, &fabric);
  ASSERT_TRUE(dc.Start().ok());

  apps::Hyksos kv(&dc);
  ASSERT_TRUE(kv.Put("x", "1").ok());
  ASSERT_TRUE(kv.Put("x", "2").ok());
  ASSERT_TRUE(kv.Put("y", "10").ok());

  EXPECT_EQ(*kv.Get("x"), "2");
  EXPECT_EQ(*kv.Get("y"), "10");
  uint64_t versions = kv.IndexedVersions();
  EXPECT_GE(versions, 3u) << "three puts -> at least three index versions";

  // Replaying with no new records must not grow the index.
  ASSERT_TRUE(kv.RefreshIndex().ok());
  EXPECT_EQ(kv.IndexedVersions(), versions);

  // New writes replay incrementally; old snapshots still resolve.
  flstore::LId pinned = kv.SnapshotPosition();
  ASSERT_TRUE(kv.Put("x", "3").ok());
  EXPECT_EQ(*kv.Get("x"), "3");
  EXPECT_GT(kv.IndexedVersions(), versions);
  auto snap = kv.GetTxn({"x", "y"});
  ASSERT_TRUE(snap.ok());
  EXPECT_EQ((*snap)["x"], "3");
  (void)pinned;

  dc.Stop();
}

}  // namespace
}  // namespace chariots::flstore
