// Crash-recovery tests: storage tombstones, maintainer removal, and
// whole-datacenter restart (paper §1: component and datacenter failures).

#include <gtest/gtest.h>

#include <filesystem>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "chariots/client.h"
#include "chariots/datacenter.h"
#include "chariots/fabric.h"
#include "common/metrics.h"
#include "flstore/dedup.h"
#include "net/inproc_transport.h"
#include "storage/fault_injection.h"
#include "storage/file.h"
#include "storage/io_engine.h"
#include "storage/log_store.h"

namespace chariots {
namespace {

namespace fs = std::filesystem;
using namespace std::chrono_literals;
using namespace chariots::geo;

// ------------------------------------------------------- storage tombstones

class TombstoneTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("chariots_tombstone_" + std::string(::testing::UnitTest::
                                                    GetInstance()
                                                        ->current_test_info()
                                                        ->name()));
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  storage::LogStoreOptions Options() {
    storage::LogStoreOptions o;
    o.dir = dir_.string();
    return o;
  }

  fs::path dir_;
};

TEST_F(TombstoneTest, RemoveHidesRecord) {
  storage::LogStore store(Options());
  ASSERT_TRUE(store.Open().ok());
  ASSERT_TRUE(store.Append(1, "doomed").ok());
  ASSERT_TRUE(store.Append(2, "kept").ok());
  ASSERT_TRUE(store.Remove(1).ok());
  EXPECT_TRUE(store.Get(1).status().IsNotFound());
  EXPECT_EQ(*store.Get(2), "kept");
  EXPECT_EQ(store.count(), 1u);
  EXPECT_TRUE(store.Remove(1).IsNotFound());  // already gone
}

TEST_F(TombstoneTest, TombstoneSurvivesRecovery) {
  {
    storage::LogStore store(Options());
    ASSERT_TRUE(store.Open().ok());
    ASSERT_TRUE(store.Append(1, "doomed").ok());
    ASSERT_TRUE(store.Append(2, "kept").ok());
    ASSERT_TRUE(store.Remove(1).ok());
    ASSERT_TRUE(store.Sync().ok());
  }
  storage::LogStore store(Options());
  ASSERT_TRUE(store.Open().ok());
  EXPECT_TRUE(store.Get(1).status().IsNotFound());
  EXPECT_EQ(*store.Get(2), "kept");
  // The position is writable again after recovery.
  ASSERT_TRUE(store.Append(1, "reborn").ok());
  EXPECT_EQ(*store.Get(1), "reborn");
}

TEST_F(TombstoneTest, MemoryOnlyRemove) {
  storage::LogStoreOptions o;
  o.mode = storage::SyncMode::kMemoryOnly;
  storage::LogStore store(o);
  ASSERT_TRUE(store.Open().ok());
  ASSERT_TRUE(store.Append(5, "x").ok());
  ASSERT_TRUE(store.Remove(5).ok());
  EXPECT_FALSE(store.Contains(5));
}

TEST_F(TombstoneTest, TornFinalFrameMidBatchRecovers) {
  // A crash can tear the tail of a group-commit write: the batch's earlier
  // frames are fully on disk, the final frame is cut mid-payload. Recovery
  // must keep every complete frame and truncate only the torn tail.
  std::vector<storage::AppendEntry> entries;
  std::vector<std::string> payloads;
  for (uint64_t lid = 0; lid < 8; ++lid) {
    payloads.push_back("batch-record-" + std::to_string(lid) +
                       std::string(100, 'x'));
  }
  for (uint64_t lid = 0; lid < 8; ++lid) {
    entries.push_back({lid, payloads[lid]});
  }
  fs::path seg_path;
  {
    storage::LogStore store(Options());
    ASSERT_TRUE(store.Open().ok());
    ASSERT_TRUE(store.AppendBatch(entries).ok());
    ASSERT_TRUE(store.Sync().ok());
  }
  for (const auto& e : fs::directory_iterator(dir_)) seg_path = e.path();
  ASSERT_FALSE(seg_path.empty());
  // Chop the last 40 bytes: rips into record 7's payload.
  uint64_t size = fs::file_size(seg_path);
  fs::resize_file(seg_path, size - 40);

  storage::LogStore store(Options());
  ASSERT_TRUE(store.Open().ok());
  EXPECT_EQ(store.count(), 7u);
  for (uint64_t lid = 0; lid < 7; ++lid) {
    auto r = store.Get(lid);
    ASSERT_TRUE(r.ok()) << lid;
    EXPECT_EQ(*r, payloads[lid]);
  }
  EXPECT_TRUE(store.Get(7).status().IsNotFound());
  // The truncated position is writable again.
  ASSERT_TRUE(store.Append(7, "rewritten").ok());
  EXPECT_EQ(*store.Get(7), "rewritten");
}

// --------------------------------------- scripted disk faults + recovery

TEST_F(TombstoneTest, TornFrameDuringSegmentRotationRecovers) {
  // Tiny segments force a rotation; the schedule tears the first write into
  // the fresh segment mid-frame. Recovery must keep every record of the
  // sealed segment and truncate the torn tail of the new one — exactly to
  // the last durable record.
  storage::DiskFaultSchedule faults;
  faults.TornWriteNth("seg-00000001", 1, 9);
  storage::LogStoreOptions o = Options();
  o.segment_bytes = 256;  // ~2 records per segment
  o.mode = storage::SyncMode::kFsyncEach;
  o.disk_faults = &faults;
  std::vector<uint64_t> acked;
  {
    storage::LogStore store(o);
    ASSERT_TRUE(store.Open().ok());
    for (uint64_t lid = 0; lid < 8; ++lid) {
      if (store.Append(lid, "rec-" + std::to_string(lid) +
                                std::string(100, 'r')).ok()) {
        acked.push_back(lid);
      }
    }
  }
  ASSERT_TRUE(faults.crashed());
  ASSERT_FALSE(acked.empty());
  ASSERT_LT(acked.size(), 8u);

  // No SimulateCrash: the torn bytes *did* reach the platter. Recovery has
  // to find the short frame, fail its CRC, and truncate it away.
  storage::LogStore store(Options());
  ASSERT_TRUE(store.Open().ok());
  EXPECT_EQ(store.ListLids(), acked);
  // The truncated position is writable again (hole repair relies on this).
  uint64_t next = acked.back() + 1;
  ASSERT_TRUE(store.Append(next, "rewritten").ok());
  EXPECT_EQ(*store.Get(next), "rewritten");
}

TEST_F(TombstoneTest, FailedFsyncBeforeAckIsNotRecovered) {
  // The frame reaches the page cache but fdatasync fails, so the append is
  // never acked. Power loss drops the unsynced bytes; recovery must end at
  // the last record whose group-commit sync succeeded.
  storage::DiskFaultSchedule faults;
  faults.FailSyncNth("seg-", 3);
  storage::LogStoreOptions o = Options();
  o.mode = storage::SyncMode::kFsyncEach;
  o.disk_faults = &faults;
  std::vector<uint64_t> acked;
  {
    storage::LogStore store(o);
    ASSERT_TRUE(store.Open().ok());
    for (uint64_t lid = 0; lid < 6; ++lid) {
      if (store.Append(lid, "rec-" + std::to_string(lid)).ok()) {
        acked.push_back(lid);
      }
    }
  }
  ASSERT_EQ(acked, (std::vector<uint64_t>{0, 1}));
  ASSERT_TRUE(faults.SimulateCrash().ok());

  storage::LogStore store(Options());
  ASSERT_TRUE(store.Open().ok());
  EXPECT_EQ(store.ListLids(), acked);
}

TEST_F(TombstoneTest, DurableTombstoneSurvivesPowerLoss) {
  // A removal acked by a durable store is as durable as an append: power
  // loss with no explicit Sync() must not bring the removed record back.
  storage::DiskFaultSchedule faults;
  storage::LogStoreOptions o = Options();
  o.mode = storage::SyncMode::kFsyncEach;
  o.disk_faults = &faults;
  {
    storage::LogStore store(o);
    ASSERT_TRUE(store.Open().ok());
    ASSERT_TRUE(store.Append(1, "doomed").ok());
    ASSERT_TRUE(store.Append(2, "kept").ok());
    ASSERT_TRUE(store.Remove(1).ok());
  }
  ASSERT_TRUE(faults.SimulateCrash().ok());

  storage::LogStore store(o);
  ASSERT_TRUE(store.Open().ok());
  EXPECT_TRUE(store.Get(1).status().IsNotFound());
  EXPECT_EQ(*store.Get(2), "kept");
}

TEST_F(TombstoneTest, DurableGcTombstoneSurvivesPowerLoss) {
  // GC drops a segment holding lid 1's tombstone while lid 1's dead data
  // frame survives in an older segment, so GC writes the tombstone again
  // into the active segment. In a durable store that write is synced too:
  // power loss right after GC must not resurrect lid 1.
  storage::DiskFaultSchedule faults;
  storage::LogStoreOptions o = Options();
  o.mode = storage::SyncMode::kFsyncEach;
  o.segment_bytes = 100;  // 57-byte frames: rotation at the second frame
  o.disk_faults = &faults;
  const std::string payload(40, 'p');
  {
    storage::LogStore store(o);
    ASSERT_TRUE(store.Open().ok());
    ASSERT_TRUE(store.Append(1, payload).ok());   // segment 0
    ASSERT_TRUE(store.Append(50, payload).ok());  // segment 0: kept by GC
    ASSERT_TRUE(store.Remove(1).ok());            // segment 1
    ASSERT_TRUE(store.Append(2, std::string(90, 'q')).ok());  // segment 1
    ASSERT_TRUE(store.Append(60, payload).ok());  // segment 2 (active)
    ASSERT_TRUE(store.TruncateBelow(10).ok());    // drops segment 1 only
    EXPECT_TRUE(store.Get(2).status().IsNotFound());
  }
  ASSERT_TRUE(faults.SimulateCrash().ok());

  storage::LogStore store(o);
  ASSERT_TRUE(store.Open().ok());
  EXPECT_EQ(store.ListLids(), (std::vector<uint64_t>{50, 60}));
}

TEST_F(TombstoneTest, FailedGcTombstoneSyncKeepsTheSegment) {
  // Same layout, but the sync of the rewritten tombstones fails. GC must
  // not have unlinked segment 1 by then: it holds the only durable copy of
  // lid 1's tombstone, so power loss would resurrect lid 1. The segment
  // stays whole instead, lid 2 included.
  storage::DiskFaultSchedule faults;
  storage::LogStoreOptions o = Options();
  o.mode = storage::SyncMode::kFsyncEach;
  o.segment_bytes = 100;
  o.disk_faults = &faults;
  const std::string payload(40, 'p');
  {
    storage::LogStore store(o);
    ASSERT_TRUE(store.Open().ok());
    ASSERT_TRUE(store.Append(1, payload).ok());
    ASSERT_TRUE(store.Append(50, payload).ok());
    ASSERT_TRUE(store.Remove(1).ok());
    ASSERT_TRUE(store.Append(2, std::string(90, 'q')).ok());
    ASSERT_TRUE(store.Append(60, payload).ok());
    faults.FailSyncNth("seg-00000002", 1);
    EXPECT_FALSE(store.TruncateBelow(10).ok());
    EXPECT_TRUE(store.Get(2).ok());
  }
  ASSERT_TRUE(faults.SimulateCrash().ok());

  storage::LogStore store(o);
  ASSERT_TRUE(store.Open().ok());
  EXPECT_EQ(store.ListLids(), (std::vector<uint64_t>{2, 50, 60}));
}

// -------------------------------------- recovery under both I/O engines

// The torn-final-frame and failed-linked-fsync scenarios again, but run
// once per I/O engine: recovery semantics must not depend on whether the
// batch went down through write+fdatasync or a linked io_uring submission.
class EngineRecoveryTest : public ::testing::TestWithParam<const char*> {
 protected:
  void SetUp() override {
    if (std::string_view(GetParam()) == "uring" &&
        !storage::IoUringAvailable()) {
      GTEST_SKIP() << "io_uring unavailable on this kernel; uring leg skipped";
    }
    dir_ = fs::temp_directory_path() /
           ("chariots_engine_recovery_" + std::string(GetParam()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  storage::LogStoreOptions Options() {
    storage::LogStoreOptions o;
    o.dir = dir_.string();
    o.io_engine = storage::ResolveIoEngine(GetParam());
    return o;
  }

  fs::path dir_;
};

TEST_P(EngineRecoveryTest, TornFinalFrameMidBatchRecovers) {
  std::vector<storage::AppendEntry> entries;
  std::vector<std::string> payloads;
  for (uint64_t lid = 0; lid < 8; ++lid) {
    payloads.push_back("batch-record-" + std::to_string(lid) +
                       std::string(100, 'x'));
  }
  for (uint64_t lid = 0; lid < 8; ++lid) {
    entries.push_back({lid, payloads[lid]});
  }
  fs::path seg_path;
  {
    storage::LogStore store(Options());
    ASSERT_TRUE(store.Open().ok());
    ASSERT_TRUE(store.AppendBatch(entries).ok());
    ASSERT_TRUE(store.Sync().ok());
  }
  for (const auto& e : fs::directory_iterator(dir_)) seg_path = e.path();
  ASSERT_FALSE(seg_path.empty());
  // Chop the last 40 bytes: rips into record 7's payload.
  uint64_t size = fs::file_size(seg_path);
  fs::resize_file(seg_path, size - 40);

  storage::LogStore store(Options());
  ASSERT_TRUE(store.Open().ok());
  EXPECT_EQ(store.count(), 7u);
  for (uint64_t lid = 0; lid < 7; ++lid) {
    auto r = store.Get(lid);
    ASSERT_TRUE(r.ok()) << lid;
    EXPECT_EQ(*r, payloads[lid]);
  }
  EXPECT_TRUE(store.Get(7).status().IsNotFound());
  ASSERT_TRUE(store.Append(7, "rewritten").ok());
  EXPECT_EQ(*store.Get(7), "rewritten");
}

TEST_P(EngineRecoveryTest, FailedLinkedFsyncBeforeAckIsNotRecovered) {
  storage::DiskFaultSchedule faults;
  faults.FailSyncNth("seg-", 3);
  storage::LogStoreOptions o = Options();
  o.mode = storage::SyncMode::kFsyncEach;
  o.disk_faults = &faults;
  std::vector<uint64_t> acked;
  {
    storage::LogStore store(o);
    ASSERT_TRUE(store.Open().ok());
    for (uint64_t lid = 0; lid < 6; ++lid) {
      if (store.Append(lid, "rec-" + std::to_string(lid)).ok()) {
        acked.push_back(lid);
      }
    }
  }
  ASSERT_EQ(acked, (std::vector<uint64_t>{0, 1}));
  ASSERT_TRUE(faults.SimulateCrash().ok());

  storage::LogStore store(Options());
  ASSERT_TRUE(store.Open().ok());
  EXPECT_EQ(store.ListLids(), acked);
}

INSTANTIATE_TEST_SUITE_P(BothEngines, EngineRecoveryTest,
                         ::testing::Values("sync", "uring"),
                         [](const auto& info) {
                           return std::string(info.param);
                         });

TEST_F(TombstoneTest, TornDedupSidecarRecoversToLastDurableToken) {
  fs::create_directories(dir_);
  std::string sidecar = (dir_ / "dedup.sidecar").string();
  storage::DiskFaultSchedule faults;
  faults.TornWriteNth("dedup.sidecar", 4, 5);
  {
    flstore::DedupWindow dedup({16, sidecar, 0, &faults});
    ASSERT_TRUE(dedup.Open().ok());
    for (uint64_t seq = 1; seq <= 6; ++seq) {
      Status st = dedup.Record("client-a", seq, "resp-" + std::to_string(seq));
      // The 4th sidecar append tears: that token is never acked.
      EXPECT_EQ(st.ok(), seq < 4) << seq;
    }
  }
  // Reopen over the torn file (no schedule): replay must truncate the torn
  // frame and keep every durable token.
  flstore::DedupWindow dedup({16, sidecar, 0, nullptr});
  ASSERT_TRUE(dedup.Open().ok());
  for (uint64_t seq = 1; seq <= 3; ++seq) {
    auto hit = dedup.Lookup("client-a", seq);
    ASSERT_TRUE(hit.ok()) << seq;
    ASSERT_TRUE(hit->has_value()) << seq;
    EXPECT_EQ(**hit, "resp-" + std::to_string(seq));
  }
  auto miss = dedup.Lookup("client-a", 4);
  ASSERT_TRUE(miss.ok());
  EXPECT_FALSE(miss->has_value());  // safe to re-execute: never acked
}

TEST_F(TombstoneTest, DedupSidecarStaysBoundedAcrossRestarts) {
  // A long-lived maintainer must not replay an unbounded sidecar: once the
  // file is mostly superseded frames, it is compacted to the live window.
  fs::create_directories(dir_);
  std::string sidecar = (dir_ / "dedup.sidecar").string();
  {
    flstore::DedupWindow dedup({4, sidecar, 8, nullptr});
    ASSERT_TRUE(dedup.Open().ok());
    for (uint64_t seq = 1; seq <= 200; ++seq) {
      ASSERT_TRUE(
          dedup.Record("client-a", seq, "resp-" + std::to_string(seq)).ok());
    }
    EXPECT_GT(dedup.compactions(), 0u);
    EXPECT_LE(dedup.sidecar_frames(), 16u);  // bounded, not 200
  }
  flstore::DedupWindow dedup({4, sidecar, 8, nullptr});
  ASSERT_TRUE(dedup.Open().ok());
  EXPECT_EQ(dedup.entries(), 4u);  // exactly the live window survived
  auto hit = dedup.Lookup("client-a", 200);
  ASSERT_TRUE(hit.ok());
  ASSERT_TRUE(hit->has_value());
  EXPECT_EQ(**hit, "resp-200");
  // A token older than the window is rejected, not silently re-executed.
  EXPECT_FALSE(dedup.Lookup("client-a", 1).ok());
}

// ------------------------------------------------------ maintainer removal

TEST(MaintainerRemoveTest, RemoveRewindsFillState) {
  flstore::MaintainerOptions o;
  o.index = 0;
  o.journal = flstore::EpochJournal(1, 10);
  o.store.mode = storage::SyncMode::kMemoryOnly;
  flstore::LogMaintainer m(o);
  ASSERT_TRUE(m.Open().ok());
  flstore::LogRecord rec;
  rec.body = "r";
  ASSERT_TRUE(m.Append(rec).ok());  // lid 0
  ASSERT_TRUE(m.Append(rec).ok());  // lid 1
  ASSERT_TRUE(m.Append(rec).ok());  // lid 2
  EXPECT_EQ(m.FirstUnfilledGlobal(), 3u);
  ASSERT_TRUE(m.Remove(2).ok());
  EXPECT_EQ(m.FirstUnfilledGlobal(), 2u);
  EXPECT_EQ(m.StoredLids(), (std::vector<flstore::LId>{0, 1}));
  // The freed position is assigned again by the next append.
  auto lid = m.Append(rec);
  ASSERT_TRUE(lid.ok());
  EXPECT_EQ(*lid, 2u);
}

// The store's LId index — the maintainer's only one — is rebuilt by the
// recovery scan that replays the segments: after a reopen every record
// reads back and the tombstone still hides the removed one.
TEST(MaintainerRemoveTest, IndexRebuiltInRecoveryScan) {
  fs::path dir = fs::temp_directory_path() / "chariots_index_recovery";
  fs::remove_all(dir);
  flstore::MaintainerOptions o;
  o.index = 0;
  o.journal = flstore::EpochJournal(1, 10);
  o.store.dir = dir.string();
  flstore::LogRecord rec;
  rec.body = "durable";
  {
    flstore::LogMaintainer m(o);
    ASSERT_TRUE(m.Open().ok());
    for (int i = 0; i < 8; ++i) ASSERT_TRUE(m.Append(rec).ok());
    ASSERT_TRUE(m.Remove(7).ok());  // tombstone: the index must follow
    EXPECT_EQ(m.count(), 7u);
    EXPECT_EQ(m.StoredLids(),
              (std::vector<flstore::LId>{0, 1, 2, 3, 4, 5, 6}));
    EXPECT_TRUE(m.Read(7).status().IsNotFound());
    ASSERT_TRUE(m.Close().ok());
  }
  flstore::LogMaintainer m(o);
  ASSERT_TRUE(m.Open().ok());
  EXPECT_EQ(m.count(), 7u);
  EXPECT_EQ(m.StoredLids(), (std::vector<flstore::LId>{0, 1, 2, 3, 4, 5, 6}));
  for (flstore::LId lid = 0; lid < 7; ++lid) {
    auto read = m.Read(lid);
    ASSERT_TRUE(read.ok()) << lid << ": " << read.status();
    EXPECT_EQ(read->body, "durable");
  }
  EXPECT_TRUE(m.Read(7).status().IsNotFound());
  // The removed position is the first unfilled one again.
  EXPECT_EQ(m.FirstUnfilledGlobal(), 7u);
  fs::remove_all(dir);
}

// --------------------------------------------------- datacenter restart

class DatacenterRecoveryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("chariots_dc_recovery_" + std::string(::testing::UnitTest::
                                                      GetInstance()
                                                          ->current_test_info()
                                                          ->name()));
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  ChariotsConfig Config(uint32_t dc_id, uint32_t n) {
    ChariotsConfig config;
    config.dc_id = dc_id;
    config.num_datacenters = n;
    config.num_maintainers = 2;
    config.stripe_batch = 3;
    config.store_mode = storage::SyncMode::kBuffered;
    config.store_dir = (dir_ / ("dc" + std::to_string(dc_id))).string();
    return config;
  }

  fs::path dir_;
};

TEST_F(DatacenterRecoveryTest, SingleDcRestartKeepsLogAndClocks) {
  TOId last_toid = 0;
  {
    Datacenter dc(Config(0, 1));
    ASSERT_TRUE(dc.Start().ok());
    ChariotsClient client(&dc);
    for (int i = 0; i < 10; ++i) {
      auto r = client.Append("persisted-" + std::to_string(i),
                             {{"k", std::to_string(i)}});
      ASSERT_TRUE(r.ok());
      last_toid = r->first;
    }
    dc.Stop();  // clean shutdown writes a checkpoint
  }

  Datacenter dc(Config(0, 1));
  ASSERT_TRUE(dc.Start().ok());
  // The full log is back, in order.
  EXPECT_EQ(dc.HeadLid(), 10u);
  auto log = dc.ReadRange(0, 100);
  ASSERT_EQ(log.size(), 10u);
  for (size_t i = 0; i < log.size(); ++i) {
    EXPECT_EQ(log[i].toid, i + 1);
    EXPECT_EQ(log[i].body, "persisted-" + std::to_string(i));
  }
  // The index is rebuilt.
  flstore::IndexQuery q;
  q.key = "k";
  q.value_equals = "7";
  auto postings = dc.Lookup(q);
  ASSERT_EQ(postings.size(), 1u);
  // The TOId clock resumes — no reuse.
  ChariotsClient client(&dc);
  auto r = client.Append("after-restart");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->first, last_toid + 1);
  EXPECT_EQ(r->second, 10u);  // next lid too
  dc.Stop();
}

TEST_F(DatacenterRecoveryTest, DurableAppendsGroupCommitPerTokenStep) {
  // kFsyncEach syncs before every ack; group commit keeps that promise with
  // one write per maintainer per token step, not one per record.
  constexpr int kAppends = 1000;
  ChariotsConfig config = Config(0, 1);
  config.store_mode = storage::SyncMode::kFsyncEach;
  config.stripe_batch = 100;
  metrics::Histogram* fsyncs = metrics::Registry::Default().GetHistogram(
      "storage.log_store.fsync_ns");
  std::mutex mu;
  std::vector<std::pair<TOId, flstore::LId>> acks;
  {
    Datacenter dc(config);
    ASSERT_TRUE(dc.Start().ok());
    const uint64_t before = fsyncs->count();
    for (int i = 0; i < kAppends; ++i) {
      dc.Append("r" + std::to_string(i + 1), {}, {},
                [&](TOId toid, flstore::LId lid) {
                  std::lock_guard<std::mutex> lock(mu);
                  acks.emplace_back(toid, lid);
                });
    }
    const auto deadline = std::chrono::steady_clock::now() + 30s;
    size_t acked = 0;
    while (acked < kAppends && std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(1ms);
      std::lock_guard<std::mutex> lock(mu);
      acked = acks.size();
    }
    ASSERT_EQ(acked, size_t{kAppends});
    const uint64_t synced = fsyncs->count() - before;
    EXPECT_GE(synced, 1u);
    EXPECT_LE(static_cast<double>(synced) / kAppends, 0.25)
        << synced << " fsyncs for " << kAppends << " records";
  }
  Datacenter dc(config);
  ASSERT_TRUE(dc.Start().ok());
  EXPECT_EQ(dc.HeadLid(), flstore::LId{kAppends});
  for (const auto& [toid, lid] : acks) {
    auto record = dc.Read(lid);
    ASSERT_TRUE(record.ok()) << "acked lid " << lid << " lost";
    EXPECT_EQ(record->toid, toid);
    EXPECT_EQ(record->body, "r" + std::to_string(toid));
  }
}

TEST_F(DatacenterRecoveryTest, RestartedReplicaRejoinsGroup) {
  net::InProcTransport transport;
  TransportFabric fabric(&transport);
  auto dc1 = std::make_unique<Datacenter>(Config(1, 2), &fabric);
  ASSERT_TRUE(dc1->Start().ok());
  {
    Datacenter dc0(Config(0, 2), &fabric);
    ASSERT_TRUE(dc0.Start().ok());
    ChariotsClient client(&dc0);
    for (int i = 0; i < 5; ++i) {
      ASSERT_TRUE(client.Append("from-dc0").ok());
    }
    ASSERT_TRUE(dc1->WaitForToid(0, 5, 5'000'000'000));
    dc0.Stop();
  }

  // dc0 restarts; dc1 appends while dc0 is down... then they reconverge.
  ChariotsClient remote(dc1.get());
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(remote.Append("while-down").ok());
  }
  Datacenter dc0(Config(0, 2), &fabric);
  ASSERT_TRUE(dc0.Start().ok());
  // Its own log recovered. GE, not EQ: replication from dc1 may already
  // have delivered the while-down records by the time we look.
  EXPECT_GE(dc0.HeadLid(), 5u);
  // Replication catches dc0 up on what it missed.
  ASSERT_TRUE(dc0.WaitForToid(1, 3, 10'000'000'000));
  EXPECT_EQ(dc0.HeadLid(), 8u);
  // And dc0's own clock continues without colliding.
  ChariotsClient local(&dc0);
  auto r = local.Append("back-online");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->first, 6u);
  ASSERT_TRUE(dc1->WaitForToid(0, 6, 10'000'000'000));
  dc0.Stop();
  dc1->Stop();
}

TEST_F(DatacenterRecoveryTest, RestartedSenderShipsUnackedRecordsFromTheLog) {
  // dc0 restarts holding records no peer has: its tail cache is empty and
  // nothing but the log remembers them, so its sender reads them back from
  // the LogStore once the partition heals.
  constexpr TOId kRecords = 12;
  net::InProcTransport transport;
  TransportFabric fabric(&transport);
  transport.Partition("geo/dc0", "geo/dc1");
  auto dc1 = std::make_unique<Datacenter>(Config(1, 2), &fabric);
  ASSERT_TRUE(dc1->Start().ok());
  {
    Datacenter dc0(Config(0, 2), &fabric);
    ASSERT_TRUE(dc0.Start().ok());
    ChariotsClient client(&dc0);
    for (TOId i = 1; i <= kRecords; ++i) {
      ASSERT_TRUE(client.Append("r" + std::to_string(i)).ok());
    }
    dc0.Stop();
  }
  Datacenter dc0(Config(0, 2), &fabric);
  ASSERT_TRUE(dc0.Start().ok());
  EXPECT_EQ(dc0.atable().Get(0, 0), kRecords);
  EXPECT_EQ(dc0.atable().Get(1, 0), 0u);
  transport.Heal("geo/dc0", "geo/dc1");
  ASSERT_TRUE(dc1->WaitForToid(0, kRecords, 10'000'000'000));
  // Exactly once, in order.
  auto log = dc1->ReadRange(0, 100);
  ASSERT_EQ(log.size(), kRecords);
  for (TOId i = 0; i < kRecords; ++i) {
    EXPECT_EQ(log[i].host, 0u);
    EXPECT_EQ(log[i].toid, i + 1);
    EXPECT_EQ(log[i].body, "r" + std::to_string(i + 1));
  }
  dc0.Stop();
  dc1->Stop();
}

TEST_F(DatacenterRecoveryTest, CheckpointPlusGcRecoversWithHorizon) {
  net::InProcTransport transport;
  TransportFabric fabric(&transport);
  auto dc1 = std::make_unique<Datacenter>(Config(1, 2), &fabric);
  ASSERT_TRUE(dc1->Start().ok());
  {
    Datacenter dc0(Config(0, 2), &fabric);
    ASSERT_TRUE(dc0.Start().ok());
    ChariotsClient client(&dc0);
    for (int i = 0; i < 10; ++i) {
      ASSERT_TRUE(client.Append("r" + std::to_string(i)).ok());
    }
    ASSERT_TRUE(dc1->WaitForToid(0, 10, 5'000'000'000));
    // Wait for dc1's knowledge to round-trip, then GC at dc0.
    int64_t deadline = SystemClock::Default()->NowNanos() + 5'000'000'000;
    while (dc0.atable().Get(1, 0) < 10 &&
           SystemClock::Default()->NowNanos() < deadline) {
      std::this_thread::sleep_for(1ms);
    }
    ASSERT_TRUE(dc0.RunGcOnce().ok());
    ASSERT_GT(dc0.gc_horizon(), 0u);
    dc0.Stop();
  }

  Datacenter dc0(Config(0, 2), &fabric);
  ASSERT_TRUE(dc0.Start().ok());
  // Post-GC restart: the head and horizon survive; old lids stay gone.
  EXPECT_EQ(dc0.HeadLid(), 10u);
  EXPECT_GT(dc0.gc_horizon(), 0u);
  // Appends continue with fresh TOIds.
  ChariotsClient client(&dc0);
  auto r = client.Append("post-gc");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->first, 11u);
  EXPECT_EQ(r->second, 10u);
  dc0.Stop();
  dc1->Stop();
}

TEST_F(DatacenterRecoveryTest, CrashRecoveryUnderLossyNetwork) {
  // The full gauntlet: one replica restarts while the network is dropping
  // 20% of messages; both sides keep writing; everything converges with
  // exactly-once incorporation.
  net::InProcTransport transport;
  net::LinkOptions lossy;
  lossy.drop_probability = 0.2;
  transport.SetLink("geo/dc0", "geo/dc1", lossy);
  transport.SetLink("geo/dc1", "geo/dc0", lossy);
  TransportFabric fabric(&transport);

  auto dc1 = std::make_unique<Datacenter>(Config(1, 2), &fabric);
  ASSERT_TRUE(dc1->Start().ok());
  {
    Datacenter dc0(Config(0, 2), &fabric);
    ASSERT_TRUE(dc0.Start().ok());
    ChariotsClient client(&dc0);
    for (int i = 0; i < 15; ++i) {
      ASSERT_TRUE(client.Append("pre-crash").ok());
    }
    dc0.Stop();
  }
  ChariotsClient remote(dc1.get());
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(remote.Append("while-down").ok());
  }

  Datacenter dc0(Config(0, 2), &fabric);
  ASSERT_TRUE(dc0.Start().ok());
  ChariotsClient local(&dc0);
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(local.Append("post-restart").ok());
  }
  ASSERT_TRUE(dc0.WaitForToid(1, 10, 30'000'000'000));
  ASSERT_TRUE(dc1->WaitForToid(0, 20, 30'000'000'000));

  // Exactly-once: both replicas hold exactly 30 records, one per (host,
  // toid) pair.
  for (Datacenter* dc : {&dc0, dc1.get()}) {
    auto log = dc->ReadRange(0, 100);
    ASSERT_EQ(log.size(), 30u);
    std::set<std::pair<DatacenterId, TOId>> ids;
    for (const auto& r : log) {
      EXPECT_TRUE(ids.insert({r.host, r.toid}).second);
    }
  }
  dc0.Stop();
  dc1->Stop();
}

TEST_F(DatacenterRecoveryTest, UnreadableCheckpointFailsStart) {
  // Were it treated as absent, next_toid_ would restart below the
  // checkpoint once GC removed the local records, and peers would drop the
  // reissued TOIds as duplicates.
  ChariotsConfig config = Config(0, 1);
  {
    Datacenter dc(config);
    ASSERT_TRUE(dc.Start().ok());
    ChariotsClient client(&dc);
    ASSERT_TRUE(client.Append("r").ok());
    dc.Stop();
  }
  // A directory opens like a file but cannot be read.
  fs::path checkpoint = fs::path(config.store_dir) / "checkpoint";
  fs::remove(checkpoint);
  fs::create_directory(checkpoint);
  Datacenter dc(config);
  EXPECT_FALSE(dc.Start().ok());
}

TEST_F(DatacenterRecoveryTest, FailedStartLeavesTheCheckpointAlone) {
  ChariotsConfig config = Config(0, 1);
  {
    Datacenter dc(config);
    ASSERT_TRUE(dc.Start().ok());
    ChariotsClient client(&dc);
    ASSERT_TRUE(client.Append("r").ok());
    dc.Stop();
  }
  const std::string checkpoint = config.store_dir + "/checkpoint";
  ASSERT_TRUE(
      storage::WriteStringToFileAtomic("not a checkpoint", checkpoint).ok());
  {
    Datacenter dc(config);
    EXPECT_TRUE(dc.Start().IsCorruption());
  }  // the destructor's Stop() must not overwrite what Start() refused
  std::string raw;
  ASSERT_TRUE(storage::ReadFileToString(checkpoint, &raw).ok());
  EXPECT_EQ(raw, "not a checkpoint");
}

TEST_F(DatacenterRecoveryTest, StragglerBeyondHoleIsDiscarded) {
  // Simulate a crash that lost a buffered write: build a valid log, then
  // remove a middle lid directly from the underlying store before restart.
  ChariotsConfig config = Config(0, 1);
  {
    Datacenter dc(config);
    ASSERT_TRUE(dc.Start().ok());
    ChariotsClient client(&dc);
    for (int i = 0; i < 6; ++i) {
      ASSERT_TRUE(client.Append("r" + std::to_string(i)).ok());
    }
    dc.Stop();
  }
  // Delete the checkpoint (simulating a hard crash: the shutdown
  // checkpoint never happened) and punch a hole at lid 3.
  fs::remove(fs::path(config.store_dir) / "checkpoint");
  {
    storage::LogStoreOptions so;
    // lid 3: journal (2 maintainers, batch 3) -> maintainer 1 owns 3,4,5.
    so.dir = config.store_dir + "/maintainer-1";
    storage::LogStore store(so);
    ASSERT_TRUE(store.Open().ok());
    ASSERT_TRUE(store.Remove(3).ok());
  }

  Datacenter dc(config);
  ASSERT_TRUE(dc.Start().ok());
  // The contiguous prefix [0,3) survives; 4 and 5 were stragglers.
  EXPECT_EQ(dc.HeadLid(), 3u);
  auto log = dc.ReadRange(0, 100);
  ASSERT_EQ(log.size(), 3u);
  // New appends refill the discarded positions.
  ChariotsClient client(&dc);
  auto r = client.Append("refill");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->second, 3u);
  EXPECT_EQ(r->first, 4u);  // toids 4..6 were lost with the hole
  dc.Stop();
}

}  // namespace
}  // namespace chariots
