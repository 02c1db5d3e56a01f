// Unit tests for the persistence substrate (segment store + recovery).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <future>
#include <iostream>
#include <map>
#include <thread>
#include <type_traits>
#include <vector>

#include "common/metrics.h"
#include "common/random.h"
#include "flstore/maintainer.h"
#include "storage/archive.h"
#include "storage/file.h"
#include "storage/fault_injection.h"
#include "storage/format.h"
#include "storage/io_engine.h"
#include "storage/log_store.h"
#include "scripted_io_engine.h"

namespace chariots::storage {
namespace {

namespace fs = std::filesystem;

class LogStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("chariots_storage_test_" +
            std::to_string(::testing::UnitTest::GetInstance()
                               ->random_seed()) +
            "_" + ::testing::UnitTest::GetInstance()
                      ->current_test_info()
                      ->name());
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  LogStoreOptions Options(SyncMode mode = SyncMode::kBuffered,
                          uint64_t segment_bytes = 64 << 20) {
    LogStoreOptions o;
    o.dir = dir_.string();
    o.mode = mode;
    o.segment_bytes = segment_bytes;
    return o;
  }

  fs::path dir_;
};

TEST_F(LogStoreTest, MemoryOnlyRoundTrip) {
  LogStoreOptions o;
  o.mode = SyncMode::kMemoryOnly;
  LogStore store(o);
  ASSERT_TRUE(store.Open().ok());
  ASSERT_TRUE(store.Append(5, "five").ok());
  ASSERT_TRUE(store.Append(9, "nine").ok());
  EXPECT_EQ(store.count(), 2u);
  EXPECT_EQ(store.max_lid(), 9u);
  auto r = store.Get(5);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, "five");
  EXPECT_TRUE(store.Get(6).status().IsNotFound());
  EXPECT_TRUE(store.Contains(9));
  EXPECT_FALSE(store.Contains(6));
}

TEST_F(LogStoreTest, PersistentRoundTrip) {
  LogStore store(Options());
  ASSERT_TRUE(store.Open().ok());
  for (uint64_t lid = 0; lid < 100; ++lid) {
    ASSERT_TRUE(store.Append(lid, "payload-" + std::to_string(lid)).ok());
  }
  for (uint64_t lid = 0; lid < 100; ++lid) {
    auto r = store.Get(lid);
    ASSERT_TRUE(r.ok()) << lid;
    EXPECT_EQ(*r, "payload-" + std::to_string(lid));
  }
  EXPECT_GT(store.SizeBytes(), 0u);
}

TEST_F(LogStoreTest, DuplicateAppendRejected) {
  LogStore store(Options());
  ASSERT_TRUE(store.Open().ok());
  ASSERT_TRUE(store.Append(1, "a").ok());
  EXPECT_EQ(store.Append(1, "b").code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(*store.Get(1), "a");
}

TEST_F(LogStoreTest, AppendBatchRoundTripAndRecovery) {
  std::vector<std::string> payloads;
  std::vector<AppendEntry> entries;
  for (uint64_t lid = 0; lid < 64; ++lid) {
    payloads.push_back("batched-" + std::to_string(lid));
  }
  for (uint64_t lid = 0; lid < 64; ++lid) {
    entries.push_back({lid, payloads[lid]});
  }
  {
    LogStore store(Options());
    ASSERT_TRUE(store.Open().ok());
    ASSERT_TRUE(store.AppendBatch(entries).ok());
    EXPECT_EQ(store.count(), 64u);
    for (uint64_t lid = 0; lid < 64; ++lid) {
      EXPECT_EQ(*store.Get(lid), payloads[lid]) << lid;
    }
  }
  // Reopen: index offsets written by the batch path must survive recovery.
  LogStore store(Options());
  ASSERT_TRUE(store.Open().ok());
  EXPECT_EQ(store.count(), 64u);
  for (uint64_t lid = 0; lid < 64; ++lid) {
    EXPECT_EQ(*store.Get(lid), payloads[lid]) << lid;
  }
}

TEST_F(LogStoreTest, AppendBatchRejectsExistingOrDuplicateLidAtomically) {
  LogStore store(Options());
  ASSERT_TRUE(store.Open().ok());
  ASSERT_TRUE(store.Append(5, "five").ok());
  // Batch containing an existing lid: nothing from the batch is written.
  std::vector<AppendEntry> overlap = {{4, "a"}, {5, "b"}, {6, "c"}};
  EXPECT_EQ(store.AppendBatch(overlap).code(), StatusCode::kAlreadyExists);
  EXPECT_FALSE(store.Contains(4));
  EXPECT_FALSE(store.Contains(6));
  EXPECT_EQ(*store.Get(5), "five");
  // Batch with an internal duplicate: also rejected whole.
  std::vector<AppendEntry> dup = {{7, "a"}, {8, "b"}, {7, "c"}};
  EXPECT_EQ(store.AppendBatch(dup).code(), StatusCode::kAlreadyExists);
  EXPECT_FALSE(store.Contains(7));
  EXPECT_FALSE(store.Contains(8));
  EXPECT_EQ(store.count(), 1u);
}

TEST_F(LogStoreTest, NonMonotonicBatchWithDuplicateIsRejectedWhole) {
  LogStore store(Options());
  ASSERT_TRUE(store.Open().ok());
  ASSERT_TRUE(store.Append(10, "ten").ok());
  const uint64_t bytes = store.SizeBytes();
  // Out of order, so the one-scan check does not apply: the set catches it.
  std::vector<AppendEntry> dup = {{12, "a"}, {3, "b"}, {12, "c"}};
  EXPECT_EQ(store.AppendBatch(dup).code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(store.count(), 1u);
  EXPECT_EQ(store.ListLids(), (std::vector<uint64_t>{10}));
  EXPECT_EQ(store.SizeBytes(), bytes);
  EXPECT_FALSE(store.Contains(3));
  EXPECT_FALSE(store.Contains(12));
  // The same batch without the repeat lands, out of order, and recovers.
  std::vector<AppendEntry> ok = {{12, "a"}, {3, "b"}};
  ASSERT_TRUE(store.AppendBatch(ok).ok());
  ASSERT_TRUE(store.Close().ok());
  ASSERT_TRUE(store.Open().ok());
  EXPECT_EQ(store.ListLids(), (std::vector<uint64_t>{3, 10, 12}));
  EXPECT_EQ(*store.Get(3), "b");
  EXPECT_EQ(*store.Get(12), "a");
}

TEST_F(LogStoreTest, BatchEqualsSinglesOnDisk) {
  std::string payload(64, 'p');
  auto dir2 = dir_;
  dir2 += "_singles";
  LogStoreOptions o2;
  o2.dir = dir2.string();
  LogStore batched(Options());
  LogStore singles(o2);
  ASSERT_TRUE(batched.Open().ok());
  ASSERT_TRUE(singles.Open().ok());
  std::vector<AppendEntry> entries;
  for (uint64_t lid = 0; lid < 10; ++lid) entries.push_back({lid, payload});
  ASSERT_TRUE(batched.AppendBatch(entries).ok());
  for (uint64_t lid = 0; lid < 10; ++lid) {
    ASSERT_TRUE(singles.Append(lid, payload).ok());
  }
  EXPECT_EQ(batched.SizeBytes(), singles.SizeBytes());
  EXPECT_EQ(batched.ListLids(), singles.ListLids());
  std::filesystem::remove_all(dir2);
}

TEST_F(LogStoreTest, FsyncEachSurvivesReopen) {
  LogStoreOptions o = Options(SyncMode::kFsyncEach);
  {
    LogStore store(o);
    ASSERT_TRUE(store.Open().ok());
    std::vector<AppendEntry> batch = {{1, "one"}, {2, "two"}};
    ASSERT_TRUE(store.AppendBatch(batch).ok());
  }
  LogStore store(Options());
  ASSERT_TRUE(store.Open().ok());
  EXPECT_EQ(store.count(), 2u);
  EXPECT_EQ(*store.Get(2), "two");
}

TEST_F(LogStoreTest, OperationsBeforeOpenFail) {
  LogStore store(Options());
  EXPECT_EQ(store.Append(1, "x").code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(store.Get(1).status().code(), StatusCode::kFailedPrecondition);
}

TEST_F(LogStoreTest, RecoveryAfterReopen) {
  {
    LogStore store(Options());
    ASSERT_TRUE(store.Open().ok());
    for (uint64_t lid = 0; lid < 50; ++lid) {
      ASSERT_TRUE(store.Append(lid * 3, std::string(lid + 1, 'z')).ok());
    }
    ASSERT_TRUE(store.Sync().ok());
  }
  LogStore store(Options());
  ASSERT_TRUE(store.Open().ok());
  EXPECT_EQ(store.count(), 50u);
  EXPECT_EQ(store.max_lid(), 49u * 3);
  for (uint64_t lid = 0; lid < 50; ++lid) {
    auto r = store.Get(lid * 3);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r->size(), lid + 1);
  }
  // Appends continue to work after recovery.
  ASSERT_TRUE(store.Append(1000, "new").ok());
  EXPECT_EQ(*store.Get(1000), "new");
}

TEST_F(LogStoreTest, SegmentRotation) {
  // Tiny segments force rotation every few records.
  LogStore store(Options(SyncMode::kBuffered, 256));
  ASSERT_TRUE(store.Open().ok());
  for (uint64_t lid = 0; lid < 100; ++lid) {
    ASSERT_TRUE(store.Append(lid, std::string(64, 'a' + lid % 26)).ok());
  }
  size_t seg_files = 0;
  for (auto& e : fs::directory_iterator(dir_)) {
    if (e.path().filename().string().rfind("seg-", 0) == 0) ++seg_files;
  }
  EXPECT_GT(seg_files, 10u);
  // All still readable.
  for (uint64_t lid = 0; lid < 100; ++lid) {
    ASSERT_TRUE(store.Get(lid).ok()) << lid;
  }
}

TEST_F(LogStoreTest, RecoveryAcrossManySegments) {
  {
    LogStore store(Options(SyncMode::kBuffered, 256));
    ASSERT_TRUE(store.Open().ok());
    for (uint64_t lid = 0; lid < 200; ++lid) {
      ASSERT_TRUE(store.Append(lid, "v" + std::to_string(lid)).ok());
    }
  }
  LogStore store(Options(SyncMode::kBuffered, 256));
  ASSERT_TRUE(store.Open().ok());
  EXPECT_EQ(store.count(), 200u);
  EXPECT_EQ(*store.Get(123), "v123");
}

TEST_F(LogStoreTest, TornTailIsTruncatedOnRecovery) {
  {
    LogStore store(Options());
    ASSERT_TRUE(store.Open().ok());
    ASSERT_TRUE(store.Append(0, "keep-me").ok());
    ASSERT_TRUE(store.Append(1, "torn-victim").ok());
  }
  // Chop a few bytes off the (single) segment file, simulating a crash
  // mid-write.
  fs::path seg;
  for (auto& e : fs::directory_iterator(dir_)) {
    if (e.path().filename().string().rfind("seg-", 0) == 0) seg = e.path();
  }
  ASSERT_FALSE(seg.empty());
  fs::resize_file(seg, fs::file_size(seg) - 4);

  LogStore store(Options());
  ASSERT_TRUE(store.Open().ok());
  EXPECT_EQ(store.count(), 1u);
  EXPECT_EQ(*store.Get(0), "keep-me");
  EXPECT_TRUE(store.Get(1).status().IsNotFound());
  // The position is writable again.
  EXPECT_TRUE(store.Append(1, "rewritten").ok());
  EXPECT_EQ(*store.Get(1), "rewritten");
}

TEST_F(LogStoreTest, CorruptMiddleSegmentIsReported) {
  {
    LogStore store(Options(SyncMode::kBuffered, 128));
    ASSERT_TRUE(store.Open().ok());
    for (uint64_t lid = 0; lid < 50; ++lid) {
      ASSERT_TRUE(store.Append(lid, std::string(40, 'q')).ok());
    }
  }
  // Flip a byte in the middle of the FIRST segment (not the last).
  std::vector<fs::path> segs;
  for (auto& e : fs::directory_iterator(dir_)) {
    if (e.path().filename().string().rfind("seg-", 0) == 0) {
      segs.push_back(e.path());
    }
  }
  std::sort(segs.begin(), segs.end());
  ASSERT_GT(segs.size(), 2u);
  {
    std::fstream f(segs.front(), std::ios::in | std::ios::out |
                                     std::ios::binary);
    f.seekp(20);
    char c;
    f.seekg(20);
    f.get(c);
    c ^= 0x5a;
    f.seekp(20);
    f.put(c);
  }
  LogStore store(Options(SyncMode::kBuffered, 128));
  EXPECT_TRUE(store.Open().IsCorruption());
}

TEST_F(LogStoreTest, FsyncEachModeWrites) {
  LogStore store(Options(SyncMode::kFsyncEach));
  ASSERT_TRUE(store.Open().ok());
  ASSERT_TRUE(store.Append(0, "durable").ok());
  EXPECT_EQ(*store.Get(0), "durable");
}

TEST_F(LogStoreTest, TruncateBelowDropsWholeColdSegments) {
  LogStore store(Options(SyncMode::kBuffered, 128));
  ASSERT_TRUE(store.Open().ok());
  for (uint64_t lid = 0; lid < 100; ++lid) {
    ASSERT_TRUE(store.Append(lid, std::string(40, 'g')).ok());
  }
  uint64_t before = store.count();
  ASSERT_TRUE(store.TruncateBelow(50).ok());
  EXPECT_LT(store.count(), before);
  // Everything at/above the horizon survives.
  for (uint64_t lid = 50; lid < 100; ++lid) {
    EXPECT_TRUE(store.Contains(lid)) << lid;
  }
  // GC'd records read as NotFound.
  EXPECT_FALSE(store.Contains(0));
}

TEST_F(LogStoreTest, TruncateBelowArchivesWhenAsked) {
  LogStore store(Options(SyncMode::kBuffered, 128));
  ASSERT_TRUE(store.Open().ok());
  for (uint64_t lid = 0; lid < 60; ++lid) {
    ASSERT_TRUE(store.Append(lid, std::string(40, 'h')).ok());
  }
  std::string archive = (dir_ / "cold.archive").string();
  ASSERT_TRUE(store.TruncateBelow(40, archive).ok());
  ASSERT_TRUE(fs::exists(archive));
  EXPECT_GT(fs::file_size(archive), 0u);
}

TEST_F(LogStoreTest, ArchiveIsScannable) {
  LogStore store(Options(SyncMode::kBuffered, 128));
  ASSERT_TRUE(store.Open().ok());
  for (uint64_t lid = 0; lid < 60; ++lid) {
    ASSERT_TRUE(store.Append(lid, "payload-" + std::to_string(lid)).ok());
  }
  std::string archive = (dir_ / "cold.archive").string();
  ASSERT_TRUE(store.TruncateBelow(40, archive).ok());

  // Everything GC'd from the store is readable from the archive, in order,
  // with intact payloads.
  std::vector<uint64_t> lids;
  ASSERT_TRUE(ArchiveReader::Scan(archive, [&](uint64_t lid,
                                               std::string_view payload) {
                EXPECT_EQ(payload, "payload-" + std::to_string(lid));
                lids.push_back(lid);
                return true;
              }).ok());
  EXPECT_FALSE(lids.empty());
  EXPECT_TRUE(std::is_sorted(lids.begin(), lids.end()));
  for (uint64_t lid : lids) {
    EXPECT_LT(lid, 40u);
    EXPECT_FALSE(store.Contains(lid));  // really gone from the store
  }
  auto count = ArchiveReader::Count(archive);
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(*count, lids.size());
}

TEST_F(LogStoreTest, ArchiveScanStopsEarlyOnFalse) {
  LogStore store(Options(SyncMode::kBuffered, 128));
  ASSERT_TRUE(store.Open().ok());
  for (uint64_t lid = 0; lid < 40; ++lid) {
    ASSERT_TRUE(store.Append(lid, "x").ok());
  }
  std::string archive = (dir_ / "cold.archive").string();
  ASSERT_TRUE(store.TruncateBelow(30, archive).ok());
  int seen = 0;
  ASSERT_TRUE(ArchiveReader::Scan(archive, [&](uint64_t, std::string_view) {
                return ++seen < 3;
              }).ok());
  EXPECT_EQ(seen, 3);
}

TEST_F(LogStoreTest, ArchiveSkipsTombstonedRecords) {
  LogStore store(Options(SyncMode::kBuffered, 16384));
  ASSERT_TRUE(store.Open().ok());
  for (uint64_t lid = 0; lid < 10; ++lid) {
    ASSERT_TRUE(store.Append(lid, "v").ok());
  }
  ASSERT_TRUE(store.Remove(4).ok());
  // Force everything (single segment is active) into a second segment so
  // GC can archive the first: rotate by exceeding segment size.
  // Simpler: archive via a tiny-segment store instead.
  std::string archive = (dir_ / "cold2.archive").string();
  // Re-open with tiny segments to force the data into GC-able segments.
  // (This test uses a fresh store directory.)
  fs::path dir2 = dir_ / "ts";
  LogStoreOptions o;
  o.dir = dir2.string();
  o.segment_bytes = 64;
  LogStore store2(o);
  ASSERT_TRUE(store2.Open().ok());
  for (uint64_t lid = 0; lid < 10; ++lid) {
    ASSERT_TRUE(store2.Append(lid, "value").ok());
  }
  ASSERT_TRUE(store2.Remove(2).ok());
  // Roll the log past the tombstone so its segment seals and gets
  // archived together with the data frame it kills.
  for (uint64_t lid = 10; lid < 20; ++lid) {
    ASSERT_TRUE(store2.Append(lid, "value").ok());
  }
  ASSERT_TRUE(store2.TruncateBelow(100, archive).ok());
  std::set<uint64_t> live;
  ASSERT_TRUE(ArchiveReader::Scan(archive, [&](uint64_t lid,
                                               std::string_view) {
                live.insert(lid);
                return true;
              }).ok());
  EXPECT_EQ(live.count(2), 0u);  // tombstoned record not resurrected
  EXPECT_GT(live.size(), 0u);
}

TEST_F(LogStoreTest, ArchiveDetectsCorruption) {
  LogStore store(Options(SyncMode::kBuffered, 128));
  ASSERT_TRUE(store.Open().ok());
  for (uint64_t lid = 0; lid < 40; ++lid) {
    ASSERT_TRUE(store.Append(lid, std::string(40, 'c')).ok());
  }
  std::string archive = (dir_ / "cold.archive").string();
  ASSERT_TRUE(store.TruncateBelow(30, archive).ok());
  {
    std::fstream f(archive, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(10);
    f.put('\x7f');
  }
  EXPECT_TRUE(ArchiveReader::Count(archive).status().IsCorruption());
}

TEST_F(LogStoreTest, RewriteOfTombstonedLidSurvivesGcOfEarlierSegment) {
  // 40-byte payloads make 57-byte frames: three data frames per 128-byte
  // segment, so lids 0-2, 3-5 and 6-8 each fill one.
  LogStore store(Options(SyncMode::kBuffered, 128));
  ASSERT_TRUE(store.Open().ok());
  for (uint64_t lid = 0; lid < 10; ++lid) {
    ASSERT_TRUE(store.Append(lid, std::string(40, 'o')).ok());
  }
  // Remove lid 2 and write it again: the rewrite lands beside lid 9, in a
  // later segment than the dead frame it replaces.
  ASSERT_TRUE(store.Remove(2).ok());
  ASSERT_TRUE(store.Append(2, std::string(40, 'n')).ok());
  for (uint64_t lid = 10; lid < 16; ++lid) {
    ASSERT_TRUE(store.Append(lid, std::string(40, 'o')).ok());
  }
  ASSERT_EQ(store.Locate(2)->segment_id, store.Locate(9)->segment_id);
  // GC the segments holding lids 0-8 — among them the dead frame of lid 2.
  ASSERT_TRUE(store.TruncateBelow(9).ok());
  const std::vector<uint64_t> survivors = {2, 9, 10, 11, 12, 13, 14, 15};
  EXPECT_EQ(store.ListLids(), survivors);
  EXPECT_EQ(*store.Get(2), std::string(40, 'n'));
  ASSERT_TRUE(store.Close().ok());
  ASSERT_TRUE(store.Open().ok());
  EXPECT_EQ(store.ListLids(), survivors);
  EXPECT_EQ(store.count(), survivors.size());
  EXPECT_EQ(*store.Get(2), std::string(40, 'n'));
  EXPECT_FALSE(store.Contains(0));
}

metrics::Gauge* IndexBytesGauge() {
  return metrics::Registry::Default().GetGauge(
      "chariots.storage.log_store.index_bytes");
}

// The dense index's structural claim: in-order appends cost at most 24 B
// of index per record (16 B entries, under 25% growth slack), and the gauge
// tracks the store's figure exactly, back to zero on close.
TEST_F(LogStoreTest, InOrderIndexCostsAtMost24BytesPerRecord) {
  constexpr uint64_t kRecords = 100'000;
  const int64_t gauge_before = IndexBytesGauge()->Value();
  LogStore store(Options());
  ASSERT_TRUE(store.Open().ok());
  std::vector<AppendEntry> batch;
  for (uint64_t lid = 0; lid < kRecords; lid += 64) {
    batch.clear();
    for (uint64_t l = lid; l < std::min(lid + 64, kRecords); ++l) {
      batch.push_back({l, "r"});
    }
    ASSERT_TRUE(store.AppendBatch(batch).ok());
  }
  ASSERT_EQ(store.count(), kRecords);
  EXPECT_LE(store.IndexBytes(), 24 * kRecords);
  EXPECT_GE(store.IndexBytes(), 16 * kRecords);
  EXPECT_EQ(IndexBytesGauge()->Value() - gauge_before,
            static_cast<int64_t>(store.IndexBytes()));
  ASSERT_TRUE(store.Close().ok());
  EXPECT_EQ(store.IndexBytes(), 0u);
  EXPECT_EQ(IndexBytesGauge()->Value(), gauge_before);
}

// Maintainer 1 of four owns every fourth run of 1000 LIds; its store sees
// each run in order, so striping does not dilute the index.
TEST_F(LogStoreTest, StripedMaintainerIndexCostsAtMost24BytesPerRecord) {
  constexpr uint64_t kRecords = 25'000;
  const int64_t gauge_before = IndexBytesGauge()->Value();
  flstore::MaintainerOptions o;
  o.index = 1;
  o.journal = flstore::EpochJournal(4, 1000);
  o.store = Options();
  flstore::LogMaintainer m(o);
  ASSERT_TRUE(m.Open().ok());
  std::vector<flstore::LogRecord> batch(100);
  for (uint64_t i = 0; i < kRecords; i += batch.size()) {
    ASSERT_TRUE(m.AppendBatch(batch).ok());
  }
  ASSERT_EQ(m.count(), kRecords);
  EXPECT_EQ(m.StoredLids().back(), (kRecords / 1000 - 1) * 4000 + 1999);
  const int64_t index_bytes = IndexBytesGauge()->Value() - gauge_before;
  EXPECT_GE(index_bytes, static_cast<int64_t>(16 * kRecords));
  EXPECT_LE(index_bytes, static_cast<int64_t>(24 * kRecords));
}

TEST_F(LogStoreTest, TruncateBelowMemoryOnly) {
  LogStoreOptions o;
  o.mode = SyncMode::kMemoryOnly;
  LogStore store(o);
  ASSERT_TRUE(store.Open().ok());
  for (uint64_t lid = 0; lid < 10; ++lid) {
    ASSERT_TRUE(store.Append(lid, "x").ok());
  }
  ASSERT_TRUE(store.TruncateBelow(5).ok());
  EXPECT_EQ(store.count(), 5u);
  EXPECT_FALSE(store.Contains(4));
  EXPECT_TRUE(store.Contains(5));
}

TEST_F(LogStoreTest, ListLidsSorted) {
  LogStore store(Options());
  ASSERT_TRUE(store.Open().ok());
  ASSERT_TRUE(store.Append(9, "a").ok());
  ASSERT_TRUE(store.Append(3, "b").ok());
  ASSERT_TRUE(store.Append(7, "c").ok());
  EXPECT_EQ(store.ListLids(), (std::vector<uint64_t>{3, 7, 9}));
}

TEST_F(LogStoreTest, LargePayloadRoundTrip) {
  LogStore store(Options());
  ASSERT_TRUE(store.Open().ok());
  std::string big(1 << 20, 'B');
  ASSERT_TRUE(store.Append(0, big).ok());
  auto r = store.Get(0);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, big);
}

// -------------------------------------------------- disk fault injection

// No in-process crash model drops directory entries, so the helper that
// makes them durable is checked on its own.
TEST_F(LogStoreTest, SyncDirSyncsADirectoryAndRejectsAMissingPath) {
  ASSERT_TRUE(CreateDirIfMissing(dir_.string()).ok());
  EXPECT_TRUE(SyncDir(dir_.string()).ok());
  EXPECT_FALSE(SyncDir((dir_ / "missing").string()).ok());
}

TEST_F(LogStoreTest, TornWriteKeepsPrefixAndLatchesCrashed) {
  fs::create_directories(dir_);
  DiskFaultSchedule faults;
  faults.TornWriteNth("data", 2, 3);
  auto file =
      FaultInjectingFile::OpenAppendable((dir_ / "data.bin").string(), &faults);
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE(file->Append("aaaa").ok());
  Status torn = file->Append("bbbb");
  EXPECT_EQ(torn.code(), StatusCode::kIOError);
  EXPECT_EQ(file->size(), 7u);  // 4 intact + 3 of the torn write
  EXPECT_TRUE(faults.crashed());
  EXPECT_EQ(faults.faults_injected(), 1u);
  // The disk is gone, not healed: everything after the fault fails too.
  EXPECT_FALSE(file->Append("cc").ok());
  EXPECT_FALSE(file->Sync().ok());
}

TEST_F(LogStoreTest, FailedWritePersistsNothing) {
  fs::create_directories(dir_);
  DiskFaultSchedule faults;
  faults.FailWriteNth("data", 1);
  auto file =
      FaultInjectingFile::OpenAppendable((dir_ / "data.bin").string(), &faults);
  ASSERT_TRUE(file.ok());
  EXPECT_EQ(file->Append("aaaa").code(), StatusCode::kIOError);
  EXPECT_EQ(file->size(), 0u);
  EXPECT_TRUE(faults.crashed());
}

TEST_F(LogStoreTest, DroppedSyncLosesUnsyncedBytesAtPowerLoss) {
  fs::create_directories(dir_);
  DiskFaultSchedule faults;
  faults.DropSyncNth("data", 1);
  std::string path = (dir_ / "data.bin").string();
  {
    auto file = FaultInjectingFile::OpenAppendable(path, &faults);
    ASSERT_TRUE(file.ok());
    ASSERT_TRUE(file->Append("aaaa").ok());
    ASSERT_TRUE(file->Sync().ok());  // the lying disk says yes
    ASSERT_TRUE(file->Append("bbbb").ok());
    file->Close();
  }
  // A dropped sync is not a crash by itself...
  EXPECT_FALSE(faults.crashed());
  // ...but at power loss everything since the last *real* sync evaporates.
  ASSERT_TRUE(faults.SimulateCrash().ok());
  EXPECT_EQ(fs::file_size(path), 0u);
}

TEST_F(LogStoreTest, RealSyncMakesBytesSurvivePowerLoss) {
  fs::create_directories(dir_);
  DiskFaultSchedule faults;
  std::string path = (dir_ / "data.bin").string();
  {
    auto file = FaultInjectingFile::OpenAppendable(path, &faults);
    ASSERT_TRUE(file.ok());
    ASSERT_TRUE(file->Append("aaaa").ok());
    ASSERT_TRUE(file->Sync().ok());
    ASSERT_TRUE(file->Append("bbbb").ok());  // never synced
    file->Close();
  }
  ASSERT_TRUE(faults.SimulateCrash().ok());
  EXPECT_EQ(fs::file_size(path), 4u);
}

TEST_F(LogStoreTest, FailedSyncFailsAndLatches) {
  fs::create_directories(dir_);
  DiskFaultSchedule faults;
  faults.FailSyncNth("data", 1);
  auto file =
      FaultInjectingFile::OpenAppendable((dir_ / "data.bin").string(), &faults);
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE(file->Append("aaaa").ok());
  EXPECT_EQ(file->Sync().code(), StatusCode::kIOError);
  EXPECT_TRUE(faults.crashed());
  EXPECT_FALSE(file->Append("bb").ok());
}

TEST_F(LogStoreTest, FailedFsyncDoesNotShiftLaterRecords) {
  // The write of lid 1 lands in the O_APPEND segment but its fdatasync
  // fails. The store must take those bytes back off the file, or lid 2's
  // index entry points one failed batch short — at lid 1's payload.
  ScriptedIoEngine engine;
  LogStoreOptions o = Options();
  o.mode = SyncMode::kFsyncEach;
  o.io_engine = &engine;
  {
    LogStore store(o);
    ASSERT_TRUE(store.Open().ok());
    ASSERT_TRUE(store.Append(0, "rec-0").ok());
    engine.FailNextSync();
    EXPECT_EQ(store.Append(1, "rec-1").code(), StatusCode::kIOError);
    ASSERT_TRUE(store.Append(2, "rec-2").ok());
    EXPECT_EQ(*store.Get(2), "rec-2");
    EXPECT_TRUE(store.Get(1).status().IsNotFound());
  }
  LogStore store(o);
  ASSERT_TRUE(store.Open().ok());
  EXPECT_EQ(store.ListLids(), (std::vector<uint64_t>{0, 2}));
  EXPECT_EQ(*store.Get(2), "rec-2");
  EXPECT_TRUE(store.Get(1).status().IsNotFound());
}

// Runs `read` on its own thread and reports whether it returned within a
// bounded wait. The future is returned so the caller collects it after it
// has released whatever the read might be waiting on.
template <typename Fn>
bool ServedPromptly(Fn read, std::future<std::invoke_result_t<Fn>>* out) {
  *out = std::async(std::launch::async, std::move(read));
  return out->wait_for(std::chrono::seconds(5)) == std::future_status::ready;
}

TEST_F(LogStoreTest, ReadersDoNotWaitForAnInFlightFsync) {
  // An append is held inside its fdatasync. Readers of earlier records —
  // through the store and through a maintainer, pre- or post-assigned —
  // must be served meanwhile, and the in-flight record must stay invisible
  // until the sync returns.
  ScriptedIoEngine engine;
  LogStoreOptions o = Options();
  o.mode = SyncMode::kFsyncEach;
  o.io_engine = &engine;
  LogStore store(o);
  ASSERT_TRUE(store.Open().ok());
  ASSERT_TRUE(store.Append(0, "rec-0").ok());

  engine.Hold();
  std::thread writer([&] { EXPECT_TRUE(store.Append(1, "rec-1").ok()); });
  engine.WaitUntilHeld();
  std::future<Result<std::string>> earlier, in_flight;
  bool earlier_served = ServedPromptly([&] { return store.Get(0); }, &earlier);
  bool in_flight_served =
      ServedPromptly([&] { return store.Get(1); }, &in_flight);
  bool in_flight_hidden =
      in_flight_served && in_flight.get().status().IsNotFound();
  engine.Release();
  writer.join();
  EXPECT_TRUE(earlier_served);
  EXPECT_EQ(*earlier.get(), "rec-0");
  EXPECT_TRUE(in_flight_hidden);
  EXPECT_EQ(*store.Get(1), "rec-1");

  flstore::MaintainerOptions mo;
  mo.journal = flstore::EpochJournal(1, 100);
  mo.store = Options();
  mo.store.dir = (dir_ / "maintainer").string();
  mo.store.mode = SyncMode::kFsyncEach;
  mo.store.io_engine = &engine;
  flstore::LogMaintainer maintainer(mo);
  ASSERT_TRUE(maintainer.Open().ok());
  flstore::LogRecord record;
  record.body = "first";
  ASSERT_TRUE(maintainer.AppendAt(0, record).ok());

  engine.Hold();
  record.body = "second";
  std::thread landing(
      [&] { EXPECT_TRUE(maintainer.AppendAt(1, record).ok()); });
  engine.WaitUntilHeld();
  std::future<Result<flstore::LogRecord>> first, second;
  bool first_served = ServedPromptly([&] { return maintainer.Read(0); },
                                     &first);
  bool second_served = ServedPromptly([&] { return maintainer.Read(1); },
                                      &second);
  bool second_hidden = second_served && second.get().status().IsNotFound();
  engine.Release();
  landing.join();
  EXPECT_TRUE(first_served);
  EXPECT_EQ(first.get()->body, "first");
  EXPECT_TRUE(second_hidden);
  EXPECT_EQ(maintainer.Read(1)->body, "second");

  // A post-assigned append lands the same way: it plans lid 2 and holds no
  // reader lock across its fdatasync.
  engine.Hold();
  record.body = "third";
  std::thread appending([&] {
    Result<flstore::LId> lid = maintainer.Append(record);
    EXPECT_TRUE(lid.ok());
    EXPECT_EQ(*lid, 2u);
  });
  engine.WaitUntilHeld();
  std::future<Result<flstore::LogRecord>> earlier_record, third;
  std::future<bool> earlier_invalid;
  bool earlier_record_served = ServedPromptly(
      [&] { return maintainer.Read(1); }, &earlier_record);
  bool earlier_invalid_served = ServedPromptly(
      [&] { return maintainer.IsInvalid(1); }, &earlier_invalid);
  bool third_served =
      ServedPromptly([&] { return maintainer.Read(2); }, &third);
  bool third_hidden = third_served && third.get().status().IsNotFound();
  engine.Release();
  appending.join();
  EXPECT_TRUE(earlier_record_served);
  EXPECT_EQ(earlier_record.get()->body, "second");
  EXPECT_TRUE(earlier_invalid_served);
  EXPECT_FALSE(earlier_invalid.get());
  EXPECT_TRUE(third_hidden);
  EXPECT_EQ(maintainer.Read(2)->body, "third");
}

TEST_F(LogStoreTest, FaultSpecParserAcceptsScriptsAndRejectsGarbage) {
  DiskFaultSchedule faults(7);
  EXPECT_TRUE(
      faults
          .AddFromSpec("torn_write@seg:3:10,fail_sync@dedup:2,drop_sync@seg:?")
          .ok());
  // `?` draws nth from the seeded PRNG; same seed, same schedule.
  DiskFaultSchedule again(7);
  EXPECT_TRUE(again.AddFromSpec("torn_write@:?:?").ok());
  EXPECT_FALSE(faults.AddFromSpec("explode@seg:1").ok());
  EXPECT_FALSE(faults.AddFromSpec("torn_write-no-at").ok());
  EXPECT_TRUE(faults.AddFromSpec("").ok());
}

/// Base seed offset by CHARIOTS_FAULT_SEED (tools/run_crash_matrix.sh
/// sweeps it); printed so a failing draw replays exactly.
uint64_t ScenarioSeed(uint64_t base) {
  uint64_t offset = 0;
  if (const char* env = std::getenv("CHARIOTS_FAULT_SEED")) {
    offset = std::strtoull(env, nullptr, 10);
  }
  uint64_t seed = base + offset;
  std::cerr << "[ scenario seed " << seed << " ]\n";
  return seed;
}

TEST_F(LogStoreTest, SeededCrashScheduleRecoversConsistently) {
  // One seed draws the fault kind, its firing point, and the workload
  // shape; power loss follows. Recovery must hold exactly the acked
  // records — except under drop_sync (the lying disk), where an acked
  // record may legitimately be lost but never corrupted or invented.
  uint64_t seed = ScenarioSeed(4200);
  Random rng(seed);
  DiskFaultSchedule faults(seed);
  static const char* kSpecs[] = {"torn_write@seg:?:?", "fail_write@seg:?",
                                 "fail_sync@seg:?", "drop_sync@seg:?"};
  size_t kind = rng.Uniform(4);
  ASSERT_TRUE(faults.AddFromSpec(kSpecs[kind]).ok());
  LogStoreOptions o = Options(SyncMode::kFsyncEach, 512);  // forces rotation
  o.disk_faults = &faults;
  std::vector<uint64_t> acked;
  std::vector<std::string> payloads;
  {
    LogStore store(o);
    ASSERT_TRUE(store.Open().ok());
    for (uint64_t lid = 0; lid < 24; ++lid) {
      payloads.push_back("p" + std::to_string(lid) +
                         std::string(1 + rng.Uniform(64), 'x'));
      if (store.Append(lid, payloads.back()).ok()) acked.push_back(lid);
    }
  }
  ASSERT_TRUE(faults.SimulateCrash().ok());

  LogStore store(Options(SyncMode::kBuffered, 512));
  ASSERT_TRUE(store.Open().ok());
  std::vector<uint64_t> recovered = store.ListLids();
  if (kind == 3) {
    // drop_sync: recovered is a subset of acked (the lie can lose an acked
    // tail of one segment), but nothing unacked is resurrected.
    for (uint64_t lid : recovered) {
      EXPECT_TRUE(std::find(acked.begin(), acked.end(), lid) != acked.end())
          << "unacked lid " << lid << " resurrected";
    }
  } else {
    EXPECT_EQ(recovered, acked);
  }
  for (uint64_t lid : recovered) {
    EXPECT_EQ(*store.Get(lid), payloads[lid]) << "payload diverged at " << lid;
  }
}

TEST_F(LogStoreTest, StoreWithFaultScheduleRecoversAckedRecordsOnly) {
  // Group commit with per-batch fsync; the disk dies at a seeded write.
  // After power loss, recovery must hold exactly the acked records.
  DiskFaultSchedule faults;
  faults.TornWriteNth("seg-", 4, 17);
  LogStoreOptions o = Options(SyncMode::kFsyncEach);
  o.disk_faults = &faults;
  std::vector<uint64_t> acked;
  {
    LogStore store(o);
    ASSERT_TRUE(store.Open().ok());
    for (uint64_t lid = 0; lid < 10; ++lid) {
      if (store.Append(lid, "payload-" + std::to_string(lid)).ok()) {
        acked.push_back(lid);
      }
    }
    // The fault latched the disk: at least one append was lost.
    ASSERT_LT(acked.size(), 10u);
  }
  ASSERT_TRUE(faults.SimulateCrash().ok());

  LogStore store(Options(SyncMode::kBuffered));
  ASSERT_TRUE(store.Open().ok());
  EXPECT_EQ(store.ListLids(), acked);
  for (uint64_t lid : acked) {
    EXPECT_EQ(*store.Get(lid), "payload-" + std::to_string(lid));
  }
}

// ------------------------------------------------------------- io engine

// The store's write path through SyncIoEngine(), with and without the
// disk-fault layer between them.
class IoEngineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("chariots_engine_test_" +
            std::string(::testing::UnitTest::GetInstance()
                            ->current_test_info()
                            ->name()));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  IoEngine* Engine() { return SyncIoEngine(); }

  LogStoreOptions Options() {
    LogStoreOptions o;
    o.dir = dir_.string();
    o.io_engine = Engine();
    return o;
  }

  fs::path dir_;
};

TEST_F(IoEngineTest, AppendvWritesPartsInOrderAndDurably) {
  auto file = File::OpenAppendable((dir_ / "parts.bin").string());
  ASSERT_TRUE(file.ok());
  std::string a(5000, 'a'), b(7000, 'b'), c(1, 'c');
  std::vector<std::string_view> parts{a, "", b, c};  // empty part is legal
  ASSERT_TRUE(file->Appendv(parts, /*sync=*/true, Engine()).ok());
  // A small batch after a large one lands right behind it.
  std::vector<std::string_view> small{"x", "yz"};
  ASSERT_TRUE(file->Appendv(small, /*sync=*/false, Engine()).ok());
  ASSERT_TRUE(file->Appendv({}, /*sync=*/true, Engine()).ok());  // sync only
  EXPECT_EQ(file->size(), a.size() + b.size() + c.size() + 3);
  std::string got;
  ASSERT_TRUE(file->ReadAt(0, file->size(), &got).ok());
  EXPECT_EQ(got, a + b + c + "xyz");
}

TEST_F(IoEngineTest, VectoredBatchBytesIdenticalToLegacyFrames) {
  // The vectored append (header-only arena + borrowed payload views) must
  // produce exactly the bytes AppendFrameTo lays out frame by frame.
  std::vector<AppendEntry> entries;
  std::vector<std::string> payloads;
  for (uint64_t lid = 0; lid < 16; ++lid) {
    payloads.push_back(std::string(17 * lid, static_cast<char>('a' + lid)));
  }
  payloads[3].clear();  // empty payload frame
  for (uint64_t lid = 0; lid < 16; ++lid) {
    entries.push_back({lid, payloads[lid]});
  }
  std::string expected;
  for (const AppendEntry& e : entries) {
    format::AppendFrameTo(&expected, format::kFrameData, e.lid, e.payload);
  }

  LogStoreOptions o = Options();
  o.mode = SyncMode::kFsyncEach;
  LogStore store(o);
  ASSERT_TRUE(store.Open().ok());
  ASSERT_TRUE(store.AppendBatch(entries).ok());
  ASSERT_TRUE(store.Close().ok());

  std::string on_disk;
  ASSERT_TRUE(
      ReadFileToString((dir_ / "seg-00000000.log").string(), &on_disk).ok());
  EXPECT_EQ(on_disk, expected);
}

TEST_F(IoEngineTest, TornWriteComposesWithEngine) {
  // A torn write must persist exactly the scripted prefix and fail the
  // append (the fault layer decomposes the engine's write+fsync so the
  // tear lands before any sync).
  DiskFaultSchedule faults;
  faults.TornWriteNth("seg-", 1, 21);  // header + 4 payload bytes
  LogStoreOptions o = Options();
  o.mode = SyncMode::kFsyncEach;
  o.disk_faults = &faults;
  {
    LogStore store(o);
    ASSERT_TRUE(store.Open().ok());
    EXPECT_FALSE(store.Append(1, "payload-that-will-tear").ok());
  }
  ASSERT_TRUE(faults.crashed());
  EXPECT_EQ(fs::file_size(dir_ / "seg-00000000.log"), 21u);

  // Recovery truncates the torn frame; the store reopens empty and usable.
  LogStore store(Options());
  ASSERT_TRUE(store.Open().ok());
  EXPECT_EQ(store.count(), 0u);
  ASSERT_TRUE(store.Append(1, "rewritten").ok());
  EXPECT_EQ(*store.Get(1), "rewritten");
}

TEST_F(IoEngineTest, FailedFsyncIsNotAckedAndNotRecovered) {
  // The write lands in the page cache but the fsync fails: the
  // append must report an error, and after power loss the record is gone.
  DiskFaultSchedule faults;
  faults.FailSyncNth("seg-", 2);
  LogStoreOptions o = Options();
  o.mode = SyncMode::kFsyncEach;
  o.disk_faults = &faults;
  std::vector<uint64_t> acked;
  {
    LogStore store(o);
    ASSERT_TRUE(store.Open().ok());
    for (uint64_t lid = 0; lid < 4; ++lid) {
      if (store.Append(lid, "rec-" + std::to_string(lid)).ok()) {
        acked.push_back(lid);
      }
    }
  }
  ASSERT_EQ(acked, (std::vector<uint64_t>{0}));
  ASSERT_TRUE(faults.SimulateCrash().ok());

  LogStore store(Options());
  ASSERT_TRUE(store.Open().ok());
  EXPECT_EQ(store.ListLids(), acked);
}

TEST_F(IoEngineTest, DroppedSyncComposesWithEngine) {
  // A lying disk reports the sync done; the loss only shows at power loss.
  DiskFaultSchedule faults;
  faults.DropSyncNth("seg-", 2);
  LogStoreOptions o = Options();
  o.mode = SyncMode::kFsyncEach;
  o.disk_faults = &faults;
  {
    LogStore store(o);
    ASSERT_TRUE(store.Open().ok());
    ASSERT_TRUE(store.Append(1, "durable").ok());
    ASSERT_TRUE(store.Append(2, "volatile").ok());  // sync silently dropped
  }
  ASSERT_TRUE(faults.SimulateCrash().ok());

  LogStore store(Options());
  ASSERT_TRUE(store.Open().ok());
  EXPECT_EQ(store.ListLids(), (std::vector<uint64_t>{1}));
}

// Model check of the store's index: a seeded random sequence of in-order and
// out-of-order batches, rejected batches, removals, GC with and without an
// archive and close/reopen runs against a std::map, with small segments so
// it rotates often. After every step each lookup must agree with the map.
TEST_F(IoEngineTest, StoreIndexAgreesWithModelUnderRandomOperations) {
  constexpr uint64_t kSeed = 1917;
  Random rng(kSeed);
  LogStoreOptions o = Options();
  o.segment_bytes = 512;
  LogStore store(o);
  ASSERT_TRUE(store.Open().ok());
  std::map<uint64_t, std::string> model;
  uint64_t next = 0;  // one past the highest lid ever appended
  uint64_t version = 0;
  uint64_t gc_dropped = 0;
  auto payload = [&](uint64_t lid) {  // unique per write, varied length
    std::string p = std::to_string(lid);
    p += '.';
    p += std::to_string(++version);
    p.append(rng.Uniform(24), 'x');
    return p;
  };
  auto append = [&](const std::vector<uint64_t>& lids) {
    std::vector<std::string> payloads;
    for (uint64_t lid : lids) payloads.push_back(payload(lid));
    std::vector<AppendEntry> entries;
    for (size_t i = 0; i < lids.size(); ++i) {
      entries.push_back({lids[i], payloads[i]});
    }
    ASSERT_TRUE(store.AppendBatch(entries).ok());
    for (size_t i = 0; i < lids.size(); ++i) {
      model[lids[i]] = payloads[i];
      next = std::max(next, lids[i] + 1);
    }
  };
  auto check = [&]() {
    ASSERT_EQ(store.count(), model.size());
    std::vector<uint64_t> lids;
    for (const auto& [lid, _] : model) lids.push_back(lid);
    ASSERT_EQ(store.ListLids(), lids);
    for (uint64_t lid = 0; lid <= next; ++lid) {
      auto it = model.find(lid);
      const bool live = it != model.end();
      ASSERT_EQ(store.Contains(lid), live) << lid;
      Result<RecordLocation> loc = store.Locate(lid);
      Result<std::string> got = store.Get(lid);
      ASSERT_EQ(loc.ok(), live) << lid;
      ASSERT_EQ(got.ok(), live) << lid;
      if (live) {
        ASSERT_EQ(*got, it->second) << lid;
        ASSERT_EQ(loc->length, it->second.size()) << lid;
      } else {
        ASSERT_TRUE(got.status().IsNotFound()) << lid;
      }
    }
  };

  for (int step = 0; step < 300; ++step) {
    SCOPED_TRACE("seed " + std::to_string(kSeed) + " step " +
                 std::to_string(step));
    switch (rng.Uniform(8)) {
      case 0:
      case 1:
      case 2: {  // in order, leaving an occasional hole
        std::vector<uint64_t> lids;
        uint64_t lid = next;
        for (uint64_t n = 1 + rng.Uniform(8); n > 0; --n) {
          lids.push_back(lid);
          lid += 1 + (rng.OneIn(0.2) ? rng.Uniform(3) : 0);
        }
        append(lids);
        break;
      }
      case 3: {  // out of order: hole fills and rewrites, maybe one new lid
        std::vector<uint64_t> lids;
        for (uint64_t lid = 0; lid < next; ++lid) {
          if (model.count(lid) == 0 && rng.OneIn(0.3)) lids.push_back(lid);
        }
        if (rng.OneIn(0.5)) lids.push_back(next + rng.Uniform(3));
        for (size_t i = lids.size(); i > 1; --i) {
          std::swap(lids[i - 1], lids[rng.Uniform(i)]);
        }
        if (lids.size() > 6) lids.resize(6);
        if (!lids.empty()) append(lids);
        break;
      }
      case 4: {  // remove a live lid, and miss an absent one
        if (!model.empty()) {
          auto it = std::next(model.begin(), rng.Uniform(model.size()));
          ASSERT_TRUE(store.Remove(it->first).ok());
          model.erase(it);
        }
        ASSERT_TRUE(store.Remove(next + 5).IsNotFound());
        break;
      }
      case 5: {  // GC: every lid at or above the horizon survives
        const uint64_t horizon = rng.Uniform(next + 1);
        std::string archive;
        if (rng.OneIn(0.5)) archive = (dir_ / "cold.archive").string();
        ASSERT_TRUE(store.TruncateBelow(horizon, archive).ok());
        for (auto it = model.begin(); it != model.end();) {
          if (it->first >= horizon || store.Contains(it->first)) {
            ++it;
            continue;
          }
          ++gc_dropped;
          it = model.erase(it);
        }
        break;
      }
      case 6: {  // crash-free restart: everything comes back from disk
        ASSERT_TRUE(store.Close().ok());
        ASSERT_TRUE(store.Open().ok());
        break;
      }
      case 7: {  // a batch touching a live lid is rejected whole
        if (model.empty()) break;
        std::vector<AppendEntry> entries = {
            {next, "new"},
            {std::next(model.begin(), rng.Uniform(model.size()))->first,
             "dup"}};
        ASSERT_EQ(store.AppendBatch(entries).code(),
                  StatusCode::kAlreadyExists);
        break;
      }
    }
    check();
    if (::testing::Test::HasFatalFailure()) return;
  }
  // The walk really exercised GC.
  EXPECT_GT(gc_dropped, 0u);
}

}  // namespace
}  // namespace chariots::storage
