// Tests for the FLStore log maintainer: post-assignment, gap handling /
// Head-of-the-Log gossip, ordered appends, recovery, and elasticity.

#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <future>
#include <memory>
#include <thread>
#include <vector>

#include "common/random.h"
#include "flstore/maintainer.h"
#include "scripted_io_engine.h"

namespace chariots::flstore {
namespace {

namespace fs = std::filesystem;

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

TEST(MaintainerTest, PostAssignmentWalksOwnedRanges) {
  LogMaintainer m(MemOptions(1, 3, 4));  // owns 4..7, 16..19, 28..31, ...
  ASSERT_TRUE(m.Open().ok());
  std::vector<LId> got;
  for (int i = 0; i < 6; ++i) {
    auto lid = m.Append(Rec("r" + std::to_string(i)));
    ASSERT_TRUE(lid.ok());
    got.push_back(*lid);
  }
  EXPECT_EQ(got, (std::vector<LId>{4, 5, 6, 7, 16, 17}));
}

TEST(MaintainerTest, AppendBatchEqualsSingles) {
  // Twin maintainers, identical striping (owner 1 of 2, stripe batch 3):
  // the batch path must assign the exact LIds the single path assigns, even
  // when the batch spans several stripe-batch runs.
  LogMaintainer batched(MemOptions(1, 2, 3));
  LogMaintainer singly(MemOptions(1, 2, 3));
  ASSERT_TRUE(batched.Open().ok());
  ASSERT_TRUE(singly.Open().ok());

  std::vector<LogRecord> records;
  for (int i = 0; i < 10; ++i) records.push_back(Rec("r" + std::to_string(i)));

  auto batch_lids = batched.AppendBatch(records);
  ASSERT_TRUE(batch_lids.ok());
  ASSERT_EQ(batch_lids->size(), 10u);

  std::vector<LId> single_lids;
  for (const LogRecord& r : records) {
    auto lid = singly.Append(r);
    ASSERT_TRUE(lid.ok());
    single_lids.push_back(*lid);
  }
  EXPECT_EQ(*batch_lids, single_lids);
  EXPECT_EQ(batched.FirstUnfilledGlobal(), singly.FirstUnfilledGlobal());
  EXPECT_EQ(batched.StoredLids(), singly.StoredLids());
  for (size_t i = 0; i < records.size(); ++i) {
    auto read = batched.Read((*batch_lids)[i]);
    ASSERT_TRUE(read.ok());
    EXPECT_EQ(read->body, records[i].body);
  }
}

TEST(MaintainerTest, AppendBatchNotifiesObserverInOrder) {
  LogMaintainer m(MemOptions(0, 3, 4));
  ASSERT_TRUE(m.Open().ok());
  std::vector<std::pair<std::string, LId>> seen;
  m.SetAppendObserver([&](const LogRecord& r, LId lid) {
    seen.emplace_back(r.body, lid);
  });
  std::vector<LogRecord> records = {Rec("a"), Rec("b"), Rec("c"), Rec("d"),
                                    Rec("e")};
  auto lids = m.AppendBatch(records);
  ASSERT_TRUE(lids.ok());
  ASSERT_EQ(seen.size(), 5u);
  for (size_t i = 0; i < seen.size(); ++i) {
    EXPECT_EQ(seen[i].first, records[i].body);
    EXPECT_EQ(seen[i].second, (*lids)[i]);
  }
}

TEST(MaintainerTest, AppendBatchDrainsDeferredOrderedAppends) {
  LogMaintainer m(MemOptions(0, 1, 10));
  ASSERT_TRUE(m.Open().ok());
  std::vector<LId> landed;
  m.SetAppendObserver([&](const LogRecord&, LId lid) { landed.push_back(lid); });
  // Deferred: next assignable is 0, which is not > 2.
  auto deferred = m.AppendOrdered(Rec("late"), 2);
  ASSERT_TRUE(deferred.ok());
  EXPECT_EQ(*deferred, kInvalidLId);
  EXPECT_EQ(m.deferred_ordered(), 1u);
  // A batch of three advances the cursor to 3 > 2; the deferred record
  // lands right after the batch, under the batch's landing: invalid, and
  // collected after the batch with the bytes the store holds.
  std::vector<LogRecord> records = {Rec("a"), Rec("b"), Rec("c")};
  std::vector<ReplicatedEntry> collected;
  ASSERT_TRUE(
      m.AppendBatch(records, Landing{.invalid = true, .collect = &collected})
          .ok());
  EXPECT_EQ(m.deferred_ordered(), 0u);
  EXPECT_EQ(landed, (std::vector<LId>{0, 1, 2, 3}));
  EXPECT_EQ(m.Read(3)->body, "late");
  ASSERT_EQ(collected.size(), 4u);
  for (LId lid = 0; lid < 4; ++lid) {
    EXPECT_EQ(collected[lid].lid, lid);
    EXPECT_EQ(collected[lid].record_bytes, EncodeLogRecord(*m.Read(lid)));
    EXPECT_TRUE(m.IsInvalid(lid));
  }
  // A default landing marks nothing, the deferred record it releases
  // included.
  ASSERT_EQ(*m.AppendOrdered(Rec("later"), 5), kInvalidLId);
  records = {Rec("d"), Rec("e")};
  ASSERT_TRUE(m.AppendBatch(records).ok());
  EXPECT_EQ(landed, (std::vector<LId>{0, 1, 2, 3, 4, 5, 6}));
  EXPECT_EQ(m.Read(6)->body, "later");
  EXPECT_EQ(m.InvalidCount(), 4u);
  for (LId lid = 4; lid < 7; ++lid) EXPECT_FALSE(m.IsInvalid(lid));
}

TEST(MaintainerTest, EmptyAppendBatchIsNoop) {
  LogMaintainer m(MemOptions(0, 1, 10));
  ASSERT_TRUE(m.Open().ok());
  auto lids = m.AppendBatch({});
  ASSERT_TRUE(lids.ok());
  EXPECT_TRUE(lids->empty());
  EXPECT_EQ(m.count(), 0u);
}

TEST(MaintainerTest, MaintainerZeroStartsAtZero) {
  LogMaintainer m(MemOptions(0, 3, 2));
  ASSERT_TRUE(m.Open().ok());
  EXPECT_EQ(*m.Append(Rec("a")), 0u);
  EXPECT_EQ(*m.Append(Rec("b")), 1u);
  EXPECT_EQ(*m.Append(Rec("c")), 6u);  // skips 2..5 owned by peers
}

TEST(MaintainerTest, ReadBackAssignedRecords) {
  LogMaintainer m(MemOptions(0, 1, 100));
  ASSERT_TRUE(m.Open().ok());
  LogRecord rec = Rec("hello");
  rec.tags.push_back(Tag{"k", "v"});
  LId lid = *m.Append(rec);
  auto read = m.Read(lid);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read->body, "hello");
  ASSERT_EQ(read->tags.size(), 1u);
  EXPECT_EQ(read->tags[0].key, "k");
  EXPECT_EQ(read->lid, lid);
}

TEST(MaintainerTest, ReadUnownedLidIsOutOfRange) {
  LogMaintainer m(MemOptions(0, 2, 10));
  ASSERT_TRUE(m.Open().ok());
  EXPECT_TRUE(m.Read(15).status().IsOutOfRange());  // maintainer 1's range
}

TEST(MaintainerTest, SingleMaintainerHeadOfLogTracksAppends) {
  LogMaintainer m(MemOptions(0, 1, 10));
  ASSERT_TRUE(m.Open().ok());
  EXPECT_EQ(m.HeadOfLog(), 0u);
  m.Append(Rec("a"));
  m.Append(Rec("b"));
  EXPECT_EQ(m.HeadOfLog(), 2u);  // positions 0,1 filled
  EXPECT_EQ(m.FirstUnfilledGlobal(), 2u);
}

TEST(MaintainerTest, HeadOfLogIsMinOverGossip) {
  // Two maintainers, batch 2. m0 appends 3 records (0,1,4), m1 appends 1 (2).
  LogMaintainer m0(MemOptions(0, 2, 2));
  LogMaintainer m1(MemOptions(1, 2, 2));
  ASSERT_TRUE(m0.Open().ok());
  ASSERT_TRUE(m1.Open().ok());
  m0.Append(Rec("a"));  // lid 0
  m0.Append(Rec("b"));  // lid 1
  m0.Append(Rec("c"));  // lid 4
  m1.Append(Rec("d"));  // lid 2

  // Exchange gossip manually.
  m0.OnGossip(1, m1.FirstUnfilledGlobal());
  m1.OnGossip(0, m0.FirstUnfilledGlobal());

  // m1 filled only lid 2; its first unfilled is 3 -> HL = min(5, 3) = 3.
  EXPECT_EQ(m0.FirstUnfilledGlobal(), 5u);
  EXPECT_EQ(m1.FirstUnfilledGlobal(), 3u);
  EXPECT_EQ(m0.HeadOfLog(), 3u);
  EXPECT_EQ(m1.HeadOfLog(), 3u);

  // Positions below HL are readable gap-free; above is not.
  EXPECT_TRUE(m0.ReadCommitted(0).ok());
  EXPECT_TRUE(m1.ReadCommitted(2).ok());
  EXPECT_TRUE(m0.ReadCommitted(4).status().IsUnavailable());
}

TEST(MaintainerTest, GossipIsMonotone) {
  LogMaintainer m(MemOptions(0, 2, 2));
  ASSERT_TRUE(m.Open().ok());
  m.OnGossip(1, 10);
  m.OnGossip(1, 5);  // stale update must not regress
  m.Append(Rec("a"));
  m.Append(Rec("b"));
  // Self first-unfilled = 4 (slots 0,1 filled; next owned global is 4).
  EXPECT_EQ(m.HeadOfLog(), 4u);
}

TEST(MaintainerTest, AppendAtOutOfOrderFillsContiguously) {
  LogMaintainer m(MemOptions(0, 2, 3));  // owns 0,1,2, 6,7,8, ...
  ASSERT_TRUE(m.Open().ok());
  ASSERT_TRUE(m.AppendAt(2, Rec("c")).ok());  // arrives early
  EXPECT_EQ(m.FirstUnfilledGlobal(), 0u);
  ASSERT_TRUE(m.AppendAt(0, Rec("a")).ok());
  EXPECT_EQ(m.FirstUnfilledGlobal(), 1u);
  ASSERT_TRUE(m.AppendAt(1, Rec("b")).ok());
  EXPECT_EQ(m.FirstUnfilledGlobal(), 6u);  // 0..2 filled; next owned is 6
}

TEST(MaintainerTest, AppendAtRejectsUnownedAndDuplicate) {
  LogMaintainer m(MemOptions(0, 2, 3));
  ASSERT_TRUE(m.Open().ok());
  EXPECT_TRUE(m.AppendAt(3, Rec("x")).IsOutOfRange());  // owned by m1
  ASSERT_TRUE(m.AppendAt(0, Rec("x")).ok());
  EXPECT_EQ(m.AppendAt(0, Rec("y")).code(), StatusCode::kAlreadyExists);
}

TEST(MaintainerTest, AppendAtBatchIsAllOrNothing) {
  LogMaintainer m(MemOptions(0, 2, 3));  // owns 0,1,2, 6,7,8, ...
  ASSERT_TRUE(m.Open().ok());
  std::vector<LogRecord> records = {Rec("a"), Rec("b"), Rec("x")};
  // One LId of another maintainer rejects the whole batch.
  std::vector<LId> lids = {0, 1, 3};
  EXPECT_TRUE(m.AppendAtBatch(lids, records).IsOutOfRange());
  // So does one occupied position, or one repeated within the batch.
  ASSERT_TRUE(m.AppendAt(2, Rec("c")).ok());
  lids = {0, 1, 2};
  EXPECT_EQ(m.AppendAtBatch(lids, records).code(),
            StatusCode::kAlreadyExists);
  lids = {0, 1, 1};
  EXPECT_EQ(m.AppendAtBatch(lids, records).code(),
            StatusCode::kAlreadyExists);
  EXPECT_EQ(m.count(), 1u);
  EXPECT_TRUE(m.Read(0).status().IsNotFound());
  EXPECT_TRUE(m.Read(1).status().IsNotFound());
  EXPECT_EQ(m.FirstUnfilledGlobal(), 0u);
  EXPECT_EQ(m.AppendAtBatch(std::vector<LId>{0}, std::vector<LogRecord>{})
                .code(),
            StatusCode::kInvalidArgument);
}

TEST(MaintainerTest, AppendAtBatchAdvancesFillAndHeadOncePerBatch) {
  LogMaintainer m(MemOptions(0, 1, 10));
  ASSERT_TRUE(m.Open().ok());
  // Out of LId order inside the batch: fill state and HL still land at the
  // end of the batch, and they have already moved there when the first
  // observer call runs — they advance once per batch, not per record.
  std::vector<LId> lids = {2, 0, 1, 3};
  std::vector<LogRecord> records = {Rec("c"), Rec("a"), Rec("b"), Rec("d")};
  std::vector<std::pair<LId, LId>> seen;  // (lid, HL when observed)
  m.SetAppendObserver([&](const LogRecord&, LId lid) {
    seen.emplace_back(lid, m.HeadOfLog());
  });
  ASSERT_TRUE(m.AppendAtBatch(lids, records).ok());
  EXPECT_EQ(seen, (std::vector<std::pair<LId, LId>>{
                      {2, 4}, {0, 4}, {1, 4}, {3, 4}}));
  EXPECT_EQ(m.FirstUnfilledGlobal(), 4u);
  EXPECT_EQ(m.HeadOfLog(), 4u);
  for (size_t i = 0; i < lids.size(); ++i) {
    auto read = m.Read(lids[i]);
    ASSERT_TRUE(read.ok());
    EXPECT_EQ(read->body, records[i].body);
  }
  // Post-assignment continues above the batch.
  auto next = m.Append(Rec("e"));
  ASSERT_TRUE(next.ok());
  EXPECT_EQ(*next, 4u);
}

TEST(MaintainerTest, AppendOrderedDefersUntilBoundPassed) {
  LogMaintainer m(MemOptions(0, 1, 10));
  ASSERT_TRUE(m.Open().ok());
  // Next assignable is 0, bound is 2 -> must defer.
  auto deferred = m.AppendOrdered(Rec("late"), 2);
  ASSERT_TRUE(deferred.ok());
  EXPECT_EQ(*deferred, kInvalidLId);
  EXPECT_EQ(m.deferred_ordered(), 1u);

  m.Append(Rec("a"));  // 0
  m.Append(Rec("b"));  // 1
  m.Append(Rec("c"));  // 2 -> next is 3 > bound, deferred record lands at 3
  EXPECT_EQ(m.deferred_ordered(), 0u);
  auto read = m.Read(3);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read->body, "late");
  EXPECT_EQ(m.count(), 4u);
}

TEST(MaintainerTest, AppendOrderedImmediateWhenBoundPassed) {
  LogMaintainer m(MemOptions(0, 1, 10));
  ASSERT_TRUE(m.Open().ok());
  m.Append(Rec("a"));  // 0
  auto lid = m.AppendOrdered(Rec("now"), 0);
  ASSERT_TRUE(lid.ok());
  EXPECT_EQ(*lid, 1u);
}

TEST(MaintainerTest, ObserverFiresForEveryLanding) {
  LogMaintainer m(MemOptions(0, 1, 10));
  ASSERT_TRUE(m.Open().ok());
  std::vector<LId> seen;
  m.SetAppendObserver([&](const LogRecord&, LId lid) { seen.push_back(lid); });
  m.Append(Rec("a"));
  m.AppendOrdered(Rec("deferred"), 1);  // waits for lid > 1
  m.Append(Rec("b"));                   // lands at 1, releases deferred at 2
  EXPECT_EQ(seen, (std::vector<LId>{0, 1, 2}));
}

TEST(MaintainerTest, PersistentRecoveryRestoresCursorAndFill) {
  fs::path dir = fs::temp_directory_path() / "chariots_maintainer_recovery";
  fs::remove_all(dir);
  MaintainerOptions o;
  o.index = 1;
  o.journal = EpochJournal(2, 3);
  o.store.mode = storage::SyncMode::kBuffered;
  o.store.dir = (dir / "m1").string();
  {
    LogMaintainer m(o);
    ASSERT_TRUE(m.Open().ok());
    EXPECT_EQ(*m.Append(Rec("a")), 3u);
    EXPECT_EQ(*m.Append(Rec("b")), 4u);
    ASSERT_TRUE(m.Sync().ok());
  }
  {
    LogMaintainer m(o);
    ASSERT_TRUE(m.Open().ok());
    EXPECT_EQ(m.count(), 2u);
    // Cursor resumes after the recovered records.
    EXPECT_EQ(*m.Append(Rec("c")), 5u);
    EXPECT_EQ(m.FirstUnfilledGlobal(), 9u);
    EXPECT_EQ(m.Read(3)->body, "a");
  }
  fs::remove_all(dir);
}

TEST(MaintainerTest, FillHolesWaitsForAnInFlightLanding) {
  // Lid 2 is landing, held inside its fdatasync, while a promotion
  // junk-fills the holes 1..3 below lid 4. The fill must wait for the
  // landing rather than junk-fill its position, and readers of landed
  // records must not wait for either.
  fs::path dir = fs::temp_directory_path() / "chariots_maintainer_fill_race";
  fs::remove_all(dir);
  storage::ScriptedIoEngine engine;
  MaintainerOptions o;
  o.journal = EpochJournal(1, 100);
  o.store.dir = dir.string();
  o.store.mode = storage::SyncMode::kFsyncEach;
  o.store.io_engine = &engine;
  {
    LogMaintainer m(o);
    ASSERT_TRUE(m.Open().ok());
    ASSERT_TRUE(m.AppendAt(0, Rec("zero")).ok());
    ASSERT_TRUE(m.AppendAt(4, Rec("four")).ok());

    engine.Hold();
    std::thread landing([&] { EXPECT_TRUE(m.AppendAt(2, Rec("two")).ok()); });
    engine.WaitUntilHeld();
    auto fill = std::async(std::launch::async,
                           [&] { return m.FillHoles(Rec("junk")); });
    auto read = std::async(std::launch::async, [&] { return m.Read(0); });
    const bool read_served =
        read.wait_for(std::chrono::seconds(5)) == std::future_status::ready;
    const bool fill_waited = fill.wait_for(std::chrono::milliseconds(100)) ==
                             std::future_status::timeout;
    engine.Release();
    landing.join();
    EXPECT_TRUE(read_served);
    EXPECT_EQ(read.get()->body, "zero");
    EXPECT_TRUE(fill_waited);
    Result<std::vector<LId>> filled = fill.get();
    ASSERT_TRUE(filled.ok());
    EXPECT_EQ(*filled, (std::vector<LId>{1, 3}));
    EXPECT_EQ(m.Read(2)->body, "two");
    EXPECT_EQ(m.Read(1)->body, "junk");
    EXPECT_EQ(m.Read(3)->body, "junk");
    EXPECT_EQ(m.HeadOfLog(), 5u);
  }
  fs::remove_all(dir);
}

TEST(MaintainerTest, FailedPostAssignedLandingLeavesNothingBehind) {
  // The fdatasync of a post-assigned landing fails. The call returns the
  // error, and nothing it planned survives: no stored record, no invalid
  // mark, no HL move, no lost position, and the deferred append it would
  // have released still waits.
  fs::path dir = fs::temp_directory_path() / "chariots_maintainer_failed_land";
  fs::remove_all(dir);
  storage::ScriptedIoEngine engine;
  MaintainerOptions o;
  o.journal = EpochJournal(1, 100);
  o.store.dir = dir.string();
  o.store.mode = storage::SyncMode::kFsyncEach;
  o.store.io_engine = &engine;
  {
    LogMaintainer m(o);
    ASSERT_TRUE(m.Open().ok());
    std::vector<LId> landed;
    m.SetAppendObserver(
        [&](const LogRecord&, LId lid) { landed.push_back(lid); });
    ASSERT_EQ(*m.Append(Rec("zero")), 0u);
    ASSERT_EQ(*m.AppendOrdered(Rec("late"), 1), kInvalidLId);
    const LId hl = m.HeadOfLog();

    engine.FailNextSync();
    std::vector<ReplicatedEntry> collected;
    Result<LId> failed = m.Append(
        Rec("lost"), Landing{.invalid = true, .collect = &collected});
    EXPECT_EQ(failed.status().code(), StatusCode::kIOError);
    EXPECT_TRUE(collected.empty());
    EXPECT_EQ(m.count(), 1u);
    EXPECT_TRUE(m.Read(1).status().IsNotFound());
    EXPECT_TRUE(m.Read(2).status().IsNotFound());
    EXPECT_EQ(m.InvalidCount(), 0u);
    EXPECT_EQ(m.HeadOfLog(), hl);
    EXPECT_EQ(m.deferred_ordered(), 1u);
    EXPECT_EQ(landed, (std::vector<LId>{0}));

    EXPECT_EQ(*m.Append(Rec("one")), 1u);
    EXPECT_EQ(m.Read(1)->body, "one");
    EXPECT_EQ(m.Read(2)->body, "late");
    EXPECT_EQ(landed, (std::vector<LId>{0, 1, 2}));
  }
  fs::remove_all(dir);
}

TEST(MaintainerTest, AddEpochRedirectsFutureAssignments) {
  // Start with 1 maintainer; add a second at lid 4.
  LogMaintainer m0(MemOptions(0, 1, 2));
  ASSERT_TRUE(m0.Open().ok());
  EXPECT_EQ(*m0.Append(Rec("a")), 0u);
  ASSERT_TRUE(m0.AddEpoch({4, 2, 2}).ok());

  // m0 finishes its epoch-0 slots (1,2,3), then jumps into epoch 1 where it
  // owns relative 0,1 -> global 4,5, then 8,9.
  EXPECT_EQ(*m0.Append(Rec("b")), 1u);
  EXPECT_EQ(*m0.Append(Rec("c")), 2u);
  EXPECT_EQ(*m0.Append(Rec("d")), 3u);
  EXPECT_EQ(*m0.Append(Rec("e")), 4u);
  EXPECT_EQ(*m0.Append(Rec("f")), 5u);
  EXPECT_EQ(*m0.Append(Rec("g")), 8u);  // 6,7 belong to the new maintainer

  // The new maintainer starts serving its epoch-1 slots.
  MaintainerOptions o1 = MemOptions(1, 1, 2);
  o1.journal = EpochJournal(1, 2);
  LogMaintainer m1(o1);
  ASSERT_TRUE(m1.Open().ok());
  ASSERT_TRUE(m1.AddEpoch({4, 2, 2}).ok());
  EXPECT_EQ(*m1.Append(Rec("h")), 6u);
  EXPECT_EQ(*m1.Append(Rec("i")), 7u);
}

TEST(MaintainerTest, TruncateBelowGarbageCollects) {
  MaintainerOptions o;
  o.index = 0;
  o.journal = EpochJournal(1, 10);
  fs::path dir = fs::temp_directory_path() / "chariots_maintainer_gc";
  fs::remove_all(dir);
  o.store.mode = storage::SyncMode::kBuffered;
  o.store.dir = (dir / "m0").string();
  o.store.segment_bytes = 128;
  LogMaintainer m(o);
  ASSERT_TRUE(m.Open().ok());
  for (int i = 0; i < 50; ++i) m.Append(Rec(std::string(40, 'x')));
  uint64_t before = m.count();
  ASSERT_TRUE(m.TruncateBelow(25).ok());
  EXPECT_LT(m.count(), before);
  EXPECT_TRUE(m.Read(49).ok());
  fs::remove_all(dir);
}

// Property sweep: across maintainer counts and batch sizes, concurrent-ish
// post-assignment from all maintainers yields disjoint, gap-free coverage
// up to the HL.
class MaintainerPropertyTest
    : public ::testing::TestWithParam<std::tuple<uint32_t, uint64_t, int>> {};

TEST_P(MaintainerPropertyTest, DisjointCoverageAndHonestHL) {
  auto [num_maintainers, batch, appends_each] = GetParam();
  std::vector<std::unique_ptr<LogMaintainer>> ms;
  for (uint32_t i = 0; i < num_maintainers; ++i) {
    ms.push_back(std::make_unique<LogMaintainer>(
        MemOptions(i, num_maintainers, batch)));
    ASSERT_TRUE(ms.back()->Open().ok());
  }
  std::set<LId> all;
  for (uint32_t i = 0; i < num_maintainers; ++i) {
    for (int k = 0; k < appends_each * (static_cast<int>(i) + 1); ++k) {
      auto lid = ms[i]->Append(Rec("x"));
      ASSERT_TRUE(lid.ok());
      EXPECT_TRUE(all.insert(*lid).second) << "duplicate lid " << *lid;
    }
  }
  // Full gossip exchange.
  for (uint32_t i = 0; i < num_maintainers; ++i) {
    for (uint32_t k = 0; k < num_maintainers; ++k) {
      if (i != k) ms[i]->OnGossip(k, ms[k]->FirstUnfilledGlobal());
    }
  }
  LId hl = ms[0]->HeadOfLog();
  // All maintainers agree after full exchange.
  for (auto& m : ms) EXPECT_EQ(m->HeadOfLog(), hl);
  // Every position below HL is present exactly once.
  for (LId lid = 0; lid < hl; ++lid) {
    EXPECT_TRUE(all.count(lid)) << "gap below HL at " << lid;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Configs, MaintainerPropertyTest,
    ::testing::Combine(::testing::Values(1u, 2u, 3u, 5u),
                       ::testing::Values(1ull, 3ull, 100ull),
                       ::testing::Values(5, 40)));

// Safety under PARTIAL gossip: whatever subset of gossip messages arrives,
// in whatever order (including stale ones), HL never exceeds the true
// contiguous fill — a reader can never be shown a position with a gap
// below it (paper §5.4's core requirement).
class GossipSafetyPropertyTest : public ::testing::TestWithParam<uint64_t> {
};

TEST_P(GossipSafetyPropertyTest, HlNeverExceedsTrueContiguousFill) {
  chariots::Random rng(GetParam());
  constexpr uint32_t kMaintainers = 4;
  constexpr uint64_t kBatch = 5;
  std::vector<std::unique_ptr<LogMaintainer>> ms;
  for (uint32_t i = 0; i < kMaintainers; ++i) {
    ms.push_back(std::make_unique<LogMaintainer>(
        MemOptions(i, kMaintainers, kBatch)));
    ASSERT_TRUE(ms.back()->Open().ok());
  }
  std::set<LId> all;
  for (int step = 0; step < 400; ++step) {
    double dice = rng.NextDouble();
    if (dice < 0.6) {
      // Skewed appends.
      uint32_t m = static_cast<uint32_t>(rng.Skewed(kMaintainers, 0.7));
      auto lid = ms[m]->Append(Rec("x"));
      ASSERT_TRUE(lid.ok());
      all.insert(*lid);
    } else {
      // One random (possibly stale — we re-read fresh each time, but
      // delivery order across steps is arbitrary) gossip delivery.
      uint32_t from = static_cast<uint32_t>(rng.Uniform(kMaintainers));
      uint32_t to = static_cast<uint32_t>(rng.Uniform(kMaintainers));
      if (from != to) {
        ms[to]->OnGossip(from, ms[from]->FirstUnfilledGlobal());
      }
    }
    // Invariant at every maintainer, at every step.
    LId true_contig = 0;
    while (all.count(true_contig)) ++true_contig;
    for (auto& m : ms) {
      ASSERT_LE(m->HeadOfLog(), true_contig) << "step " << step;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GossipSafetyPropertyTest,
                         ::testing::Values(11, 22, 33, 44, 55));

}  // namespace
}  // namespace chariots::flstore
