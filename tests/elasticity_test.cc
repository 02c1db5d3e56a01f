// Live elasticity tests (paper §6.3): growing pipeline stages while the
// datacenter serves traffic — batchers and queues immediately, filters via
// future reassignment — without disturbing ordering or uniqueness.

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "chariots/client.h"
#include "chariots/datacenter.h"
#include "net/inproc_transport.h"

namespace chariots::geo {
namespace {

using namespace std::chrono_literals;
constexpr int64_t kWaitNanos = 5'000'000'000;

ChariotsConfig BaseConfig() {
  ChariotsConfig config;
  config.dc_id = 0;
  config.num_datacenters = 1;
  return config;
}

// Appends `n` records and verifies the log is the gap-free TOId sequence
// continuing from `already`.
void AppendAndVerify(Datacenter& dc, ChariotsClient& client, int n,
                     int already) {
  for (int i = 0; i < n; ++i) {
    ASSERT_TRUE(client.Append("r" + std::to_string(already + i)).ok());
  }
  auto log = dc.ReadRange(0, already + n + 10);
  ASSERT_EQ(log.size(), static_cast<size_t>(already + n));
  for (size_t i = 0; i < log.size(); ++i) {
    EXPECT_EQ(log[i].toid, i + 1);
  }
}

TEST(ElasticityTest, AddBatcherMidTraffic) {
  Datacenter dc(BaseConfig());
  ASSERT_TRUE(dc.Start().ok());
  ChariotsClient client(&dc);
  AppendAndVerify(dc, client, 20, 0);
  EXPECT_EQ(dc.num_batchers(), 1u);
  ASSERT_TRUE(dc.AddBatcher().ok());
  EXPECT_EQ(dc.num_batchers(), 2u);
  AppendAndVerify(dc, client, 20, 20);
  dc.Stop();
}

TEST(ElasticityTest, AddQueueMidTraffic) {
  Datacenter dc(BaseConfig());
  ASSERT_TRUE(dc.Start().ok());
  ChariotsClient client(&dc);
  AppendAndVerify(dc, client, 20, 0);
  ASSERT_TRUE(dc.AddQueue().ok());
  ASSERT_TRUE(dc.AddQueue().ok());
  EXPECT_EQ(dc.num_queues(), 3u);
  AppendAndVerify(dc, client, 30, 20);
  dc.Stop();
}

TEST(ElasticityTest, SplitFilterChampionshipMidTraffic) {
  Datacenter dc(BaseConfig());
  ASSERT_TRUE(dc.Start().ok());
  ChariotsClient client(&dc);
  AppendAndVerify(dc, client, 10, 0);

  // Future reassignment: from TOId 31, split DC0's records between the
  // original filter and a new one by TOId parity. TOIds 11..30 stay with
  // the old assignment (time for batchers to learn, per the paper).
  ASSERT_TRUE(dc.SplitFilterChampionship(0, 31, {0, 1}).ok());
  EXPECT_EQ(dc.num_filters(), 2u);
  AppendAndVerify(dc, client, 40, 10);  // crosses the transition point
  dc.Stop();
}

TEST(ElasticityTest, EveryStageGrownUnderConcurrentWriters) {
  Datacenter dc(BaseConfig());
  ASSERT_TRUE(dc.Start().ok());

  std::atomic<bool> stop{false};
  std::atomic<int> appended{0};
  std::thread writer([&] {
    ChariotsClient client(&dc);
    while (!stop.load()) {
      if (client.Append("w").ok()) ++appended;
    }
  });

  std::this_thread::sleep_for(20ms);
  ASSERT_TRUE(dc.AddBatcher().ok());
  std::this_thread::sleep_for(20ms);
  ASSERT_TRUE(dc.AddQueue().ok());
  std::this_thread::sleep_for(20ms);
  TOId cut = dc.max_local_toid() + 500;  // far enough in the future
  ASSERT_TRUE(dc.SplitFilterChampionship(0, cut, {0, 1}).ok());
  std::this_thread::sleep_for(50ms);
  stop.store(true);
  writer.join();

  // Everything appended landed exactly once, in order.
  ASSERT_TRUE(dc.WaitForToid(0, appended.load(), kWaitNanos));
  auto log = dc.ReadRange(0, appended.load() + 10);
  ASSERT_EQ(log.size(), static_cast<size_t>(appended.load()));
  for (size_t i = 0; i < log.size(); ++i) {
    EXPECT_EQ(log[i].toid, i + 1);
  }
  dc.Stop();
}

TEST(ElasticityTest, AddQueueAfterFilterSplitUnderConcurrentWriters) {
  // A filter added by SplitFilterChampionship routes records into the
  // queues while AddQueue grows them. Like the filters built at Start, it
  // must pick a queue below the published queue count, never a slot that
  // AddQueue is still filling.
  Datacenter dc(BaseConfig());
  ASSERT_TRUE(dc.Start().ok());
  // From the second record on, filter 1 champions every other TOId.
  ASSERT_TRUE(dc.SplitFilterChampionship(0, 2, {0, 1}).ok());

  std::atomic<bool> stop{false};
  std::atomic<int> appended{0};
  std::vector<std::thread> writers;
  for (int w = 0; w < 2; ++w) {
    writers.emplace_back([&] {
      ChariotsClient client(&dc);
      while (!stop.load()) {
        if (client.Append("w").ok()) ++appended;
      }
    });
  }
  for (int q = 0; q < 8; ++q) {
    std::this_thread::sleep_for(5ms);
    EXPECT_TRUE(dc.AddQueue().ok());
  }
  std::this_thread::sleep_for(5ms);
  stop.store(true);
  for (auto& w : writers) w.join();
  EXPECT_EQ(dc.num_queues(), 9u);

  ASSERT_TRUE(dc.WaitForToid(0, appended.load(), kWaitNanos));
  auto log = dc.ReadRange(0, appended.load() + 10);
  ASSERT_EQ(log.size(), static_cast<size_t>(appended.load()));
  for (size_t i = 0; i < log.size(); ++i) {
    EXPECT_EQ(log[i].toid, i + 1);
  }
  dc.Stop();
}

TEST(ElasticityTest, CapacityLimitsReported) {
  ChariotsConfig config = BaseConfig();
  Datacenter dc(config);
  ASSERT_TRUE(dc.Start().ok());
  EXPECT_FALSE(dc.SplitFilterChampionship(0, 10, {100000}).ok());
  dc.Stop();
}

}  // namespace
}  // namespace chariots::geo
