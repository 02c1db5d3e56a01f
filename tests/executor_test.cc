#include "common/executor.h"

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/clock.h"
#include "common/latch.h"

namespace chariots {
namespace {

constexpr int64_t kMs = 1'000'000;

// ---------------------------------------------------------------------------
// Worker lane
// ---------------------------------------------------------------------------

TEST(ExecutorTest, RunsSubmittedTasks) {
  Executor exec({.num_threads = 4, .name = "t-run"});
  std::atomic<int> count{0};
  CountDownLatch done(100);
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(exec.Submit([&] {
      count.fetch_add(1);
      done.CountDown();
    }));
  }
  done.Wait();
  EXPECT_EQ(count.load(), 100);
  EXPECT_EQ(exec.num_workers(), 4u);
}

TEST(ExecutorTest, WorkStealingKeepsAllWorkersBusy) {
  Executor exec({.num_threads = 4, .name = "t-steal"});
  // One long task per worker plus a burst of short ones: the short tasks
  // land round-robin on all shards, so workers stuck behind the long tasks'
  // shards must steal to finish quickly.
  std::atomic<int> count{0};
  CountDownLatch done(200);
  for (int i = 0; i < 200; ++i) {
    exec.Submit([&] {
      count.fetch_add(1);
      done.CountDown();
    });
  }
  EXPECT_TRUE(done.WaitFor(std::chrono::seconds(30)));
  EXPECT_EQ(count.load(), 200);
}

TEST(ExecutorTest, ShutdownDrainsQueuedTasks) {
  std::atomic<int> count{0};
  {
    Executor exec({.num_threads = 2, .name = "t-drain"});
    for (int i = 0; i < 500; ++i) {
      exec.Submit([&] { count.fetch_add(1); });
    }
    exec.Shutdown();
  }
  EXPECT_EQ(count.load(), 500);
}

TEST(ExecutorTest, SubmitAfterShutdownReturnsFalse) {
  Executor exec({.num_threads = 2, .name = "t-post"});
  exec.Shutdown();
  EXPECT_FALSE(exec.Submit([] {}));
}

TEST(ExecutorTest, ConcurrentSubmittersDuringShutdownLoseNoAcceptedTask) {
  // Hammer Submit from several threads while Shutdown races them: every
  // Submit that returned true must have run exactly once.
  std::atomic<int> accepted{0};
  std::atomic<int> ran{0};
  auto exec = std::make_unique<Executor>(
      Executor::Options{.num_threads = 2, .name = "t-race"});
  std::vector<std::thread> submitters;
  std::atomic<bool> stop{false};
  for (int t = 0; t < 4; ++t) {
    submitters.emplace_back([&] {
      while (!stop.load()) {
        if (exec->Submit([&] { ran.fetch_add(1); })) {
          accepted.fetch_add(1);
        }
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  exec->Shutdown();
  stop.store(true);
  for (auto& t : submitters) t.join();
  exec.reset();
  EXPECT_EQ(ran.load(), accepted.load());
}

TEST(ExecutorTest, CensusCountsWorkersAndTimer) {
  int64_t before = RuntimeThreadCount();
  {
    Executor exec({.num_threads = 3, .name = "t-census"});
    // Workers + timer thread register asynchronously; wait for them.
    for (int i = 0; i < 1000 && RuntimeThreadCount() < before + 4; ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    EXPECT_EQ(RuntimeThreadCount(), before + 4);  // 3 workers + 1 timer
  }
  EXPECT_EQ(RuntimeThreadCount(), before);
}

// ---------------------------------------------------------------------------
// Virtual time
// ---------------------------------------------------------------------------

struct VirtualFixture {
  ManualClock clock;
  Executor exec;
  VirtualFixture()
      : exec({.num_threads = 2, .name = "t-virt", .manual_clock = &clock}) {}
};

TEST(ExecutorVirtualTest, ScheduleAtFiresInDeadlineOrder) {
  VirtualFixture fx;
  std::vector<int> order;
  fx.exec.ScheduleAt(30 * kMs, [&] { order.push_back(30); });
  fx.exec.ScheduleAt(10 * kMs, [&] { order.push_back(10); });
  fx.exec.ScheduleAt(20 * kMs, [&] { order.push_back(20); });
  fx.exec.AdvanceUntil(5 * kMs);
  EXPECT_TRUE(order.empty());
  fx.exec.AdvanceUntil(100 * kMs);
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[0], 10);
  EXPECT_EQ(order[1], 20);
  EXPECT_EQ(order[2], 30);
  EXPECT_EQ(fx.clock.NowNanos(), 100 * kMs);
}

TEST(ExecutorVirtualTest, CallbackSeesClockAtItsDeadline) {
  VirtualFixture fx;
  int64_t seen = -1;
  fx.exec.ScheduleAt(42 * kMs, [&] { seen = fx.clock.NowNanos(); });
  fx.exec.AdvanceUntil(1000 * kMs);
  EXPECT_EQ(seen, 42 * kMs);
}

TEST(ExecutorVirtualTest, ScheduleEveryHasNoDrift) {
  VirtualFixture fx;
  // Fixed-delay rearm from the completion time; in virtual time callbacks
  // complete instantaneously at their deadline, so fires land at exact
  // multiples of the period with zero drift.
  std::vector<int64_t> fires;
  fx.exec.ScheduleEvery(10 * kMs, [&] { fires.push_back(fx.clock.NowNanos()); });
  fx.exec.AdvanceUntil(105 * kMs);
  ASSERT_EQ(fires.size(), 10u);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(fires[i], (i + 1) * 10 * kMs) << "fire " << i;
  }
}

TEST(ExecutorVirtualTest, CancelOneShotBeforeDue) {
  VirtualFixture fx;
  bool fired = false;
  Executor::TimerToken token =
      fx.exec.ScheduleAt(10 * kMs, [&] { fired = true; });
  token.Cancel();
  fx.exec.AdvanceUntil(100 * kMs);
  EXPECT_FALSE(fired);
}

TEST(ExecutorVirtualTest, CancelStopsPeriodicTimer) {
  VirtualFixture fx;
  int fires = 0;
  Executor::TimerToken token = fx.exec.ScheduleEvery(10 * kMs, [&] { ++fires; });
  fx.exec.AdvanceUntil(35 * kMs);
  EXPECT_EQ(fires, 3);
  token.Cancel();
  fx.exec.AdvanceUntil(200 * kMs);
  EXPECT_EQ(fires, 3);
}

TEST(ExecutorVirtualTest, CancelFromInsideOwnCallbackDoesNotDeadlock) {
  VirtualFixture fx;
  int fires = 0;
  Executor::TimerToken token;
  token = fx.exec.ScheduleEvery(10 * kMs, [&] {
    ++fires;
    if (fires == 2) token.Cancel();
  });
  fx.exec.AdvanceUntil(200 * kMs);
  EXPECT_EQ(fires, 2);
}

TEST(ExecutorVirtualTest, DiscardingTokenDoesNotCancel) {
  VirtualFixture fx;
  bool fired = false;
  { Executor::TimerToken token = fx.exec.ScheduleAt(10 * kMs, [&] { fired = true; }); }
  fx.exec.AdvanceUntil(20 * kMs);
  EXPECT_TRUE(fired);
}

TEST(ExecutorVirtualTest, PeriodicCallbackCanScheduleMore) {
  VirtualFixture fx;
  std::vector<int64_t> echo;
  fx.exec.ScheduleEvery(10 * kMs, [&] {
    int64_t now = fx.clock.NowNanos();
    fx.exec.ScheduleAfter(1 * kMs, [&echo, &fx] {
      echo.push_back(fx.clock.NowNanos());
    });
    (void)now;
  });
  fx.exec.AdvanceUntil(32 * kMs);
  ASSERT_EQ(echo.size(), 3u);
  EXPECT_EQ(echo[0], 11 * kMs);
  EXPECT_EQ(echo[1], 21 * kMs);
  EXPECT_EQ(echo[2], 31 * kMs);
}

// ---------------------------------------------------------------------------
// Real-time timers
// ---------------------------------------------------------------------------

TEST(ExecutorTimerTest, ScheduleAfterFiresOnce) {
  Executor exec({.num_threads = 2, .name = "t-after"});
  CountDownLatch fired(1);
  exec.ScheduleAfter(1 * kMs, [&] { fired.CountDown(); });
  EXPECT_TRUE(fired.WaitFor(std::chrono::seconds(30)));
}

TEST(ExecutorTimerTest, ScheduleEveryFiresRepeatedly) {
  Executor exec({.num_threads = 2, .name = "t-every"});
  CountDownLatch fired(3);
  Executor::TimerToken token =
      exec.ScheduleEvery(1 * kMs, [&] { fired.CountDown(); });
  EXPECT_TRUE(fired.WaitFor(std::chrono::seconds(30)));
  token.Cancel();
}

TEST(ExecutorTimerTest, CancelBlocksUntilRunningCallbackFinishes) {
  Executor exec({.num_threads = 2, .name = "t-cblk"});
  std::atomic<bool> in_callback{false};
  std::atomic<bool> callback_done{false};
  CountDownLatch release(1);
  Executor::TimerToken token = exec.ScheduleAfter(0, [&] {
    in_callback.store(true);
    release.Wait();
    callback_done.store(true);
  });
  while (!in_callback.load()) std::this_thread::yield();
  std::thread canceller([&] { token.Cancel(); });
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_FALSE(callback_done.load());  // Cancel is blocked on the callback
  release.CountDown();
  canceller.join();
  EXPECT_TRUE(callback_done.load());
}

TEST(ExecutorTimerTest, TimerLaneFiresOnTimerThread) {
  Executor exec({.num_threads = 2, .name = "t-lane"});
  CountDownLatch fired(1);
  std::thread::id timer_tid;
  exec.ScheduleAfter(
      0,
      [&] {
        timer_tid = std::this_thread::get_id();
        fired.CountDown();
      },
      Executor::Lane::kTimer);
  ASSERT_TRUE(fired.WaitFor(std::chrono::seconds(30)));
  EXPECT_NE(timer_tid, std::this_thread::get_id());
}

// ---------------------------------------------------------------------------
// SerialGate
// ---------------------------------------------------------------------------

TEST(SerialGateTest, WrapNoOpsAfterClose) {
  SerialGate gate;
  int runs = 0;
  std::function<void()> task = gate.Wrap([&] { ++runs; });
  task();
  EXPECT_EQ(runs, 1);
  gate.Close();
  task();
  EXPECT_EQ(runs, 1);
  EXPECT_FALSE(gate.Run([&] { ++runs; }));
  EXPECT_EQ(runs, 1);
}

TEST(SerialGateTest, CloseBlocksUntilRunningBodyFinishes) {
  SerialGate gate;
  std::atomic<bool> in_body{false};
  std::atomic<bool> closed{false};
  CountDownLatch release(1);
  std::thread runner([&] {
    gate.Run([&] {
      in_body.store(true);
      release.Wait();
    });
  });
  while (!in_body.load()) std::this_thread::yield();
  std::thread closer([&] {
    gate.Close();
    closed.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_FALSE(closed.load());
  release.CountDown();
  runner.join();
  closer.join();
  EXPECT_TRUE(closed.load());
}

TEST(SerialGateTest, WrappedTaskOutlivesGateObject) {
  std::function<void()> task;
  int runs = 0;
  {
    SerialGate gate;
    task = gate.Wrap([&] { ++runs; });
    gate.Close();
  }
  task();  // must not crash; gate state is shared_ptr-owned
  EXPECT_EQ(runs, 0);
}

}  // namespace
}  // namespace chariots
