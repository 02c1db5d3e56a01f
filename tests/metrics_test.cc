// Tests for the observability layer (ISSUE 4): the metrics registry and its
// instruments under concurrency, the exporters, the record-level trace
// plumbing, the rate-limited logging helper, and the lock-free queue depth
// mirrors.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "common/codec.h"
#include "common/logging.h"
#include "common/metrics.h"
#include "common/queue.h"
#include "common/trace.h"

namespace chariots {
namespace {

using metrics::Counter;
using metrics::Gauge;
using metrics::Histogram;
using metrics::HistogramStats;
using metrics::MetricsSnapshot;
using metrics::Registry;

TEST(CounterTest, ConcurrentAddsSumExactly) {
  Counter counter;
  constexpr int kThreads = 8;
  constexpr uint64_t kPerThread = 50'000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (uint64_t i = 0; i < kPerThread; ++i) counter.Add();
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(counter.Value(), kThreads * kPerThread);
}

TEST(CounterTest, AddWithWeight) {
  Counter counter;
  counter.Add(5);
  counter.Add(7);
  EXPECT_EQ(counter.Value(), 12u);
  counter.Reset();
  EXPECT_EQ(counter.Value(), 0u);
}

TEST(GaugeTest, SetAddMax) {
  Gauge gauge;
  gauge.Set(10);
  EXPECT_EQ(gauge.Value(), 10);
  gauge.Add(-3);
  EXPECT_EQ(gauge.Value(), 7);
  gauge.MaxOf(5);  // below: no change
  EXPECT_EQ(gauge.Value(), 7);
  gauge.MaxOf(42);
  EXPECT_EQ(gauge.Value(), 42);
}

TEST(HistogramTest, BucketMathIsMonotoneAndBounding) {
  // Small values get exact buckets.
  for (uint64_t v = 0; v < 8; ++v) {
    EXPECT_EQ(Histogram::BucketFor(v), v) << v;
  }
  // BucketFor is monotone non-decreasing and BucketUpper bounds the value.
  size_t prev = 0;
  for (uint64_t v : {1ull, 7ull, 8ull, 9ull, 100ull, 1023ull, 1024ull,
                     1'000'000ull, 123'456'789ull, ~0ull >> 1}) {
    size_t b = Histogram::BucketFor(v);
    EXPECT_GE(b, prev) << v;
    EXPECT_LT(b, Histogram::kNumBuckets);
    EXPECT_GE(Histogram::BucketUpper(b), v) << v;
    prev = b;
  }
}

TEST(HistogramTest, StatsOnKnownDistribution) {
  Histogram hist;
  // 1000 samples of 100ns and 10 of 1ms: p50 near 100, p999 near 1ms.
  for (int i = 0; i < 1000; ++i) hist.Record(100);
  for (int i = 0; i < 10; ++i) hist.Record(1'000'000);
  HistogramStats stats = hist.Stats();
  EXPECT_EQ(stats.count, 1010u);
  EXPECT_EQ(stats.min, 100u);
  EXPECT_EQ(stats.max, 1'000'000u);
  EXPECT_DOUBLE_EQ(stats.sum, 1000.0 * 100 + 10.0 * 1'000'000);
  // Log buckets have ~12.5% resolution; allow one bucket of slack.
  EXPECT_LE(stats.p50, 130);
  EXPECT_GE(stats.p999, 500'000);
}

TEST(HistogramTest, ConcurrentRecordsKeepCountConsistent) {
  Histogram hist;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 20'000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        hist.Record(static_cast<uint64_t>(t) * 1000 + i % 512);
      }
    });
  }
  for (auto& t : threads) t.join();
  HistogramStats stats = hist.Stats();
  EXPECT_EQ(stats.count, static_cast<uint64_t>(kThreads) * kPerThread);
  EXPECT_GE(stats.max, stats.min);
  EXPECT_GE(stats.p99, stats.p50);
}

// Each thread records into its own shard; Stats() merges them exactly, and
// Reset() clears every shard, min and max included.
TEST(HistogramTest, ShardsMergeExactlyAndResetClearsEveryShard) {
  Histogram hist;
  constexpr uint64_t kThreads = 4;
  constexpr uint64_t kPerThread = 50'000;
  auto record_all = [&] {
    std::vector<std::thread> threads;
    for (uint64_t t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        // Together the threads record 1..kThreads*kPerThread, once each.
        for (uint64_t i = 1; i <= kPerThread; ++i) {
          hist.Record(t * kPerThread + i);
        }
      });
    }
    for (auto& t : threads) t.join();
  };
  constexpr uint64_t kTotal = kThreads * kPerThread;
  for (int round = 0; round < 2; ++round) {
    record_all();
    HistogramStats stats = hist.Stats();
    EXPECT_EQ(stats.count, kTotal);
    EXPECT_EQ(hist.count(), kTotal);
    EXPECT_DOUBLE_EQ(stats.sum, double(kTotal) * double(kTotal + 1) / 2);
    EXPECT_EQ(stats.min, 1u);
    EXPECT_EQ(stats.max, kTotal);
    hist.Reset();
    stats = hist.Stats();
    EXPECT_EQ(stats.count, 0u);
    EXPECT_EQ(hist.count(), 0u);
    EXPECT_EQ(stats.sum, 0);
    EXPECT_TRUE(stats.buckets.empty());
  }
  hist.Record(1000);
  HistogramStats one = hist.Stats();
  EXPECT_EQ(one.count, 1u);
  EXPECT_EQ(one.min, 1000u);
  EXPECT_EQ(one.max, 1000u);
}

TEST(RegistryTest, GetReturnsStablePointers) {
  Registry registry;
  Counter* a = registry.GetCounter("test.counter");
  Counter* b = registry.GetCounter("test.counter");
  EXPECT_EQ(a, b);
  EXPECT_NE(registry.GetCounter("test.other"), a);
  EXPECT_EQ(registry.GetGauge("test.gauge"), registry.GetGauge("test.gauge"));
  EXPECT_EQ(registry.GetHistogram("test.hist"),
            registry.GetHistogram("test.hist"));
}

TEST(RegistryTest, SnapshotSeesValuesAndCallbacks) {
  Registry registry;
  registry.GetCounter("snap.count")->Add(3);
  registry.GetGauge("snap.gauge")->Set(-5);
  registry.GetHistogram("snap.hist")->Record(42);
  registry.RegisterCallback("snap.depth", [] { return int64_t{17}; });

  MetricsSnapshot snapshot = registry.Snapshot();
  EXPECT_EQ(snapshot.counters.at("snap.count"), 3u);
  EXPECT_EQ(snapshot.gauges.at("snap.gauge"), -5);
  EXPECT_EQ(snapshot.gauges.at("snap.depth"), 17);
  EXPECT_EQ(snapshot.histograms.at("snap.hist").count, 1u);

  registry.UnregisterCallback("snap.depth");
  EXPECT_EQ(registry.Snapshot().gauges.count("snap.depth"), 0u);
}

TEST(RegistryTest, ScopedCallbackGaugeUnregistersOnDestruction) {
  Registry& registry = Registry::Default();
  {
    metrics::ScopedCallbackGauge gauge("scoped.test.depth",
                                       [] { return int64_t{9}; });
    EXPECT_EQ(registry.Snapshot().gauges.at("scoped.test.depth"), 9);
  }
  EXPECT_EQ(registry.Snapshot().gauges.count("scoped.test.depth"), 0u);
}

TEST(RegistryTest, ScopedLatencyTimerRecordsOneSample) {
  Registry registry;
  Histogram* hist = registry.GetHistogram("timer.hist");
  { metrics::ScopedLatencyTimer timer(hist); }
  EXPECT_EQ(hist->count(), 1u);
  { metrics::ScopedLatencyTimer timer(nullptr); }  // must not crash
}

TEST(RenderTest, PrometheusAndJsonContainInstruments) {
  Registry registry;
  registry.GetCounter("render.appends")->Add(2);
  registry.GetGauge("render.depth")->Set(4);
  registry.GetHistogram("render.lat_ns")->Record(1000);
  MetricsSnapshot snapshot = registry.Snapshot();

  std::string prom = metrics::RenderPrometheus(snapshot);
  EXPECT_NE(prom.find("render_appends 2"), std::string::npos) << prom;
  EXPECT_NE(prom.find("render_depth 4"), std::string::npos) << prom;
  EXPECT_NE(prom.find("render_lat_ns_count 1"), std::string::npos) << prom;

  std::string json = metrics::RenderJson(snapshot);
  EXPECT_NE(json.find("\"render.appends\":2"), std::string::npos) << json;
  EXPECT_NE(json.find("\"render.depth\":4"), std::string::npos) << json;
  EXPECT_NE(json.find("\"render.lat_ns\""), std::string::npos) << json;
}

TEST(TraceTest, SamplingRule) {
  EXPECT_FALSE(trace::ShouldSample(1, 0));  // disabled
  EXPECT_TRUE(trace::ShouldSample(1, 1024));
  EXPECT_FALSE(trace::ShouldSample(2, 1024));
  EXPECT_TRUE(trace::ShouldSample(1025, 1024));
  EXPECT_TRUE(trace::ShouldSample(1, 1));
  EXPECT_TRUE(trace::ShouldSample(2, 1));
  EXPECT_NE(trace::MakeTraceId(0, 0), 0u);
  EXPECT_NE(trace::MakeTraceId(0, 7), trace::MakeTraceId(1, 7));
}

TEST(TraceTest, InactiveContextIgnoresHops) {
  trace::TraceContext ctx;
  ctx.AddHop("client", 0);
  EXPECT_FALSE(ctx.active());
  EXPECT_TRUE(ctx.hops.empty());
}

TEST(TraceTest, EncodeDecodeRoundTrip) {
  trace::TraceContext ctx;
  ctx.trace_id = trace::MakeTraceId(2, 99);
  ctx.AddHop("client", 2);
  ctx.AddHop("batcher", 2);

  BinaryWriter writer;
  trace::EncodeTrace(ctx, &writer);
  std::string encoded = std::move(writer).data();
  EXPECT_FALSE(encoded.empty());

  BinaryReader reader(encoded);
  trace::TraceContext decoded;
  ASSERT_TRUE(trace::DecodeTrace(&reader, &decoded));
  EXPECT_EQ(decoded.trace_id, ctx.trace_id);
  ASSERT_EQ(decoded.hops.size(), 2u);
  EXPECT_EQ(decoded.hops[0], ctx.hops[0]);
  EXPECT_EQ(decoded.hops[1], ctx.hops[1]);
}

TEST(TraceTest, InactiveContextCostsZeroBytesAndDecodesAbsent) {
  trace::TraceContext inactive;
  BinaryWriter writer;
  trace::EncodeTrace(inactive, &writer);
  EXPECT_EQ(writer.size(), 0u);
  EXPECT_EQ(trace::EncodedTraceSize(inactive), 0u);

  BinaryReader reader(std::string_view{});
  trace::TraceContext decoded;
  decoded.trace_id = 123;  // must be overwritten to inactive
  EXPECT_TRUE(trace::DecodeTrace(&reader, &decoded));
  EXPECT_FALSE(decoded.active());
}

TEST(TraceTest, SinkIsARingAndFindsById) {
  trace::TraceSink sink(/*capacity=*/4);
  for (uint64_t id = 1; id <= 6; ++id) {
    trace::TraceContext ctx;
    ctx.trace_id = id;
    ctx.AddHop("client", 0);
    sink.Record(std::move(ctx));
  }
  std::vector<trace::TraceContext> traces = sink.Traces();
  ASSERT_EQ(traces.size(), 4u);  // oldest two evicted
  trace::TraceContext found;
  EXPECT_FALSE(sink.Find(1, &found));
  EXPECT_TRUE(sink.Find(6, &found));
  EXPECT_EQ(found.trace_id, 6u);

  std::string json = trace::RenderTracesJson(traces);
  EXPECT_NE(json.find("\"trace_id\":6"), std::string::npos) << json;
  EXPECT_NE(json.find("\"stage\":\"client\""), std::string::npos) << json;

  sink.Clear();
  EXPECT_TRUE(sink.Traces().empty());
}

TEST(LoggingTest, ShouldLogEveryNRateLimits) {
  std::atomic<int64_t> slot{0};
  EXPECT_TRUE(internal_logging::ShouldLogEveryN(&slot, 60));
  // Immediately after a win, the deadline is armed ~60s out.
  EXPECT_FALSE(internal_logging::ShouldLogEveryN(&slot, 60));
  EXPECT_FALSE(internal_logging::ShouldLogEveryN(&slot, 60));
}

TEST(LoggingTest, ConcurrentCallersGetExactlyOneWin) {
  std::atomic<int64_t> slot{0};
  std::atomic<int> wins{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&] {
      if (internal_logging::ShouldLogEveryN(&slot, 60)) ++wins;
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(wins.load(), 1);
}

TEST(LoggingTest, MacroCompilesAndTerminates) {
  for (int i = 0; i < 3; ++i) {
    LOG_EVERY_N_SEC(kDebug, 60) << "only once, i=" << i;
  }
}

TEST(QueueTest, ApproxSizeAndHighWatermark) {
  BoundedQueue<int> queue(8);
  EXPECT_EQ(queue.ApproxSize(), 0u);
  EXPECT_EQ(queue.high_watermark(), 0u);
  for (int i = 0; i < 5; ++i) ASSERT_TRUE(queue.Push(i));
  EXPECT_EQ(queue.ApproxSize(), 5u);
  EXPECT_EQ(queue.high_watermark(), 5u);
  (void)queue.Pop();
  (void)queue.Pop();
  EXPECT_EQ(queue.ApproxSize(), 3u);
  EXPECT_EQ(queue.high_watermark(), 5u);  // watermark never recedes
  ASSERT_TRUE(queue.Push(99));
  EXPECT_EQ(queue.ApproxSize(), 4u);
  EXPECT_EQ(queue.high_watermark(), 5u);
}

TEST(QueueTest, ApproxSizeTracksUnderConcurrency) {
  BoundedQueue<int> queue(64);
  std::thread producer([&] {
    for (int i = 0; i < 10'000; ++i) (void)queue.Push(i);
    queue.Close();
  });
  uint64_t popped = 0;
  while (queue.Pop().has_value()) ++popped;
  producer.join();
  EXPECT_EQ(popped, 10'000u);
  EXPECT_EQ(queue.ApproxSize(), 0u);
  EXPECT_GE(queue.high_watermark(), 1u);
  EXPECT_LE(queue.high_watermark(), 64u);
}

}  // namespace
}  // namespace chariots
