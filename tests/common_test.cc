// Unit tests for the src/common substrate.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <random>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "common/codec.h"
#include "common/crc32c.h"
#include "common/histogram.h"
#include "common/latch.h"
#include "common/queue.h"
#include "common/random.h"
#include "common/rate_limiter.h"
#include "common/result.h"
#include "common/status.h"

namespace chariots {
namespace {

// ----------------------------------------------------------------- Status

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "ok");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::NotFound("missing key");
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.IsNotFound());
  EXPECT_EQ(s.message(), "missing key");
  EXPECT_EQ(s.ToString(), "not found: missing key");
}

TEST(StatusTest, EqualityComparesCodeAndMessage) {
  EXPECT_EQ(Status::Corruption("x"), Status::Corruption("x"));
  EXPECT_FALSE(Status::Corruption("x") == Status::Corruption("y"));
  EXPECT_FALSE(Status::Corruption("x") == Status::IOError("x"));
}

TEST(StatusTest, ReturnIfErrorPropagates) {
  auto fails = []() -> Status { return Status::Aborted("inner"); };
  auto outer = [&]() -> Status {
    CHARIOTS_RETURN_IF_ERROR(fails());
    return Status::OK();
  };
  EXPECT_TRUE(outer().IsAborted());
}

TEST(StatusTest, AllCodesHaveNames) {
  for (int c = 0; c <= static_cast<int>(StatusCode::kNotSupported); ++c) {
    EXPECT_NE(StatusCodeName(static_cast<StatusCode>(c)), "unknown");
  }
}

// ----------------------------------------------------------------- Result

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_EQ(r.value_or(7), 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r(Status::TimedOut("slow"));
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsTimedOut());
  EXPECT_EQ(r.value_or(7), 7);
}

TEST(ResultTest, AssignOrReturnUnwraps) {
  auto inner = []() -> Result<std::string> { return std::string("hi"); };
  auto outer = [&]() -> Result<int> {
    CHARIOTS_ASSIGN_OR_RETURN(std::string s, inner());
    return static_cast<int>(s.size());
  };
  ASSERT_TRUE(outer().ok());
  EXPECT_EQ(*outer(), 2);
}

TEST(ResultTest, AssignOrReturnPropagatesError) {
  auto inner = []() -> Result<std::string> {
    return Status::Unavailable("nope");
  };
  auto outer = [&]() -> Result<int> {
    CHARIOTS_ASSIGN_OR_RETURN(std::string s, inner());
    return static_cast<int>(s.size());
  };
  EXPECT_TRUE(outer().status().IsUnavailable());
}

TEST(ResultTest, MoveOnlyTypes) {
  auto make = []() -> Result<std::unique_ptr<int>> {
    return std::make_unique<int>(9);
  };
  Result<std::unique_ptr<int>> r = make();
  ASSERT_TRUE(r.ok());
  std::unique_ptr<int> p = std::move(r).value();
  EXPECT_EQ(*p, 9);
}

// ------------------------------------------------------------------ Codec

TEST(CodecTest, RoundTripAllTypes) {
  BinaryWriter w;
  w.PutU8(0xab);
  w.PutU16(0xbeef);
  w.PutU32(0xdeadbeef);
  w.PutU64(0x0123456789abcdefull);
  w.PutI64(-12345);
  w.PutBytes("hello");
  w.PutBytes("");  // empty payload

  BinaryReader r(w.data());
  uint8_t u8;
  uint16_t u16;
  uint32_t u32;
  uint64_t u64;
  int64_t i64;
  std::string s1, s2;
  ASSERT_TRUE(r.GetU8(&u8).ok());
  ASSERT_TRUE(r.GetU16(&u16).ok());
  ASSERT_TRUE(r.GetU32(&u32).ok());
  ASSERT_TRUE(r.GetU64(&u64).ok());
  ASSERT_TRUE(r.GetI64(&i64).ok());
  ASSERT_TRUE(r.GetBytes(&s1).ok());
  ASSERT_TRUE(r.GetBytes(&s2).ok());
  EXPECT_EQ(u8, 0xab);
  EXPECT_EQ(u16, 0xbeef);
  EXPECT_EQ(u32, 0xdeadbeefu);
  EXPECT_EQ(u64, 0x0123456789abcdefull);
  EXPECT_EQ(i64, -12345);
  EXPECT_EQ(s1, "hello");
  EXPECT_EQ(s2, "");
  EXPECT_TRUE(r.AtEnd());
}

TEST(CodecTest, UnderflowIsCorruption) {
  BinaryWriter w;
  w.PutU16(7);
  BinaryReader r(w.data());
  uint32_t v;
  EXPECT_TRUE(r.GetU32(&v).IsCorruption());
}

TEST(CodecTest, TruncatedBytesIsCorruption) {
  BinaryWriter w;
  w.PutU32(100);  // claims 100 bytes follow
  w.PutRaw("short");
  BinaryReader r(w.data());
  std::string out;
  EXPECT_TRUE(r.GetBytes(&out).IsCorruption());
}

TEST(CodecTest, BytesViewAliasesInput) {
  BinaryWriter w;
  w.PutBytes("abcdef");
  std::string buf = w.data();
  BinaryReader r(buf);
  std::string_view view;
  ASSERT_TRUE(r.GetBytesView(&view).ok());
  EXPECT_EQ(view, "abcdef");
  EXPECT_GE(view.data(), buf.data());
  EXPECT_LT(view.data(), buf.data() + buf.size());
}

// ----------------------------------------------------------------- CRC32C

TEST(Crc32cTest, KnownVectors) {
  // Standard CRC-32C test vector: "123456789" -> 0xE3069283.
  EXPECT_EQ(crc32c::Value("123456789"), 0xE3069283u);
  // Empty input -> 0.
  EXPECT_EQ(crc32c::Value(""), 0u);
}

TEST(Crc32cTest, ExtendMatchesWholeBuffer) {
  std::string data = "the quick brown fox jumps over the lazy dog";
  uint32_t whole = crc32c::Value(data);
  uint32_t split = crc32c::Extend(0, data.data(), 10);
  split = crc32c::Extend(split, data.data() + 10, data.size() - 10);
  EXPECT_EQ(whole, split);
}

TEST(Crc32cTest, MaskRoundTrips) {
  for (uint32_t crc : {0u, 1u, 0xdeadbeefu, 0xffffffffu}) {
    EXPECT_EQ(crc32c::Unmask(crc32c::Mask(crc)), crc);
    EXPECT_NE(crc32c::Mask(crc), crc);
  }
}

TEST(Crc32cTest, DetectsBitFlip) {
  std::string data(1024, 'x');
  uint32_t before = crc32c::Value(data);
  data[512] ^= 1;
  EXPECT_NE(crc32c::Value(data), before);
}

TEST(Crc32cTest, Rfc3720KnownAnswerVectors) {
  // RFC 3720 §B.4 test vectors, checked against BOTH implementations so a
  // hardware/portable divergence cannot hide behind the runtime dispatch.
  auto check = [](std::string_view data, uint32_t want) {
    EXPECT_EQ(crc32c::ExtendPortable(0, data.data(), data.size()), want);
    EXPECT_EQ(crc32c::ExtendHardware(0, data.data(), data.size()), want);
    EXPECT_EQ(crc32c::Value(data), want);
  };

  std::string zeros(32, '\0');
  check(zeros, 0x8a9136aau);

  std::string ones(32, static_cast<char>(0xff));
  check(ones, 0x62a8ab43u);

  std::string ascending(32, '\0');
  for (int i = 0; i < 32; ++i) ascending[i] = static_cast<char>(i);
  check(ascending, 0x46dd794eu);

  std::string descending(32, '\0');
  for (int i = 0; i < 32; ++i) descending[i] = static_cast<char>(31 - i);
  check(descending, 0x113fdb5cu);

  const uint8_t iscsi_read10[48] = {
      0x01, 0xc0, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  //
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  //
      0x14, 0x00, 0x00, 0x00, 0x00, 0x00, 0x04, 0x00,  //
      0x00, 0x00, 0x00, 0x14, 0x00, 0x00, 0x00, 0x18,  //
      0x28, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  //
      0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
  };
  check(std::string_view(reinterpret_cast<const char*>(iscsi_read10),
                         sizeof(iscsi_read10)),
        0xd9963a56u);
}

TEST(Crc32cTest, HardwareMatchesPortableOnRandomInputs) {
  std::mt19937_64 rng(42);
  for (int round = 0; round < 200; ++round) {
    // Cover sizes around the word/alignment boundaries both paths special-
    // case, plus some larger buffers.
    size_t size = round < 32 ? static_cast<size_t>(round)
                             : static_cast<size_t>(rng() % 4096);
    std::string data(size, '\0');
    for (char& c : data) c = static_cast<char>(rng());
    // Also vary alignment of the start pointer.
    size_t shift = rng() % 8;
    std::string padded(shift, 'x');
    padded += data;
    const char* p = padded.data() + shift;
    uint32_t init = static_cast<uint32_t>(rng());
    EXPECT_EQ(crc32c::ExtendPortable(init, p, size),
              crc32c::ExtendHardware(init, p, size))
        << "size=" << size << " shift=" << shift;
  }
}

TEST(Crc32cTest, ExtendChunkingEquivalence) {
  std::mt19937_64 rng(7);
  std::string data(2048, '\0');
  for (char& c : data) c = static_cast<char>(rng());
  uint32_t whole = crc32c::Value(data);
  for (size_t chunk : {1ul, 3ul, 7ul, 8ul, 64ul, 1000ul}) {
    uint32_t crc = 0;
    for (size_t off = 0; off < data.size(); off += chunk) {
      crc = crc32c::Extend(crc, data.data() + off,
                           std::min(chunk, data.size() - off));
    }
    EXPECT_EQ(crc, whole) << "chunk=" << chunk;
  }
}

// ------------------------------------------------------------------ Clock

TEST(ClockTest, SystemClockAdvances) {
  Clock* clock = SystemClock::Default();
  int64_t a = clock->NowNanos();
  clock->SleepFor(1'000'000);  // 1ms
  int64_t b = clock->NowNanos();
  EXPECT_GE(b - a, 900'000);
}

TEST(ClockTest, ManualClockIsDeterministic) {
  ManualClock clock(100);
  EXPECT_EQ(clock.NowNanos(), 100);
  clock.Advance(50);
  EXPECT_EQ(clock.NowNanos(), 150);
  clock.SleepFor(10);  // advances instead of blocking
  EXPECT_EQ(clock.NowNanos(), 160);
  clock.Set(0);
  EXPECT_EQ(clock.NowNanos(), 0);
}

// ------------------------------------------------------------ TokenBucket

TEST(TokenBucketTest, UnlimitedNeverBlocks) {
  ManualClock clock;
  TokenBucket bucket(0, 0, &clock);
  for (int i = 0; i < 1000; ++i) bucket.Acquire();
  EXPECT_EQ(clock.NowNanos(), 0);  // no sleeping happened
}

TEST(TokenBucketTest, EnforcesRateWithManualClock) {
  ManualClock clock;
  TokenBucket bucket(100.0, 1.0, &clock);  // 100 tokens/s, burst 1
  bucket.Acquire();  // consumes the initial burst token
  // Next acquire must "wait" 10ms of manual time.
  bucket.Acquire();
  EXPECT_GE(clock.NowNanos(), 9'000'000);
}

TEST(TokenBucketTest, TryAcquireRespectsBalance) {
  ManualClock clock;
  TokenBucket bucket(10.0, 2.0, &clock);
  EXPECT_TRUE(bucket.TryAcquire());
  EXPECT_TRUE(bucket.TryAcquire());
  EXPECT_FALSE(bucket.TryAcquire());  // burst exhausted
  clock.Advance(100'000'000);         // 0.1s -> 1 token
  EXPECT_TRUE(bucket.TryAcquire());
  EXPECT_FALSE(bucket.TryAcquire());
}

// ----------------------------------------------------------- BoundedQueue

TEST(BoundedQueueTest, FifoOrder) {
  BoundedQueue<int> q(10);
  for (int i = 0; i < 5; ++i) EXPECT_TRUE(q.Push(i));
  for (int i = 0; i < 5; ++i) EXPECT_EQ(q.Pop(), i);
}

TEST(BoundedQueueTest, TryPushFailsWhenFull) {
  BoundedQueue<int> q(2);
  EXPECT_TRUE(q.TryPush(1));
  EXPECT_TRUE(q.TryPush(2));
  EXPECT_FALSE(q.TryPush(3));
  EXPECT_EQ(q.size(), 2u);
}

TEST(BoundedQueueTest, CloseDrainsThenEnds) {
  BoundedQueue<int> q(10);
  q.Push(1);
  q.Push(2);
  q.Close();
  EXPECT_FALSE(q.Push(3));  // producers fail after close
  EXPECT_EQ(q.Pop(), 1);
  EXPECT_EQ(q.Pop(), 2);
  EXPECT_EQ(q.Pop(), std::nullopt);  // end of stream
}

TEST(BoundedQueueTest, BlockingHandoffBetweenThreads) {
  BoundedQueue<int> q(1);
  std::atomic<int> sum{0};
  std::thread consumer([&] {
    while (auto v = q.Pop()) sum += *v;
  });
  for (int i = 1; i <= 100; ++i) q.Push(i);
  q.Close();
  consumer.join();
  EXPECT_EQ(sum.load(), 5050);
}

TEST(BoundedQueueTest, PopForTimesOut) {
  BoundedQueue<int> q(1);
  auto start = std::chrono::steady_clock::now();
  EXPECT_EQ(q.PopFor(std::chrono::milliseconds(20)), std::nullopt);
  auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_GE(elapsed, std::chrono::milliseconds(15));
  EXPECT_FALSE(q.closed());
}

TEST(BoundedQueueTest, TryPopAllDrainsInOrder) {
  BoundedQueue<int> q(16);
  for (int i = 1; i <= 5; ++i) EXPECT_TRUE(q.Push(i));
  std::vector<int> out;
  EXPECT_EQ(q.TryPopAll(&out), 5u);
  EXPECT_EQ(out, (std::vector<int>{1, 2, 3, 4, 5}));
  EXPECT_EQ(q.TryPopAll(&out), 0u) << "empty: returns at once";
}

TEST(BoundedQueueTest, TryPopAllRespectsMaxItems) {
  BoundedQueue<int> q(16);
  for (int i = 1; i <= 5; ++i) EXPECT_TRUE(q.Push(i));
  std::vector<int> out;
  EXPECT_EQ(q.TryPopAll(&out, 2), 2u);
  EXPECT_EQ(out, (std::vector<int>{1, 2}));
  EXPECT_EQ(q.TryPopAll(&out, 10), 3u);
  EXPECT_EQ(out, (std::vector<int>{1, 2, 3, 4, 5}));
}

TEST(BoundedQueueTest, TryPopAllDrainsAClosedQueue) {
  BoundedQueue<int> q(4);
  q.Push(7);
  q.Close();
  std::vector<int> out;
  EXPECT_EQ(q.TryPopAll(&out), 1u);
  EXPECT_EQ(q.TryPopAll(&out), 0u);
  EXPECT_TRUE(q.closed()) << "closed + empty is end-of-stream";
  EXPECT_EQ(out, (std::vector<int>{7}));
}

TEST(BoundedQueueTest, BulkOpsConcurrentStress) {
  BoundedQueue<int> q(8);
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 2000;
  std::atomic<long long> sum{0};
  std::atomic<int> popped{0};
  std::vector<std::thread> threads;
  for (int p = 0; p < kProducers; ++p) {
    threads.emplace_back([&, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        ASSERT_TRUE(q.Push(p * kPerProducer + i));
      }
    });
  }
  std::vector<std::thread> consumers;
  for (int c = 0; c < 2; ++c) {
    consumers.emplace_back([&] {
      std::vector<int> got;
      for (;;) {
        // Read closed() before draining: a queue closed before an empty
        // drain holds nothing more.
        const bool closed = q.closed();
        if (q.TryPopAll(&got) == 0) {
          if (closed) return;
          std::this_thread::yield();
          continue;
        }
        for (int v : got) sum.fetch_add(v, std::memory_order_relaxed);
        popped.fetch_add(static_cast<int>(got.size()),
                         std::memory_order_relaxed);
        got.clear();
      }
    });
  }
  for (auto& t : threads) t.join();
  q.Close();
  for (auto& t : consumers) t.join();
  long long n = static_cast<long long>(kProducers) * kPerProducer;
  EXPECT_EQ(popped.load(), n);
  EXPECT_EQ(sum.load(), n * (n - 1) / 2);
}

// --------------------------------------------------------- CountDownLatch

TEST(CountDownLatchTest, ReleasesAtZero) {
  CountDownLatch latch(3);
  std::thread t([&] {
    for (int i = 0; i < 3; ++i) latch.CountDown();
  });
  latch.Wait();
  t.join();
  EXPECT_TRUE(latch.WaitFor(std::chrono::nanoseconds(1)));
}

// -------------------------------------------------------------- Histogram

TEST(HistogramTest, BasicStats) {
  Histogram h;
  for (int i = 1; i <= 100; ++i) h.Record(i);
  EXPECT_EQ(h.count(), 100u);
  EXPECT_DOUBLE_EQ(h.mean(), 50.5);
  EXPECT_DOUBLE_EQ(h.min(), 1);
  EXPECT_DOUBLE_EQ(h.max(), 100);
  // Geometric buckets: p50 within ~20% of true median.
  EXPECT_NEAR(h.Percentile(50), 50, 12);
  EXPECT_NEAR(h.Percentile(99), 99, 20);
}

TEST(HistogramTest, MergeCombines) {
  Histogram a, b;
  a.Record(10);
  b.Record(30);
  a.Merge(b);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_DOUBLE_EQ(a.mean(), 20);
  EXPECT_DOUBLE_EQ(a.max(), 30);
}

TEST(HistogramTest, ResetClears) {
  Histogram h;
  h.Record(5);
  h.Reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.Percentile(99), 0);
}

// ----------------------------------------------------------------- Random

TEST(RandomTest, DeterministicForSeed) {
  Random a(7), b(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RandomTest, DifferentSeedsDiffer) {
  Random a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.Next() == b.Next()) ++same;
  }
  EXPECT_LT(same, 4);
}

TEST(RandomTest, UniformInRange) {
  Random r(3);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(r.Uniform(17), 17u);
    double d = r.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RandomTest, NextStringIsPrintable) {
  Random r(5);
  std::string s = r.NextString(64);
  EXPECT_EQ(s.size(), 64u);
  for (char c : s) EXPECT_TRUE(isalnum(static_cast<unsigned char>(c)));
}

}  // namespace
}  // namespace chariots
