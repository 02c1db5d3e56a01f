#ifndef CHARIOTS_COMMON_METRICS_H_
#define CHARIOTS_COMMON_METRICS_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace chariots::metrics {

/// Lock-light process-wide instrument registry (ISSUE 4 tentpole). Three
/// instrument kinds:
///
///   * Counter   — monotonically increasing, sharded atomics so concurrent
///                 hot-path increments don't bounce one cache line;
///   * Gauge     — settable point-in-time value (also available as a
///                 registered callback evaluated at snapshot time, for
///                 values like queue depth that live in the owning object);
///   * Histogram — log-bucketed distribution over non-negative integers
///                 (latencies in nanoseconds, sizes in bytes) with
///                 approximate percentiles, all atomics on the write path.
///
/// Naming scheme (DESIGN.md §9): dot-separated, lowercase,
/// `<subsystem>[.<instance>].<what>[_<unit>]`, e.g.
/// `chariots.batcher.records_in`, `chariots.dc0.appends`,
/// `storage.fsync_latency_ns`. Units are spelled in the name (`_ns`,
/// `_bytes`) so exporters need no side table.

/// Monotonic counter. Increments hash the calling thread onto one of a few
/// cache-line-padded shards; Value() sums them (reads are rare).
class Counter {
 public:
  Counter() = default;
  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  void Add(uint64_t n = 1) {
    shards_[ShardIndex()].value.fetch_add(n, std::memory_order_relaxed);
  }

  uint64_t Value() const {
    uint64_t total = 0;
    for (const Shard& s : shards_) {
      total += s.value.load(std::memory_order_relaxed);
    }
    return total;
  }

  void Reset() {
    for (Shard& s : shards_) s.value.store(0, std::memory_order_relaxed);
  }

 private:
  static constexpr size_t kShards = 8;
  struct alignas(64) Shard {
    std::atomic<uint64_t> value{0};
  };

  static size_t ShardIndex() {
    // Distinct threads land on distinct shards with high probability; a
    // collision only costs contention, never correctness.
    static std::atomic<size_t> next{0};
    thread_local size_t index = next.fetch_add(1, std::memory_order_relaxed);
    return index % kShards;
  }

  std::array<Shard, kShards> shards_{};
};

/// Point-in-time signed value.
class Gauge {
 public:
  Gauge() = default;
  Gauge(const Gauge&) = delete;
  Gauge& operator=(const Gauge&) = delete;

  void Set(int64_t v) { value_.store(v, std::memory_order_relaxed); }
  void Add(int64_t n) { value_.fetch_add(n, std::memory_order_relaxed); }
  void MaxOf(int64_t v) {
    int64_t seen = value_.load(std::memory_order_relaxed);
    while (v > seen &&
           !value_.compare_exchange_weak(seen, v, std::memory_order_relaxed)) {
    }
  }
  int64_t Value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

/// Stable summary of one histogram, computed at snapshot time.
struct HistogramStats {
  uint64_t count = 0;
  double sum = 0;
  uint64_t min = 0;
  uint64_t max = 0;
  double p50 = 0;
  double p90 = 0;
  double p99 = 0;
  double p999 = 0;
  /// Occupied buckets as (upper bound, cumulative count ≤ bound) pairs, in
  /// increasing bound order — exactly the shape of a Prometheus
  /// `_bucket{le="..."}` series; empty buckets are elided.
  std::vector<std::pair<uint64_t, uint64_t>> buckets;
  double mean() const { return count == 0 ? 0 : sum / double(count); }
};

/// Log-bucketed histogram over uint64 values with 4 sub-buckets per octave
/// (~12.5% value resolution, enough for one significant digit on latency
/// percentiles). All writes are relaxed atomics; no locks anywhere.
class Histogram {
 public:
  Histogram() = default;
  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  void Record(uint64_t value) {
    buckets_[BucketFor(value)].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(value, std::memory_order_relaxed);
    AtomicMin(&min_, value);
    AtomicMax(&max_, value);
  }

  uint64_t count() const { return count_.load(std::memory_order_relaxed); }

  HistogramStats Stats() const;

  void Reset();

  /// Bucket math, exposed for tests: values 0..7 map to their own bucket;
  /// beyond that, bucket = 8 + 4*(octave-3) + top-2-mantissa-bits.
  static size_t BucketFor(uint64_t value);
  /// Representative (upper-bound) value of a bucket, for percentile
  /// interpolation.
  static uint64_t BucketUpper(size_t bucket);

  static constexpr size_t kNumBuckets = 256;

 private:
  static void AtomicMin(std::atomic<uint64_t>* slot, uint64_t v) {
    uint64_t seen = slot->load(std::memory_order_relaxed);
    while (v < seen && !slot->compare_exchange_weak(
                           seen, v, std::memory_order_relaxed)) {
    }
  }
  static void AtomicMax(std::atomic<uint64_t>* slot, uint64_t v) {
    uint64_t seen = slot->load(std::memory_order_relaxed);
    while (v > seen && !slot->compare_exchange_weak(
                           seen, v, std::memory_order_relaxed)) {
    }
  }

  std::array<std::atomic<uint64_t>, kNumBuckets> buckets_{};
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> sum_{0};
  std::atomic<uint64_t> min_{~uint64_t{0}};
  std::atomic<uint64_t> max_{0};
};

/// Everything the registry knows at one instant. Maps are ordered so
/// exports are stable across snapshots.
struct MetricsSnapshot {
  std::map<std::string, uint64_t> counters;
  std::map<std::string, int64_t> gauges;
  std::map<std::string, HistogramStats> histograms;
};

/// Process-wide instrument registry. Get* registers on first use and
/// returns a stable pointer (instruments are never deleted), so call sites
/// resolve the name once and cache the pointer.
class Registry {
 public:
  static Registry& Default();

  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  Counter* GetCounter(std::string_view name);
  Gauge* GetGauge(std::string_view name);
  Histogram* GetHistogram(std::string_view name);

  /// Registers (or replaces) a gauge evaluated lazily at snapshot time —
  /// for values owned by another object (queue depth, buffer size). The
  /// owner MUST call UnregisterCallback before it is destroyed.
  void RegisterCallback(std::string name, std::function<int64_t()> fn);
  void UnregisterCallback(const std::string& name);

  MetricsSnapshot Snapshot() const;

  /// Zeroes every registered instrument and drops callbacks. Instrument
  /// pointers stay valid. Test isolation only.
  void ResetForTest();

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
  std::map<std::string, std::function<int64_t()>> callbacks_;
};

/// RAII callback-gauge registration (owner lifetime == gauge lifetime).
class ScopedCallbackGauge {
 public:
  ScopedCallbackGauge() = default;
  ScopedCallbackGauge(std::string name, std::function<int64_t()> fn)
      : name_(std::move(name)) {
    Registry::Default().RegisterCallback(name_, std::move(fn));
  }
  ~ScopedCallbackGauge() { Release(); }
  ScopedCallbackGauge(const ScopedCallbackGauge&) = delete;
  ScopedCallbackGauge& operator=(const ScopedCallbackGauge&) = delete;
  ScopedCallbackGauge(ScopedCallbackGauge&& other) noexcept
      : name_(std::move(other.name_)) {
    other.name_.clear();
  }
  ScopedCallbackGauge& operator=(ScopedCallbackGauge&& other) noexcept {
    if (this != &other) {
      Release();
      name_ = std::move(other.name_);
      other.name_.clear();
    }
    return *this;
  }

 private:
  void Release() {
    if (!name_.empty()) Registry::Default().UnregisterCallback(name_);
    name_.clear();
  }
  std::string name_;
};

/// Records elapsed nanoseconds into `hist` when destroyed (pass nullptr to
/// disable). One steady-clock read at each end.
class ScopedLatencyTimer {
 public:
  explicit ScopedLatencyTimer(Histogram* hist);
  ~ScopedLatencyTimer();
  ScopedLatencyTimer(const ScopedLatencyTimer&) = delete;
  ScopedLatencyTimer& operator=(const ScopedLatencyTimer&) = delete;

 private:
  Histogram* const hist_;
  int64_t start_nanos_;
};

/// Prometheus text exposition (one `# TYPE` line + value per instrument;
/// histograms become real Prometheus histograms: cumulative
/// `<name>_bucket{le="..."}` samples from the occupied log-buckets, a
/// closing `le="+Inf"` bucket, then <name>_sum and <name>_count).
std::string RenderPrometheus(const MetricsSnapshot& snapshot);

/// JSON object {"counters":{...},"gauges":{...},"histograms":{...}}.
std::string RenderJson(const MetricsSnapshot& snapshot);

}  // namespace chariots::metrics

#endif  // CHARIOTS_COMMON_METRICS_H_
