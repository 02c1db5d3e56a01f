#include "common/metrics.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <sstream>

namespace chariots::metrics {
namespace {

int64_t NowNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// JSON string escaping for metric names (which may only contain [a-z0-9._]
// by convention, but render defensively anyway).
void AppendJsonString(std::string* out, std::string_view s) {
  out->push_back('"');
  for (char c : s) {
    switch (c) {
      case '"':
        out->append("\\\"");
        break;
      case '\\':
        out->append("\\\\");
        break;
      case '\n':
        out->append("\\n");
        break;
      case '\t':
        out->append("\\t");
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out->append(buf);
        } else {
          out->push_back(c);
        }
    }
  }
  out->push_back('"');
}

std::string JsonNumber(double v) {
  if (std::isnan(v) || std::isinf(v)) return "0";
  // Integral values print without a fractional part for readability.
  if (v == std::floor(v) && std::fabs(v) < 9.0e15) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.0f", v);
    return buf;
  }
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

// Prometheus metric names allow [a-zA-Z0-9_:]; our dotted names map dots
// (and anything else) to underscores.
std::string PromName(std::string_view name) {
  std::string out;
  out.reserve(name.size());
  for (char c : name) {
    bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
              (c >= '0' && c <= '9') || c == '_' || c == ':';
    out.push_back(ok ? c : '_');
  }
  return out;
}

}  // namespace

size_t Histogram::BucketFor(uint64_t value) {
  if (value < 8) return static_cast<size_t>(value);
  // Octave = index of the highest set bit (>= 3 here). Within an octave we
  // keep the next 2 mantissa bits: 4 sub-buckets per power of two.
  int exp = 63 - __builtin_clzll(value);
  size_t sub = static_cast<size_t>((value >> (exp - 2)) & 0x3);
  size_t bucket = 8 + static_cast<size_t>(exp - 3) * 4 + sub;
  return std::min(bucket, kNumBuckets - 1);
}

uint64_t Histogram::BucketUpper(size_t bucket) {
  if (bucket < 8) return static_cast<uint64_t>(bucket);
  size_t rel = bucket - 8;
  int exp = static_cast<int>(rel / 4) + 3;
  uint64_t sub = rel % 4;
  if (exp >= 63) return ~uint64_t{0};
  // Upper edge of the sub-bucket: (1 + (sub+1)/4) * 2^exp, minus one.
  return (uint64_t{1} << exp) + ((sub + 1) << (exp - 2)) - 1;
}

uint64_t Histogram::count() const {
  uint64_t total = 0;
  for (const Shard& s : shards_) total += s.count.load(std::memory_order_relaxed);
  return total;
}

HistogramStats Histogram::Stats() const {
  HistogramStats out;
  // Merge the shards' buckets first; count/sum may drift slightly vs. the
  // copy under concurrent writes, so recompute the total from the copy for
  // quantiles.
  std::array<uint64_t, kNumBuckets> counts{};
  uint64_t sum = 0;
  uint64_t mn = ~uint64_t{0};
  uint64_t mx = 0;
  for (const Shard& s : shards_) {
    for (size_t i = 0; i < kNumBuckets; ++i) {
      counts[i] += s.buckets[i].load(std::memory_order_relaxed);
    }
    sum += s.sum.load(std::memory_order_relaxed);
    mn = std::min(mn, s.min.load(std::memory_order_relaxed));
    mx = std::max(mx, s.max.load(std::memory_order_relaxed));
  }
  uint64_t total = 0;
  for (uint64_t c : counts) total += c;
  out.count = total;
  out.sum = static_cast<double>(sum);
  if (total == 0) return out;
  out.min = (mn == ~uint64_t{0}) ? 0 : mn;
  out.max = mx;
  uint64_t cumulative = 0;
  for (size_t i = 0; i < kNumBuckets; ++i) {
    if (counts[i] == 0) continue;
    cumulative += counts[i];
    out.buckets.emplace_back(BucketUpper(i), cumulative);
  }

  auto quantile = [&](double q) -> double {
    uint64_t rank = static_cast<uint64_t>(q * static_cast<double>(total - 1));
    uint64_t seen = 0;
    for (size_t i = 0; i < kNumBuckets; ++i) {
      seen += counts[i];
      if (seen > rank) {
        double v = static_cast<double>(BucketUpper(i));
        return std::min(v, static_cast<double>(out.max));
      }
    }
    return static_cast<double>(out.max);
  };
  out.p50 = quantile(0.50);
  out.p90 = quantile(0.90);
  out.p99 = quantile(0.99);
  out.p999 = quantile(0.999);
  return out;
}

void Histogram::Reset() {
  for (Shard& s : shards_) {
    for (auto& b : s.buckets) b.store(0, std::memory_order_relaxed);
    s.count.store(0, std::memory_order_relaxed);
    s.sum.store(0, std::memory_order_relaxed);
    s.min.store(~uint64_t{0}, std::memory_order_relaxed);
    s.max.store(0, std::memory_order_relaxed);
  }
}

Registry& Registry::Default() {
  static Registry* r = new Registry();  // leaked: outlives static teardown
  return *r;
}

Counter* Registry::GetCounter(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(std::string(name), std::make_unique<Counter>())
             .first;
  }
  return it->second.get();
}

Gauge* Registry::GetGauge(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_.emplace(std::string(name), std::make_unique<Gauge>()).first;
  }
  return it->second.get();
}

Histogram* Registry::GetHistogram(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_.emplace(std::string(name), std::make_unique<Histogram>())
             .first;
  }
  return it->second.get();
}

void Registry::RegisterCallback(std::string name, std::function<int64_t()> fn) {
  std::lock_guard<std::mutex> lock(mu_);
  callbacks_[std::move(name)] = std::move(fn);
}

void Registry::UnregisterCallback(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  callbacks_.erase(name);
}

MetricsSnapshot Registry::Snapshot() const {
  // Copy callbacks under the lock, evaluate them outside it: a callback may
  // itself touch the registry (e.g. a queue-depth lambda reading a gauge).
  std::map<std::string, std::function<int64_t()>> callbacks;
  MetricsSnapshot out;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& [name, c] : counters_) out.counters[name] = c->Value();
    for (const auto& [name, g] : gauges_) out.gauges[name] = g->Value();
    for (const auto& [name, h] : histograms_) {
      out.histograms[name] = h->Stats();
    }
    callbacks = callbacks_;
  }
  for (const auto& [name, fn] : callbacks) out.gauges[name] = fn();
  return out;
}

void Registry::ResetForTest() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, c] : counters_) c->Reset();
  for (auto& [name, g] : gauges_) g->Reset();
  for (auto& [name, h] : histograms_) h->Reset();
  callbacks_.clear();
}

ScopedLatencyTimer::ScopedLatencyTimer(Histogram* hist)
    : hist_(hist), start_nanos_(hist ? NowNanos() : 0) {}

ScopedLatencyTimer::~ScopedLatencyTimer() {
  if (hist_ == nullptr) return;
  int64_t elapsed = NowNanos() - start_nanos_;
  hist_->Record(elapsed > 0 ? static_cast<uint64_t>(elapsed) : 0);
}

std::string RenderPrometheus(const MetricsSnapshot& snapshot) {
  std::string out;
  out.reserve(4096);
  for (const auto& [name, value] : snapshot.counters) {
    std::string p = PromName(name);
    out += "# TYPE " + p + " counter\n";
    out += p + " " + std::to_string(value) + "\n";
  }
  for (const auto& [name, value] : snapshot.gauges) {
    std::string p = PromName(name);
    out += "# TYPE " + p + " gauge\n";
    out += p + " " + std::to_string(value) + "\n";
  }
  for (const auto& [name, stats] : snapshot.histograms) {
    std::string p = PromName(name);
    out += "# TYPE " + p + " histogram\n";
    for (const auto& [upper, cumulative] : stats.buckets) {
      out += p + "_bucket{le=\"" + std::to_string(upper) + "\"} " +
             std::to_string(cumulative) + "\n";
    }
    out += p + "_bucket{le=\"+Inf\"} " + std::to_string(stats.count) + "\n";
    out += p + "_sum " + JsonNumber(stats.sum) + "\n";
    out += p + "_count " + std::to_string(stats.count) + "\n";
    // Precomputed quantiles alongside the buckets, so dashboards get tails
    // without a histogram_quantile() query (and without its interpolation
    // error — these come from the same log-bucket estimate as RenderJson).
    out += p + "{quantile=\"0.5\"} " + JsonNumber(stats.p50) + "\n";
    out += p + "{quantile=\"0.9\"} " + JsonNumber(stats.p90) + "\n";
    out += p + "{quantile=\"0.99\"} " + JsonNumber(stats.p99) + "\n";
    out += p + "{quantile=\"0.999\"} " + JsonNumber(stats.p999) + "\n";
  }
  return out;
}

std::string RenderJson(const MetricsSnapshot& snapshot) {
  std::string out;
  out.reserve(4096);
  out += "{\"counters\":{";
  bool first = true;
  for (const auto& [name, value] : snapshot.counters) {
    if (!first) out += ",";
    first = false;
    AppendJsonString(&out, name);
    out += ":" + std::to_string(value);
  }
  out += "},\"gauges\":{";
  first = true;
  for (const auto& [name, value] : snapshot.gauges) {
    if (!first) out += ",";
    first = false;
    AppendJsonString(&out, name);
    out += ":" + std::to_string(value);
  }
  out += "},\"histograms\":{";
  first = true;
  for (const auto& [name, stats] : snapshot.histograms) {
    if (!first) out += ",";
    first = false;
    AppendJsonString(&out, name);
    out += ":{\"count\":" + std::to_string(stats.count);
    out += ",\"sum\":" + JsonNumber(stats.sum);
    out += ",\"min\":" + std::to_string(stats.min);
    out += ",\"max\":" + std::to_string(stats.max);
    out += ",\"mean\":" + JsonNumber(stats.mean());
    out += ",\"p50\":" + JsonNumber(stats.p50);
    out += ",\"p90\":" + JsonNumber(stats.p90);
    out += ",\"p99\":" + JsonNumber(stats.p99);
    out += ",\"p999\":" + JsonNumber(stats.p999);
    out += ",\"buckets\":[";
    for (size_t i = 0; i < stats.buckets.size(); ++i) {
      if (i > 0) out += ",";
      out += "[" + std::to_string(stats.buckets[i].first) + "," +
             std::to_string(stats.buckets[i].second) + "]";
    }
    out += "]}";
  }
  out += "}}";
  return out;
}

}  // namespace chariots::metrics
