#include "common/watchdog.h"

#include <cmath>
#include <utility>

#include "common/flight_recorder.h"
#include "common/logging.h"

namespace chariots {
namespace {

void AppendJsonString(std::string* out, std::string_view s) {
  out->push_back('"');
  for (char c : s) {
    if (c == '"' || c == '\\') out->push_back('\\');
    out->push_back(c);
  }
  out->push_back('"');
}

std::string JsonDouble(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

metrics::Counter* StallsCounter() {
  static metrics::Counter* c =
      metrics::Registry::Default().GetCounter("chariots.health.stalls");
  return c;
}

metrics::Counter* SloBreachesCounter() {
  static metrics::Counter* c =
      metrics::Registry::Default().GetCounter("chariots.health.slo_breaches");
  return c;
}

metrics::Counter* DumpsCounter() {
  static metrics::Counter* c =
      metrics::Registry::Default().GetCounter("chariots.health.dumps");
  return c;
}

uint16_t KindCode(const std::string& kind) {
  if (kind == "progress") return 1;
  if (kind == "queue") return 2;
  if (kind == "latency") return 3;
  if (kind == "rate") return 4;
  return 0;
}

}  // namespace

std::string RenderHealthJson(const HealthReport& report) {
  std::string out = "{\"node\":";
  AppendJsonString(&out, report.node);
  out += ",\"now_nanos\":" + std::to_string(report.now_nanos);
  out += ",\"ticks\":" + std::to_string(report.ticks);
  out += ",\"breaches\":" + std::to_string(report.breaches);
  out += ",\"healthy\":";
  out += report.healthy ? "true" : "false";
  out += ",\"probes\":[";
  bool first = true;
  for (const ProbeReport& p : report.probes) {
    if (!first) out += ",";
    first = false;
    out += "{\"name\":";
    AppendJsonString(&out, p.name);
    out += ",\"kind\":";
    AppendJsonString(&out, p.kind);
    out += ",\"breached\":";
    out += p.breached ? "true" : "false";
    out += ",\"value\":" + JsonDouble(p.value);
    out += ",\"threshold\":" + JsonDouble(p.threshold);
    out += ",\"detail\":";
    AppendJsonString(&out, p.detail);
    out += "}";
  }
  out += "]}";
  return out;
}

/// One registered probe: a closure that evaluates this tick's raw reading
/// (name and trip-count handling belong to the watchdog, not the closure).
struct Watchdog::Probe {
  std::string name;
  std::string kind;
  std::function<ProbeReport()> eval;
  int consecutive = 0;  // consecutive raw-breach ticks
};

Watchdog::Watchdog(Options options) : options_(std::move(options)) {}

Watchdog::~Watchdog() { Stop(); }

void Watchdog::AddProgressProbe(std::string name,
                                std::function<uint64_t()> progress,
                                std::function<bool()> active) {
  Probe probe;
  probe.name = std::move(name);
  probe.kind = "progress";
  probe.eval = [progress = std::move(progress), active = std::move(active),
                prev = uint64_t{0}, seen = false]() mutable {
    ProbeReport r;
    uint64_t cur = progress();
    bool is_active = active == nullptr || active();
    uint64_t delta = cur >= prev ? cur - prev : 0;
    r.value = static_cast<double>(delta);
    r.threshold = 1;  // must advance by at least one step per tick
    r.breached = seen && is_active && delta == 0;
    r.detail = r.breached ? "no progress since last tick (counter at " +
                                std::to_string(cur) + ")"
                          : "advanced " + std::to_string(delta);
    prev = cur;
    seen = true;
    return r;
  };
  InstallProbe(std::move(probe));
}

void Watchdog::AddQueueProbe(std::string name, std::function<uint64_t()> size,
                             uint64_t capacity, double fill_threshold) {
  Probe probe;
  probe.name = std::move(name);
  probe.kind = "queue";
  probe.eval = [size = std::move(size), capacity, fill_threshold] {
    ProbeReport r;
    uint64_t depth = size();
    double fill =
        capacity == 0 ? 0.0 : static_cast<double>(depth) / capacity;
    r.value = fill;
    r.threshold = fill_threshold;
    r.breached = fill >= fill_threshold;
    r.detail = std::to_string(depth) + "/" + std::to_string(capacity) +
               " queued";
    return r;
  };
  InstallProbe(std::move(probe));
}

void Watchdog::AddLatencyProbe(std::string name,
                               const metrics::Histogram* histogram,
                               uint64_t threshold_nanos) {
  Probe probe;
  probe.name = std::move(name);
  probe.kind = "latency";
  probe.eval = [histogram, threshold_nanos, prev_count = uint64_t{0},
                prev_sum = 0.0]() mutable {
    ProbeReport r;
    metrics::HistogramStats stats = histogram->Stats();
    uint64_t dcount = stats.count - prev_count;
    double dsum = stats.sum - prev_sum;
    prev_count = stats.count;
    prev_sum = stats.sum;
    double window_mean = dcount == 0 ? 0.0 : dsum / static_cast<double>(dcount);
    r.value = window_mean;
    r.threshold = static_cast<double>(threshold_nanos);
    r.breached = dcount > 0 && window_mean > static_cast<double>(threshold_nanos);
    r.detail = std::to_string(dcount) + " samples, window mean " +
               std::to_string(static_cast<int64_t>(window_mean)) + " ns";
    return r;
  };
  InstallProbe(std::move(probe));
}

void Watchdog::AddRateProbe(std::string name, std::function<uint64_t()> counter,
                            uint64_t max_delta_per_tick) {
  Probe probe;
  probe.name = std::move(name);
  probe.kind = "rate";
  probe.eval = [counter = std::move(counter), max_delta_per_tick,
                prev = uint64_t{0}, seen = false]() mutable {
    ProbeReport r;
    uint64_t cur = counter();
    uint64_t delta = seen && cur >= prev ? cur - prev : 0;
    prev = cur;
    seen = true;
    r.value = static_cast<double>(delta);
    r.threshold = static_cast<double>(max_delta_per_tick);
    r.breached = delta > max_delta_per_tick;
    r.detail = "+" + std::to_string(delta) + " this tick";
    return r;
  };
  InstallProbe(std::move(probe));
}

void Watchdog::InstallProbe(Probe probe) {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto it = probes_.begin(); it != probes_.end(); ++it) {
    if (it->name == probe.name) {
      *it = std::move(probe);
      return;
    }
  }
  probes_.push_back(std::move(probe));
}

void Watchdog::RemoveProbe(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto it = probes_.begin(); it != probes_.end(); ++it) {
    if (it->name == name) {
      probes_.erase(it);
      return;
    }
  }
}

void Watchdog::Start(Executor* executor) {
  if (executor == nullptr) executor = Executor::Default();
  tick_timer_ = executor->ScheduleEvery(options_.tick_interval_nanos,
                                        [this] { TickOnce(); });
}

void Watchdog::Stop() { tick_timer_.Cancel(); }

HealthReport Watchdog::TickOnce() {
  HealthReport report;
  bool breach_due = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++ticks_;
    report.node = options_.node;
    report.now_nanos = options_.clock != nullptr
                           ? options_.clock->NowNanos()
                           : SystemClock::Default()->NowNanos();
    report.ticks = ticks_;
    for (Probe& probe : probes_) {
      ProbeReport pr = probe.eval();
      pr.name = probe.name;
      pr.kind = probe.kind;
      probe.consecutive = pr.breached ? probe.consecutive + 1 : 0;
      // A single bad tick is noise; `trip_ticks` consecutive ones report.
      pr.breached = probe.consecutive >= options_.trip_ticks;
      if (pr.breached) {
        ++breaches_;
        report.healthy = false;
        (probe.kind == "progress" ? StallsCounter() : SloBreachesCounter())
            ->Add();
        flightrec::Record(flightrec::EventType::kWatchdogBreach,
                          KindCode(probe.kind), 0,
                          static_cast<uint64_t>(pr.value < 0 ? 0 : pr.value),
                          static_cast<uint64_t>(pr.threshold));
        LOG_EVERY_N_SEC(kWarn, 5)
            << "watchdog[" << options_.node << "] " << probe.kind
            << " breach: " << probe.name << " value=" << pr.value
            << " threshold=" << pr.threshold << " (" << pr.detail << ")";
      }
      report.probes.push_back(std::move(pr));
    }
    report.breaches = breaches_;
    last_report_ = report;
    if (!report.healthy) {
      breach_due = !dumped_ || report.now_nanos - last_dump_nanos_ >=
                                   options_.breach_dump_min_interval_nanos;
      if (breach_due) {
        dumped_ = true;
        last_dump_nanos_ = report.now_nanos;
      }
    }
  }
  if (breach_due) {
    // Snapshot first: the breach window is still in the rings right now,
    // and anything else done here (logging, file I/O) records over it.
    std::string dump = flightrec::Recorder::Default().Dump();
    {
      std::lock_guard<std::mutex> lock(mu_);
      last_breach_dump_ = std::move(dump);
    }
    if (!options_.breach_dump_path.empty()) {
      (void)flightrec::Recorder::Default().DumpToFile(
          options_.breach_dump_path);
    }
    DumpsCounter()->Add();
  }
  return report;
}

HealthReport Watchdog::LastReport() const {
  std::lock_guard<std::mutex> lock(mu_);
  return last_report_;
}

uint64_t Watchdog::breaches() const {
  std::lock_guard<std::mutex> lock(mu_);
  return breaches_;
}

std::string Watchdog::LastBreachDump() const {
  std::lock_guard<std::mutex> lock(mu_);
  return last_breach_dump_;
}

void RegisterHealthMetrics() {
  StallsCounter();
  SloBreachesCounter();
  DumpsCounter();
}

}  // namespace chariots
