// Tables 2-5 and Figure 9 of the paper (§7.2) on the real Chariots
// pipeline. Each deployment is one single-datacenter geo::Datacenter with a
// memory store and its stage widths set through ChariotsConfig; one client
// thread per paper client machine keeps kInFlight 512 B appends in flight
// through Datacenter::Append and frees a slot from on_committed. The
// paper's rows read these counters over the measured window (registry
// counters are process-global; one Datacenter runs at a time here):
//
//   Client      acknowledged appends (on_committed), per client thread
//   Batcher     chariots.batcher.records_in       (num_batchers)
//   Filter      chariots.filter.forwarded         (num_filters)
//   Maintainer  chariots.dc0.records_incorporated (num_queues: LId assignment)
//   Store       HeadLid()                         (num_maintainers)
//
// Append latency is Append() to on_committed. Figure 9 is the same
// counters sampled every period during the Table-4 run.
//
// Unlike the paper's testbed, every stage here shares one host and one
// executor, so a stage becomes the bottleneck only when its serialized work
// (a filter strand, the token) saturates; EXPERIMENTS.md says which of the
// paper's shapes hold.

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <semaphore>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench_report.h"
#include "chariots/datacenter.h"
#include "common/clock.h"
#include "common/metrics.h"

namespace {

using namespace chariots;
using namespace chariots::geo;

constexpr int kInFlight = 64;
constexpr size_t kRecordBytes = 512;

struct Deployment {
  const char* name;
  const char* title;
  uint32_t clients, batchers, filters, queues, maintainers;
};

int64_t NowNanos() { return SystemClock::Default()->NowNanos(); }

/// One paper client machine: a closed loop of kInFlight appends.
struct Client {
  std::counting_semaphore<kInFlight> slots{kInFlight};
  std::atomic<uint64_t> acked{0};
  std::mutex mu;
  std::vector<std::pair<int64_t, int64_t>> latency;  // (start, nanos)

  void Run(Datacenter* dc, const std::atomic<bool>* stop) {
    const std::string body(kRecordBytes, 'x');
    while (!stop->load(std::memory_order_relaxed)) {
      slots.acquire();
      const int64_t start = NowNanos();
      dc->Append(body, {}, {}, [this, start](TOId, flstore::LId) {
        const int64_t nanos = NowNanos() - start;
        {
          std::lock_guard<std::mutex> lock(mu);
          latency.emplace_back(start, nanos);
        }
        acked.fetch_add(1, std::memory_order_relaxed);
        slots.release();
      });
    }
  }
};

/// Cumulative counts of every row at one instant.
struct Sample {
  int64_t nanos = 0;
  std::vector<uint64_t> clients;
  uint64_t batcher = 0, filter = 0, assigned = 0, stored = 0;
};

uint64_t CounterValue(const char* name) {
  return metrics::Registry::Default().GetCounter(name)->Value();
}

Sample Take(const Datacenter& dc,
            const std::vector<std::unique_ptr<Client>>& clients) {
  Sample s;
  s.batcher = CounterValue("chariots.batcher.records_in");
  s.filter = CounterValue("chariots.filter.forwarded");
  s.assigned = CounterValue("chariots.dc0.records_incorporated");
  s.stored = dc.HeadLid();
  for (const auto& c : clients) s.clients.push_back(c->acked.load());
  s.nanos = NowNanos();
  return s;
}

struct Row {
  const char* name;
  uint32_t machines;
  double rate;  // records/s over the whole stage
};

std::vector<Row> Rates(const Deployment& d, const Sample& a,
                       const Sample& b) {
  const double secs = (b.nanos - a.nanos) / 1e9;
  auto rate = [secs](uint64_t from, uint64_t to) {
    return static_cast<double>(to - from) / secs;
  };
  uint64_t from = 0, to = 0;
  for (size_t i = 0; i < a.clients.size(); ++i) {
    from += a.clients[i];
    to += b.clients[i];
  }
  return {{"Client", d.clients, rate(from, to)},
          {"Batcher", d.batchers, rate(a.batcher, b.batcher)},
          {"Filter", d.filters, rate(a.filter, b.filter)},
          {"Maintainer", d.queues, rate(a.assigned, b.assigned)},
          {"Store", d.maintainers, rate(a.stored, b.stored)}};
}

int64_t Percentile(std::vector<int64_t>* v, double q) {
  if (v->empty()) return 0;
  std::sort(v->begin(), v->end());
  return (*v)[static_cast<size_t>(q * (v->size() - 1))];
}

/// Runs one deployment and returns its client throughput. Table 2's run
/// supplies the report's latency_ns, and Table 4's run prints Figure 9.
double RunDeployment(const Deployment& d,
                     chariots::bench::BenchReport* report) {
  const bool smoke = chariots::bench::SmokeMode();
  const int64_t warmup = smoke ? 100'000'000 : 500'000'000;
  const int64_t period = smoke ? 50'000'000 : 100'000'000;
  const int periods = smoke ? 8 : 20;

  ChariotsConfig config;
  config.num_batchers = d.batchers;
  config.num_filters = d.filters;
  config.num_queues = d.queues;
  config.num_maintainers = d.maintainers;
  // Drop records every datacenter holds (here: all of them) so a long run
  // does not keep its whole log in memory.
  config.gc_interval_nanos = 50'000'000;
  std::vector<std::unique_ptr<Client>> clients;
  for (uint32_t c = 0; c < d.clients; ++c) {
    clients.push_back(std::make_unique<Client>());
  }
  Datacenter dc(config);
  if (Status s = dc.Start(); !s.ok()) {
    std::fprintf(stderr, "%s: start failed: %s\n", d.name,
                 s.ToString().c_str());
    std::exit(1);
  }

  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  for (auto& c : clients) {
    threads.emplace_back([&dc, &stop, client = c.get()] {
      client->Run(&dc, &stop);
    });
  }
  std::this_thread::sleep_for(std::chrono::nanoseconds(warmup));
  const auto first = std::chrono::steady_clock::now();
  std::vector<Sample> samples = {Take(dc, clients)};
  for (int p = 1; p <= periods; ++p) {
    std::this_thread::sleep_until(first +
                                  std::chrono::nanoseconds(p * period));
    samples.push_back(Take(dc, clients));
  }
  stop.store(true);
  for (auto& t : threads) t.join();
  dc.Stop();

  std::printf("=== %s ===\n", d.title);
  std::printf("%-12s %-9s %-22s %s\n", "Row", "Machines",
              "Stage (Kappends/s)", "Per machine");
  const std::vector<Row> rows = Rates(d, samples.front(), samples.back());
  for (const Row& row : rows) {
    std::printf("%-12s %-9u %-22.1f %.1f\n", row.name, row.machines,
                row.rate / 1e3, row.rate / 1e3 / row.machines);
    report->AddStage(std::string(d.name) + "." + row.name, row.rate);
  }
  const double secs = (samples.back().nanos - samples.front().nanos) / 1e9;
  for (size_t i = 0; i < clients.size(); ++i) {
    std::printf("  client %zu: %.1f Kappends/s\n", i + 1,
                (samples.back().clients[i] - samples.front().clients[i]) /
                    secs / 1e3);
  }

  // Latency of the appends issued inside the measured window.
  std::vector<int64_t> window;
  for (auto& c : clients) {
    for (const auto& [start, nanos] : c->latency) {
      if (start >= samples.front().nanos && start < samples.back().nanos) {
        window.push_back(nanos);
      }
    }
  }
  if (std::string(d.name) == "table2") {
    for (int64_t nanos : window) report->AddLatencyNanos(nanos);
  }
  const double p50 = Percentile(&window, 0.50) / 1e3;
  const double p99 = Percentile(&window, 0.99) / 1e3;
  std::printf("append latency (%d in flight per client): p50 %.0f us, "
              "p99 %.0f us\n",
              kInFlight, p50, p99);
  report->AddExtra(std::string(d.name) + "_p50_us", p50);
  report->AddExtra(std::string(d.name) + "_p99_us", p99);

  if (std::string(d.name) == "table4") {
    std::printf("\n=== Figure 9: per-period rates of the run above "
                "(Kappends/s, %lld ms periods) ===\n",
                static_cast<long long>(period / 1'000'000));
    std::printf("%-8s %-10s %-10s %-10s %-11s %s\n", "t (s)", "Clients",
                "Batchers", "Filter", "Maintainer", "Store");
    for (size_t i = 1; i < samples.size(); ++i) {
      std::vector<Row> r = Rates(d, samples[i - 1], samples[i]);
      std::printf("%-8.2f %-10.1f %-10.1f %-10.1f %-11.1f %.1f\n",
                  (samples[i].nanos - samples[0].nanos) / 1e9,
                  r[0].rate / 1e3, r[1].rate / 1e3, r[2].rate / 1e3,
                  r[3].rate / 1e3, r[4].rate / 1e3);
    }
    report->AddExtra("fig9_periods", static_cast<double>(periods));
  }
  std::printf("\n");
  return rows[0].rate;
}

}  // namespace

int main() {
  const Deployment deployments[] = {
      {"table2", "Table 2: one machine per stage", 1, 1, 1, 1, 1},
      {"table3", "Table 3: two clients, one machine per other stage", 2, 1,
       1, 1, 1},
      {"table4", "Table 4: two clients, two batchers, one of each later "
                 "stage",
       2, 2, 1, 1, 1},
      {"table5", "Table 5: two machines in every stage", 2, 2, 2, 2, 2},
  };
  chariots::bench::BenchReport report("pipeline_shapes");
  double best = 0;
  for (const Deployment& d : deployments) {
    best = std::max(best, RunDeployment(d, &report));
  }
  std::printf("Paper shapes: Table 2 client-limited (~124-132K at every "
              "stage); Table 3 batcher-bound; Table 4 filter-bound; Table 5 "
              "every stage doubles.\n");
  report.SetThroughput(best);
  if (!report.Write()) return 1;
  return 0;
}
