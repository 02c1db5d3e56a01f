// Micro-benchmarks (google-benchmark) for the hot paths under the paper's
// numbers: record codecs, CRC, storage append, striping math, index lookup,
// the queue admission step, an in-process RPC and a histogram record.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "bench_report.h"
#include "chariots/queue.h"
#include "chariots/record.h"
#include "common/codec.h"
#include "common/crc32c.h"
#include "common/flight_recorder.h"
#include "common/metrics.h"
#include "flstore/indexer.h"
#include "flstore/maintainer.h"
#include "flstore/striping.h"
#include "net/inproc_transport.h"
#include "net/rpc.h"
#include "storage/log_store.h"

namespace {

using namespace chariots;

void BM_Crc32c(benchmark::State& state) {
  std::string data(state.range(0), 'x');
  for (auto _ : state) {
    benchmark::DoNotOptimize(crc32c::Value(data));
  }
  state.SetBytesProcessed(state.iterations() * data.size());
}
BENCHMARK(BM_Crc32c)->Arg(64)->Arg(512)->Arg(4096);

void BM_Crc32cPortable(benchmark::State& state) {
  std::string data(state.range(0), 'x');
  for (auto _ : state) {
    benchmark::DoNotOptimize(crc32c::ExtendPortable(0, data.data(), data.size()));
  }
  state.SetBytesProcessed(state.iterations() * data.size());
}
BENCHMARK(BM_Crc32cPortable)->Arg(64)->Arg(512)->Arg(4096);

void BM_GeoRecordEncode(benchmark::State& state) {
  geo::GeoRecord record;
  record.host = 2;
  record.toid = 12345;
  record.deps = {10, 20, 30};
  record.body.assign(512, 'b');
  record.tags = {{"key", "value"}};
  for (auto _ : state) {
    benchmark::DoNotOptimize(geo::EncodeGeoRecord(record));
  }
}
BENCHMARK(BM_GeoRecordEncode);

void BM_GeoRecordDecode(benchmark::State& state) {
  geo::GeoRecord record;
  record.body.assign(512, 'b');
  record.deps = {1, 2, 3};
  std::string encoded = geo::EncodeGeoRecord(record);
  for (auto _ : state) {
    benchmark::DoNotOptimize(geo::DecodeGeoRecord(encoded));
  }
}
BENCHMARK(BM_GeoRecordDecode);

void BM_LogStoreAppendMemory(benchmark::State& state) {
  storage::LogStoreOptions options;
  options.mode = storage::SyncMode::kMemoryOnly;
  storage::LogStore store(options);
  (void)store.Open();
  std::string payload(512, 'p');
  uint64_t lid = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(store.Append(lid++, payload));
    // Bound resident data so the benchmark measures the append path, not
    // allocator pressure from an ever-growing store.
    if ((lid & 0xffff) == 0) (void)store.TruncateBelow(lid);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LogStoreAppendMemory);

void BM_LogStoreAppendDisk(benchmark::State& state) {
  auto dir = std::filesystem::temp_directory_path() / "chariots_bench_store";
  std::filesystem::remove_all(dir);
  storage::LogStoreOptions options;
  options.dir = dir.string();
  options.mode = storage::SyncMode::kBuffered;
  storage::LogStore store(options);
  (void)store.Open();
  std::string payload(512, 'p');
  uint64_t lid = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(store.Append(lid++, payload));
    if ((lid & 0xffff) == 0) (void)store.TruncateBelow(lid);
  }
  state.SetItemsProcessed(state.iterations());
  std::filesystem::remove_all(dir);
}
BENCHMARK(BM_LogStoreAppendDisk);

void BM_MaintainerPostAssignAppend(benchmark::State& state) {
  flstore::MaintainerOptions options;
  options.index = 0;
  options.journal = flstore::EpochJournal(4, 1000);
  options.store.mode = storage::SyncMode::kMemoryOnly;
  flstore::LogMaintainer maintainer(options);
  (void)maintainer.Open();
  flstore::LogRecord record;
  record.body.assign(512, 'r');
  uint64_t n = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(maintainer.Append(record));
    if ((++n & 0xffff) == 0) {
      (void)maintainer.TruncateBelow(flstore::kInvalidLId - 1);
    }
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MaintainerPostAssignAppend);

void BM_LogStoreAppendBatchDisk(benchmark::State& state) {
  auto dir = std::filesystem::temp_directory_path() / "chariots_bench_batch";
  std::filesystem::remove_all(dir);
  storage::LogStoreOptions options;
  options.dir = dir.string();
  options.mode = storage::SyncMode::kBuffered;
  storage::LogStore store(options);
  (void)store.Open();
  std::string payload(512, 'p');
  const size_t batch = static_cast<size_t>(state.range(0));
  std::vector<storage::AppendEntry> entries(batch);
  uint64_t lid = 0;
  // No periodic TruncateBelow here: dropping a full segment appends one
  // tombstone frame per dropped record, and that storm (not the append
  // path) would dominate the longer runs. Arg(1) is the per-record baseline
  // under the identical harness; /tmp growth is bounded by run time and the
  // directory is removed at the end.
  for (auto _ : state) {
    for (size_t i = 0; i < batch; ++i) entries[i] = {lid++, payload};
    benchmark::DoNotOptimize(store.AppendBatch(entries));
  }
  state.SetItemsProcessed(state.iterations() * batch);
  std::filesystem::remove_all(dir);
}
BENCHMARK(BM_LogStoreAppendBatchDisk)->Arg(1)->Arg(32)->Arg(256);

void BM_MaintainerAppendBatch(benchmark::State& state) {
  flstore::MaintainerOptions options;
  options.index = 0;
  options.journal = flstore::EpochJournal(4, 1000);
  options.store.mode = storage::SyncMode::kMemoryOnly;
  flstore::LogMaintainer maintainer(options);
  (void)maintainer.Open();
  flstore::LogRecord record;
  record.body.assign(512, 'r');
  const size_t batch = static_cast<size_t>(state.range(0));
  std::vector<flstore::LogRecord> records(batch, record);
  uint64_t n = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(maintainer.AppendBatch(records));
    n += batch;
    if (n >= 0x10000) {
      n = 0;
      (void)maintainer.TruncateBelow(flstore::kInvalidLId - 1);
    }
  }
  state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_MaintainerAppendBatch)->Arg(1)->Arg(32)->Arg(256);

void BM_StripingMaintainerFor(benchmark::State& state) {
  flstore::EpochJournal journal(5, 1000);
  (void)journal.AddEpoch({1'000'000, 6, 1000});
  uint64_t lid = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(journal.MaintainerFor(lid));
    lid += 997;
  }
}
BENCHMARK(BM_StripingMaintainerFor);

void BM_IndexerLookup(benchmark::State& state) {
  flstore::Indexer indexer;
  for (uint64_t lid = 0; lid < 100'000; ++lid) {
    indexer.Add("key" + std::to_string(lid % 1000), "v", lid);
  }
  flstore::IndexQuery query;
  query.key = "key500";
  query.limit = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(indexer.Lookup(query));
  }
}
BENCHMARK(BM_IndexerLookup);

void BM_FlightRecorderRecord(benchmark::State& state) {
  // One structured event into the per-thread seqlock ring — the cost every
  // instrumented hot-path call site pays. Compiles to nothing under
  // -DCHARIOTS_DISABLE_FLIGHTREC (tools/check_flightrec_overhead.sh
  // compares the two builds).
  uint64_t n = 0;
  for (auto _ : state) {
    flightrec::Record(flightrec::EventType::kAppend, 0, 0, n++, 512);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FlightRecorderRecord);

void BM_QueueTokenAdmission(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    geo::Token token(1);
    geo::GeoQueue queue(0, [](std::vector<geo::GeoRecord> run) {
      benchmark::DoNotOptimize(run.data());
    });
    for (geo::TOId t = 1; t <= 1000; ++t) {
      geo::GeoRecord r;
      r.host = 0;
      r.toid = t;
      queue.Enqueue(std::move(r));
    }
    state.ResumeTiming();
    benchmark::DoNotOptimize(queue.ProcessToken(&token));
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_QueueTokenAdmission);

void BM_InProcCall(benchmark::State& state) {
  // One empty request and its response over the in-process transport,
  // handled in line: the hop an FLStore op crosses several times. Thread i
  // calls from its own session node into one maintainer node, as FLStore
  // sessions do, so Threads(2) shows what two callers of one node share.
  struct Cluster {
    net::InProcTransport transport;
    net::RpcEndpoint server{&transport, "dc0/maintainer/0"};
    std::vector<std::unique_ptr<net::RpcEndpoint>> sessions;
    Cluster() {
      (void)server.Handle(
          1,
          [](const net::NodeId&, const std::string&) -> Result<std::string> {
            return std::string();
          },
          net::RpcEndpoint::Dispatch::kInline);
      (void)server.Start();
      for (int i = 0; i < 2; ++i) {
        sessions.push_back(std::make_unique<net::RpcEndpoint>(
            &transport, "dc0/client/session" + std::to_string(i)));
        (void)sessions.back()->Start();
      }
    }
  };
  static Cluster cluster;
  net::RpcEndpoint& session = *cluster.sessions[state.thread_index()];
  for (auto _ : state) {
    benchmark::DoNotOptimize(session.Call("dc0/maintainer/0", 1, {}));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_InProcCall)->Threads(1)->Threads(2);

void BM_HistogramRecord(benchmark::State& state) {
  // One latency sample into a histogram every thread records into, like
  // net.rpc.call_latency_ns under concurrent callers.
  static metrics::Histogram histogram;
  uint64_t value = static_cast<uint64_t>(state.thread_index()) + 1;
  for (auto _ : state) {
    histogram.Record(value);
    value = value * 3 % 1'000'003;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HistogramRecord)->Threads(1)->Threads(2);

// Console output stays the familiar google-benchmark table; this reporter
// additionally folds every iteration run into the uniform BENCH_micro.json
// (stage rate = items/s when the benchmark sets it, else iterations/s).
class JsonCaptureReporter : public benchmark::ConsoleReporter {
 public:
  explicit JsonCaptureReporter(chariots::bench::BenchReport* report)
      : report_(report) {}

  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      if (run.run_type != Run::RT_Iteration || run.error_occurred) continue;
      double rate = 0;
      auto it = run.counters.find("items_per_second");
      if (it != run.counters.end()) {
        rate = it->second.value;
      } else if (run.real_accumulated_time > 0) {
        rate = static_cast<double>(run.iterations) /
               run.real_accumulated_time;
      }
      report_->AddStage(run.benchmark_name(), rate);
      if (run.iterations > 0 && run.real_accumulated_time > 0) {
        report_->AddExtra("ns_per_op_" + run.benchmark_name(),
                          run.real_accumulated_time * 1e9 /
                              static_cast<double>(run.iterations));
      }
      best_rate_ = std::max(best_rate_, rate);
    }
    ConsoleReporter::ReportRuns(runs);
  }

  double best_rate() const { return best_rate_; }

 private:
  chariots::bench::BenchReport* report_;
  double best_rate_ = 0;
};

}  // namespace

int main(int argc, char** argv) {
  std::vector<char*> args(argv, argv + argc);
  std::string min_time = "--benchmark_min_time=0.01";
  if (chariots::bench::SmokeMode()) args.push_back(min_time.data());
  int args_count = static_cast<int>(args.size());
  benchmark::Initialize(&args_count, args.data());

  chariots::bench::BenchReport report("micro");
  JsonCaptureReporter reporter(&report);
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();

  report.SetThroughput(reporter.best_rate());
  if (!report.Write()) return 1;
  return 0;
}
