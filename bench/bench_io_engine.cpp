// I/O engine sweep (ISSUE 10): LogStore disk append throughput for every
// engine × batch size × sync mode combination, plus the datapath copy
// audit. This is the acceptance bench for the zero-copy datapath:
//
//   * `uring_vs_sync_batch32` — io_uring over sync-engine speedup for the
//     batch-32 *durable* append path (group commit: every batch must reach
//     the device before it is acked — the only legs where bytes actually
//     hit disk inside the timed window; the kBuffered legs write dirty pages
//     that are dropped when the file is removed, so they measure the page
//     cache, and are reported as `uring_vs_sync_batch32_buffered`).
//     ISSUE 10 targets 2.0; what this bench can show is bounded by the
//     host — the engines share the CRC pass, the in-kernel page-cache
//     copy, and the device flush, and only the sync engine's extra
//     user-space flatten pass differs, so on a single-vCPU VM the honest
//     ratio lands well under 2 (see EXPERIMENTS.md for the measured
//     number and the accounting).
//   * `copies_per_record` — bytes-weighted user-space copies per payload
//     byte through encode → slice chain, from the chariots.net counters.
//     The budget is the single EncodeGeoRecord serialization; slice chains
//     must borrow everything else. Target: <= 1.2.
//   * `storage_copy_fraction_<engine>` — storage.io.bytes_copied over
//     bytes_written for an append pass under that engine: ~1 for the
//     flattening sync engine, ~0 for vectored io_uring. This is the
//     structural zero-copy claim, and unlike wall-clock ratios it is
//     hardware-independent.
//
// Each config writes into a fresh directory. Buffered legs are bounded by
// a byte budget and take the best of N trials (shared-VM noise); durable
// legs run long enough (512 MiB) to reach writeback steady state, with a
// few untimed warm-up batches so journal/extent warm-up doesn't pollute
// short legs.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include "bench_report.h"
#include "chariots/record.h"
#include "common/metrics.h"
#include "net/message.h"
#include "storage/io_engine.h"
#include "storage/log_store.h"

namespace {

using namespace chariots;

int64_t NowNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct RunResult {
  double rate_rps = 0;                  // records per second
  std::vector<int64_t> batch_nanos;     // one sample per AppendBatch
};

// Appends `payload_bytes`-sized records in batches of `batch` under the
// given engine/sync mode until the budget is exhausted; returns records/sec
// over the timed appends only (store setup/teardown excluded).
RunResult RunAppendPass(storage::IoEngine* engine, size_t batch,
                        storage::SyncMode mode, size_t payload_bytes,
                        uint64_t byte_budget, uint64_t max_batches,
                        uint64_t warmup_batches = 0) {
  auto dir = std::filesystem::temp_directory_path() /
             ("chariots_bench_io_" + std::string(engine->name()));
  std::filesystem::remove_all(dir);
  storage::LogStoreOptions options;
  options.dir = dir.string();
  options.mode = mode;
  options.io_engine = engine;
  // One segment per pass: rotation mid-run would charge file creation to
  // the append path being measured.
  options.segment_bytes = byte_budget * 2 + (64u << 20);
  storage::LogStore store(options);
  if (!store.Open().ok()) {
    std::fprintf(stderr, "bench_io_engine: cannot open store in %s\n",
                 options.dir.c_str());
    return {};
  }
  std::string payload(payload_bytes, 'z');
  std::vector<storage::AppendEntry> entries(batch);
  RunResult result;
  uint64_t lid = 0, written = 0, batches = 0;
  // Untimed warm-up: the first few fsyncs pay journal/extent warm-up costs
  // that would otherwise dominate short durable legs.
  for (uint64_t w = 0; w < warmup_batches; ++w) {
    for (size_t i = 0; i < batch; ++i) entries[i] = {lid++, payload};
    if (!store.AppendBatch(entries).ok()) break;
  }
  const uint64_t first_timed_lid = lid;
  int64_t start = NowNanos();
  while (written < byte_budget && batches < max_batches) {
    for (size_t i = 0; i < batch; ++i) entries[i] = {lid++, payload};
    int64_t t0 = NowNanos();
    if (!store.AppendBatch(entries).ok()) break;
    result.batch_nanos.push_back(NowNanos() - t0);
    written += batch * payload_bytes;
    ++batches;
  }
  int64_t elapsed = NowNanos() - start;
  (void)store.Close();
  std::filesystem::remove_all(dir);
  if (elapsed > 0) {
    result.rate_rps = static_cast<double>(lid - first_timed_lid) * 1e9 /
                      static_cast<double>(elapsed);
  }
  return result;
}

// Drives payload bytes through the real encode path — GeoRecord
// serialization into a Message slice chain — and returns user-space copies
// per payload byte from the chariots.net counters. The geo serialization
// itself is the one budgeted copy; the slice chain must borrow the encoded
// payload (it is far above kInlineMessagePayloadBytes), so the honest
// answer is ~1.0.
double MeasureCopiesPerRecord(size_t records, size_t body_bytes) {
  auto& reg = metrics::Registry::Default();
  auto* entered = reg.GetCounter("chariots.net.payload_bytes_entered");
  auto* copied = reg.GetCounter("chariots.net.payload_bytes_copied");
  uint64_t e0 = entered->Value(), c0 = copied->Value();
  std::string body(body_bytes, 'g');
  for (size_t i = 0; i < records; ++i) {
    geo::GeoRecord record;
    record.host = 1;
    record.toid = i + 1;
    record.deps = {0, static_cast<geo::TOId>(i)};
    record.body = body;
    net::Message msg;
    msg.from = "bench";
    msg.to = "store";
    msg.type = 7;
    msg.payload = geo::EncodeGeoRecord(record);
    SliceChain chain = net::EncodeMessageSlices(std::move(msg));
    if (chain.size() == 0) return -1;  // unreachable; defeats elision
  }
  uint64_t de = entered->Value() - e0, dc = copied->Value() - c0;
  return de == 0 ? -1 : static_cast<double>(dc) / static_cast<double>(de);
}

// Best rate over `trials` passes — page-cache appends are fast enough that
// a single pass is at the mercy of background writeback from earlier
// configs; the max is the stable, comparable number.
RunResult BestOf(int trials, storage::IoEngine* engine, size_t batch,
                 storage::SyncMode mode, size_t payload_bytes,
                 uint64_t byte_budget, uint64_t max_batches,
                 uint64_t warmup_batches = 0) {
  RunResult best;
  for (int i = 0; i < trials; ++i) {
    RunResult run = RunAppendPass(engine, batch, mode, payload_bytes,
                                  byte_budget, max_batches, warmup_batches);
    if (run.rate_rps > best.rate_rps) best = std::move(run);
  }
  return best;
}

// storage.io.bytes_copied / bytes_written for one append pass under
// `engine` — how much of what hit the disk went through a user-space
// staging copy first.
double MeasureStorageCopyFraction(storage::IoEngine* engine,
                                  size_t payload_bytes, uint64_t budget) {
  auto& reg = metrics::Registry::Default();
  auto* written = reg.GetCounter("chariots.storage.io.bytes_written");
  auto* copied = reg.GetCounter("chariots.storage.io.bytes_copied");
  uint64_t w0 = written->Value(), c0 = copied->Value();
  (void)RunAppendPass(engine, 32, storage::SyncMode::kBuffered, payload_bytes,
                      budget, ~0ull);
  uint64_t dw = written->Value() - w0, dc = copied->Value() - c0;
  return dw == 0 ? -1 : static_cast<double>(dc) / static_cast<double>(dw);
}

}  // namespace

int main() {
  const bool smoke = bench::SmokeMode();
  // 128 KiB records: batch 32 is then 4 MiB per durable append — well past
  // L2, where the sync engine's flatten is a full extra memory-bandwidth
  // pass over every byte (and leaves the page cache cold for the flush that
  // follows), so the vectored engine's advantage is structural, not cache
  // luck. Overridable for experiments.
  size_t kPayloadBytes = 128 << 10;
  if (const char* v = std::getenv("CHARIOTS_BENCH_RECORD_BYTES");
      v != nullptr && v[0] != '\0') {
    kPayloadBytes = static_cast<size_t>(std::strtoull(v, nullptr, 10));
  }
  const uint64_t kByteBudget = smoke ? (8ull << 20) : (96ull << 20);
  // Durable legs are sized in *bytes*, and deliberately long (512 MiB):
  // short fsync legs fit inside the device's burst window and the engines
  // tie; the interesting number is sustained writeback steady state. A few
  // untimed warm-up batches absorb journal/extent warm-up.
  const uint64_t kSyncByteBudget = smoke ? (16ull << 20) : (512ull << 20);
  const uint64_t kSyncWarmup = smoke ? 1 : 4;
  const int kTrials = smoke ? 1 : 3;

  std::vector<storage::IoEngine*> engines = {storage::SyncIoEngine()};
  if (storage::IoUringAvailable()) engines.push_back(storage::UringIoEngine());

  std::printf("=== I/O engine sweep: %zu-byte records, %s ===\n",
              kPayloadBytes, smoke ? "smoke budget" : "full budget");
  std::printf("io_uring: %s\n\n",
              storage::IoUringAvailable() ? "available" : "UNAVAILABLE (sync only)");
  std::printf("%-8s %-8s %-10s %-22s\n", "Engine", "Batch", "Sync", "Records/s");

  bench::BenchReport report("io_engine");
  const std::vector<size_t> batches = smoke ? std::vector<size_t>{1, 32}
                                            : std::vector<size_t>{1, 8, 32, 256};
  double sync_b32 = 0, uring_b32 = 0;          // durable (group commit)
  double sync_b32_buf = 0, uring_b32_buf = 0;  // buffered (page cache only)
  double best = 0;
  for (storage::IoEngine* engine : engines) {
    for (size_t batch : batches) {
      for (auto [mode, label] :
           {std::pair{storage::SyncMode::kBuffered, "nosync"},
            std::pair{storage::SyncMode::kFsyncEach, "group"}}) {
        const bool fsyncs = mode == storage::SyncMode::kFsyncEach;
        // Best-of-N everywhere: on a shared VM a single pass is at the
        // mercy of neighbors and background writeback.
        const uint64_t batch_bytes = batch * kPayloadBytes;
        // Cap the per-batch-size durable leg at 128 batches so the small
        // batch sizes (fsync-latency-bound, not bandwidth-bound) don't
        // take minutes to burn the byte budget.
        const uint64_t sync_batches =
            std::max<uint64_t>(8, std::min<uint64_t>(
                                      128, kSyncByteBudget / batch_bytes));
        RunResult run =
            fsyncs ? BestOf(kTrials, engine, batch, mode, kPayloadBytes,
                            ~0ull, sync_batches, kSyncWarmup)
                   : BestOf(kTrials, engine, batch, mode, kPayloadBytes,
                            kByteBudget, ~0ull);
        std::printf("%-8s %-8zu %-10s %-22.0f\n", engine->name(), batch,
                    label, run.rate_rps);
        std::string stage = std::string(engine->name()) + "_b" +
                            std::to_string(batch) + "_" + label;
        report.AddStage(stage, run.rate_rps);
        if (run.rate_rps > best) best = run.rate_rps;
        if (batch == 32) {
          const bool uring = std::string(engine->name()) == "uring";
          if (fsyncs) {
            (uring ? uring_b32 : sync_b32) = run.rate_rps;
            // Durable batch-32 append latency is the headline latency.
            if (uring) {
              for (int64_t ns : run.batch_nanos) report.AddLatencyNanos(ns);
            }
          } else {
            (uring ? uring_b32_buf : sync_b32_buf) = run.rate_rps;
          }
        }
      }
    }
  }

  double copies = MeasureCopiesPerRecord(smoke ? 2'000 : 20'000, 2048);
  double sync_frac = MeasureStorageCopyFraction(
      storage::SyncIoEngine(), kPayloadBytes, smoke ? (4ull << 20) : (32ull << 20));
  report.SetThroughput(best);
  report.AddExtra("uring_available",
                  storage::IoUringAvailable() ? 1.0 : 0.0);
  report.AddExtra("record_bytes", static_cast<double>(kPayloadBytes));
  report.AddExtra("copies_per_record", copies);
  report.AddExtra("storage_copy_fraction_sync", sync_frac);
  if (storage::IoUringAvailable()) {
    double uring_frac = MeasureStorageCopyFraction(
        storage::UringIoEngine(), kPayloadBytes,
        smoke ? (4ull << 20) : (32ull << 20));
    report.AddExtra("storage_copy_fraction_uring", uring_frac);
    report.AddExtra("uring_vs_sync_batch32",
                    sync_b32 > 0 ? uring_b32 / sync_b32 : 0.0);
    report.AddExtra("uring_vs_sync_batch32_buffered",
                    sync_b32_buf > 0 ? uring_b32_buf / sync_b32_buf : 0.0);
  } else {
    report.AddExtra("uring_vs_sync_batch32", 0.0);
    report.AddExtra("uring_vs_sync_batch32_buffered", 0.0);
  }

  std::printf("\ncopies per record (net datapath): %.3f  (budget <= 1.2)\n",
              copies);
  std::printf("storage copy fraction, sync engine: %.3f\n", sync_frac);
  if (storage::IoUringAvailable()) {
    std::printf(
        "uring vs sync at batch 32, durable group commit: %.2fx\n",
        sync_b32 > 0 ? uring_b32 / sync_b32 : 0.0);
    std::printf("uring vs sync at batch 32, buffered only:     %.2fx\n",
                sync_b32_buf > 0 ? uring_b32_buf / sync_b32_buf : 0.0);
  }
  std::printf("\nExpected shape: on the durable legs the sync engine "
              "serializes flatten + write() + fdatasync() per batch while "
              "the uring engine submits one vectored write with a linked "
              "fsync and touches every byte one less time, so it pulls "
              "ahead as batch bytes grow; the buffered legs never reach "
              "the device and differ only by the flatten pass.\n");
  if (!report.Write()) return 1;
  return 0;
}
