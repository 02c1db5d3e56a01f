#ifndef CHARIOTS_CHARIOTS_CONFIG_H_
#define CHARIOTS_CHARIOTS_CONFIG_H_

#include <cstdint>
#include <string>

#include "storage/log_store.h"

namespace chariots {
class Executor;
}

namespace chariots::geo {

/// Deployment shape of one datacenter's Chariots pipeline (paper §6.2).
/// Every stage count is independently scalable (live elasticity, §6.3).
struct ChariotsConfig {
  /// This datacenter's id and the size of the replication group.
  uint32_t dc_id = 0;
  uint32_t num_datacenters = 1;

  /// Stage widths.
  uint32_t num_batchers = 1;
  uint32_t num_filters = 1;
  uint32_t num_queues = 1;
  uint32_t num_maintainers = 1;

  /// FLStore striping batch (records per maintainer per round).
  uint64_t stripe_batch = 1000;

  /// Storage mode for the log maintainers. kMemoryOnly by default (benches);
  /// set dir to a base directory to persist (per-maintainer subdirs).
  storage::SyncMode store_mode = storage::SyncMode::kMemoryOnly;
  std::string store_dir;

  /// I/O engine for the maintainer stores; nullptr picks the process
  /// default ($CHARIOTS_IO_ENGINE or sync — see storage/io_engine.h).
  storage::IoEngine* io_engine = nullptr;

  /// Sender resend timer: rewind to the last acknowledged TOId after this
  /// long without ack progress.
  int64_t sender_resend_nanos = 50'000'000;  // 50 ms
  /// Cap for the sender's exponential retransmit backoff (the interval
  /// doubles from sender_resend_nanos on every ack stall, resets on
  /// progress).
  int64_t sender_resend_max_nanos = 1'000'000'000;  // 1 s

  /// Admission bound for the pipeline: once this many records sit in the
  /// queues stage awaiting LId assignment, remote records are shed (the
  /// sender retransmits them) and TryAppend refuses with kUnavailable.
  /// Bounds memory during a partition instead of buffering without limit.
  size_t max_pipeline_pending = 1 << 16;

  /// Garbage collection sweep interval; <= 0 disables the GC thread
  /// (the user may keep the log forever — paper §6.1).
  int64_t gc_interval_nanos = 0;
  /// Optional cold-storage archive file for GC'd segments.
  std::string gc_archive_path;

  /// Executor that runs every pipeline task (filter strands, token chain,
  /// sender drains and GC/sender timers). Null means the process-wide
  /// Executor::Default(). Inject a virtual-time executor for deterministic
  /// tests.
  Executor* executor = nullptr;

  /// Record-level trace sampling: sample one append whose TOId satisfies
  /// `toid % trace_sample_every == 1` (so the first record is always
  /// sampled). 0 disables tracing entirely. Sampled records carry their
  /// hop timestamps on the wire; unsampled records pay nothing.
  uint32_t trace_sample_every = 1024;
};

}  // namespace chariots::geo

#endif  // CHARIOTS_CHARIOTS_CONFIG_H_
