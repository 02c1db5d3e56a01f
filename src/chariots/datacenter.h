#ifndef CHARIOTS_CHARIOTS_DATACENTER_H_
#define CHARIOTS_CHARIOTS_DATACENTER_H_

#include <atomic>
#include <condition_variable>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "chariots/atable.h"
#include "chariots/batcher.h"
#include "chariots/config.h"
#include "chariots/fabric.h"
#include "chariots/filter.h"
#include "chariots/filter_map.h"
#include "chariots/queue.h"
#include "chariots/record.h"
#include "chariots/replication.h"
#include "common/executor.h"
#include "common/metrics.h"
#include "common/queue.h"
#include "common/trace.h"
#include "common/watchdog.h"
#include "flstore/indexer.h"
#include "flstore/maintainer.h"

namespace chariots {
class CountDownLatch;
}

namespace chariots::geo {

/// One datacenter's Chariots instance (paper §6.2): the full multi-stage
/// pipeline — receivers → batchers → filters → queues (token ring) → FLStore
/// log maintainers → senders — plus the awareness table, local indexing, and
/// garbage collection.
///
/// Execution model (DESIGN.md §10): every stage runs as tasks on the shared
/// executor instead of owning threads, and each runs when work arrives, not
/// when a timer fires. Batchers hand records straight to their filter; each
/// filter drains its bounded inbox on a serialized strand (one drain task at
/// a time, scheduled on demand), so batches form while a filter is busy.
/// The token is work-conserving: every filter drain wakes it, a step that
/// admitted records schedules the next at once, and an idle step parks it
/// with no timer — only a failed write re-arms a 100µs retry. LId
/// assignment serializes through the token exactly as in the paper. Each
/// token step writes the run it admitted with one group-committed
/// AppendAtBatch per maintainer (in-process FLStore) and only then
/// publishes it — head, awareness, index, subscribers, acknowledgments —
/// in LId order; a failed write holds the head at its first unwritten LId
/// and is retried before anything new is admitted. A run holding local
/// records kicks the sender, which reads them back from the log; its 1 ms
/// tick is left with rewinds and heartbeats. GC is a periodic timer task.
/// Thread count is therefore a function of cores, not of topology width.
class Datacenter {
 public:
  /// `fabric` carries replication between datacenters; a single-datacenter
  /// deployment (num_datacenters == 1) needs none.
  explicit Datacenter(ChariotsConfig config,
                      TransportFabric* fabric = nullptr);
  ~Datacenter();

  Datacenter(const Datacenter&) = delete;
  Datacenter& operator=(const Datacenter&) = delete;

  Status Start();
  void Stop();

  // ------------------------------------------------------------ client API

  /// Appends a record created at this datacenter. Assigns and returns its
  /// TOId immediately; `on_committed` (optional, moved from `record`-style
  /// callers) fires with (toid, lid) once the record is persisted locally.
  /// `deps` is the caller's causal dependency vector (may be empty).
  /// `client_trace` continues an already-sampled trace from the caller
  /// (e.g. an RPC client); when inactive, the append is sampled locally per
  /// config.trace_sample_every.
  TOId Append(std::string body, std::vector<flstore::Tag> tags,
              DepVector deps,
              std::function<void(TOId, flstore::LId)> on_committed = {},
              trace::TraceContext client_trace = {});

  /// Admission-controlled Append: refuses with kUnavailable — without
  /// consuming a TOId — when the pipeline is congested past
  /// config.max_pipeline_pending (e.g. queue backlog piling up behind a
  /// partition). kUnavailable is retryable: the caller backs off and tries
  /// again; nothing was accepted.
  Result<TOId> TryAppend(std::string body, std::vector<flstore::Tag> tags,
                         DepVector deps,
                         std::function<void(TOId, flstore::LId)> on_committed =
                             {},
                         trace::TraceContext client_trace = {});

  /// Reads the record at local position `lid`. NotFound below the GC
  /// horizon or above the filled prefix.
  Result<GeoRecord> Read(flstore::LId lid) const;

  /// The local log's gap-free head: every position < HeadLid() is persisted
  /// (the token assigns LIds consecutively, and the head moves only over
  /// written records).
  flstore::LId HeadLid() const;

  /// Reads up to `limit` records in [max(from, gc_horizon()), HeadLid()).
  std::vector<GeoRecord> ReadRange(flstore::LId from, size_t limit) const;

  /// Tag lookup against the local index.
  std::vector<flstore::Posting> Lookup(const flstore::IndexQuery& query) const;

  /// Registers a push subscriber invoked (on the token thread, so keep it
  /// fast) for every record as it becomes durable, local and remote alike,
  /// in LId order. Must be called before Start().
  void Subscribe(std::function<void(const GeoRecord&)> subscriber);

  /// Reads a record by its replication identity (host, toid) — the paper's
  /// Read-by-TOId rule (§3). NotFound if not yet incorporated or GC'd.
  Result<GeoRecord> ReadByToid(DatacenterId host, TOId toid) const;

  // --------------------------------------------------------- introspection

  uint32_t dc_id() const { return config_.dc_id; }
  const ChariotsConfig& config() const { return config_; }
  const AwarenessTable& atable() const { return atable_; }
  /// Highest TOId handed out to local appends.
  TOId max_local_toid() const { return next_toid_.load(); }
  /// Highest TOId of each datacenter incorporated into the local log.
  std::vector<TOId> IncorporatedVector() const;

  /// Blocks until the local log has incorporated `toid` of datacenter `dc`
  /// (or the timeout passes). Convenience for tests and examples.
  bool WaitForToid(DatacenterId dc, TOId toid, int64_t timeout_nanos) const;

  /// Registers this datacenter's pipeline saturation probes on `wd`: one
  /// queue probe per filter inbox plus the pipeline-pending backlog vs the
  /// admission-control ceiling. Saturation probes are idle-safe (an empty
  /// pipeline never breaches), unlike progress probes. Covers the filters
  /// present at call time; call again after elastic growth.
  void RegisterWatchdogProbes(Watchdog* wd);

  // ------------------------------------------------------------ elasticity

  /// Adds a filter with a future reassignment: records of `host` with TOId
  /// >= `from_toid` are split across `filters` (paper §6.3).
  Status SplitFilterChampionship(DatacenterId host, TOId from_toid,
                                 std::vector<uint32_t> filters);

  /// Adds a batcher. Batchers are completely independent (paper §6.3), so
  /// this takes effect immediately: future appends/receives round-robin
  /// over the grown set.
  Status AddBatcher();

  /// Adds a queue to the token ring. The token visits it from its next
  /// circulation; filters may route records to it immediately (a queue can
  /// receive any record).
  Status AddQueue();

  size_t num_batchers() const;
  size_t num_queues() const;
  size_t num_filters() const {
    return filter_count_.load(std::memory_order_acquire);
  }

  // -------------------------------------------------------------------- GC

  // ---------------------------------------------------- crash recovery

  /// Persists a recovery checkpoint (replica clocks + awareness table) to
  /// the store directory. Called automatically on Stop() and before each
  /// GC truncation; callable any time for tighter recovery points. No-op
  /// for memory-only deployments.
  Status WriteCheckpoint();

  /// Advances the GC horizon as far as the awareness table allows and
  /// truncates storage + index below it. Safe to call any time; also run
  /// periodically when config.gc_interval_nanos > 0.
  Status RunGcOnce();
  flstore::LId gc_horizon() const { return gc_horizon_.load(); }

 private:
  /// Opens the log maintainers, then recovers from them if persistent.
  Status OpenLog();
  /// Rebuilds all volatile state from the persisted log + checkpoint after
  /// a whole-datacenter restart (paper §1: datacenter-level fault
  /// tolerance). Runs in Start() before the pipeline threads exist.
  Status RecoverFromStorage();

  struct FilterStage;
  void DeliverToFilter(uint32_t filter_id, std::vector<GeoRecord> batch);
  void ScheduleFilterDrain(FilterStage* stage);
  void DrainFilter(FilterStage* stage);
  /// Schedules a token step unless one is already scheduled or running.
  void WakeToken();
  void TokenStep();
  /// Route target of every queue: takes a token step's admitted run.
  void AcceptRun(std::vector<GeoRecord> run);
  /// Writes the unwritten records of unpublished_ and publishes its written
  /// prefix. True when nothing is left unpublished.
  bool PersistRun();
  /// The published LId of (host, toid). Requires meta_mu_.
  Result<flstore::LId> LidOfLocked(DatacenterId host, TOId toid) const;
  /// The stored form of `lid`, from its maintainer, unbounded by the head
  /// and the GC horizon.
  Result<flstore::LogRecord> ReadStored(flstore::LId lid) const;
  /// The sender's read: the encoded local record with TOId `toid`.
  Result<std::string> ReadLocalToSend(TOId toid) const;
  void SubmitToBatcher(GeoRecord record);
  std::unique_ptr<Batcher> MakeBatcher();
  std::unique_ptr<FilterStage> MakeFilterStage(uint32_t id);
  std::unique_ptr<GeoQueue> MakeQueue(uint32_t id);
  /// Records buffered in the queues stage awaiting assignment.
  size_t PipelinePending() const;
  bool Congested() const;

  ChariotsConfig config_;
  TransportFabric* const fabric_;
  Executor* const executor_;

  flstore::EpochJournal journal_;
  FilterMap filter_map_;
  AwarenessTable atable_;

  /// Batchers/queues are reserved to fixed capacities so elastic growth
  /// never reallocates under concurrent readers; readers bound their index
  /// by the companion atomic count.
  static constexpr size_t kMaxBatchers = 256;
  static constexpr size_t kMaxQueues = 256;
  std::vector<std::unique_ptr<Batcher>> batchers_;
  std::atomic<size_t> batcher_count_{0};
  std::atomic<uint64_t> batcher_rr_{0};

  struct FilterStage {
    std::unique_ptr<Filter> filter;
    std::unique_ptr<BoundedQueue<std::vector<GeoRecord>>> inbox;
    /// Serializes drains (the stage's "strand") and fences them off after
    /// Stop(); drain_scheduled collapses redundant wakeups to one task.
    SerialGate gate;
    std::atomic<bool> drain_scheduled{false};
  };
  /// Filter stages. Reserved to kMaxFilters at Start so elasticity can grow
  /// the stage without reallocating under concurrent readers; readers bound
  /// their index by filter_count_.
  static constexpr size_t kMaxFilters = 256;
  /// Batches a filter inbox holds before its producers drain it inline.
  static constexpr size_t kFilterInboxCapacity = 4096;
  std::vector<std::unique_ptr<FilterStage>> filters_;
  std::atomic<size_t> filter_count_{0};
  std::atomic<uint64_t> queue_rr_{0};

  std::vector<std::unique_ptr<GeoQueue>> queues_;
  std::atomic<size_t> queue_count_{0};
  Token token_;
  /// The token runs as executor tasks on token_gate_. token_scheduled_ is
  /// true while a step is scheduled or running, collapsing concurrent
  /// wakeups into one task; an idle step clears it. It starts set: Start()
  /// submits the first step. The latch lets Stop() wait for the shutdown
  /// drain, and the gate fences the token after Stop().
  SerialGate token_gate_;
  std::atomic<bool> token_scheduled_{true};
  std::unique_ptr<CountDownLatch> token_done_;

  std::vector<std::unique_ptr<flstore::LogMaintainer>> maintainers_;
  flstore::Indexer indexer_;

  /// An admitted record and its stored form.
  struct RunRecord {
    GeoRecord record;
    flstore::LogRecord log;
    bool written = false;
  };
  /// Admitted records not yet published, in LId order: the current token
  /// step's run, or after a failed write the suffix from its first unwritten
  /// LId. Token task only.
  std::vector<RunRecord> unpublished_;

  std::unique_ptr<Sender> sender_;
  std::unique_ptr<Receiver> receiver_;

  // TOId -> LId per host (dense, toids start at 1); bases advance with GC.
  // Together the deques hold every published LId in [gc_horizon_, head).
  mutable std::mutex meta_mu_;
  std::vector<std::deque<flstore::LId>> toid_to_lid_;
  std::vector<TOId> toid_base_;
  /// Sampled local records above the awareness floor, re-encoded with the
  /// hops stamped after they were stored; the sender ships these instead
  /// of the stored bytes.
  std::map<TOId, std::string> traced_local_;
  Executor::TimerToken gc_token_;

  /// Per-dc observability: lazily-resolved counters (named
  /// chariots.dc<N>.*) plus callback gauges registered in Start() and
  /// released in Stop() so a destroyed Datacenter leaves no dangling
  /// snapshot callbacks behind.
  metrics::Counter* appends_counter_ = nullptr;
  metrics::Counter* refused_counter_ = nullptr;
  metrics::Counter* incorporated_counter_ = nullptr;
  metrics::Histogram* maintainer_append_hist_ = nullptr;
  /// Records per filter drain: the batch the batcher stage's records form
  /// in a filter inbox (chariots.batcher.batch_size).
  metrics::Histogram* batch_size_hist_ = nullptr;
  std::vector<metrics::ScopedCallbackGauge> callback_gauges_;

  std::vector<std::function<void(const GeoRecord&)>> subscribers_;
  std::atomic<TOId> next_toid_{0};
  /// Deferred-record count inside the token, mirrored after each
  /// circulation so admission control can read it off-thread.
  std::atomic<size_t> token_deferred_{0};
  std::atomic<flstore::LId> head_lid_{0};
  std::atomic<flstore::LId> gc_horizon_{0};
  std::atomic<bool> running_{false};

  mutable std::mutex wait_mu_;
  mutable std::condition_variable wait_cv_;
};

}  // namespace chariots::geo

#endif  // CHARIOTS_CHARIOTS_DATACENTER_H_
