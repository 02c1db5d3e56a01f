#include "chariots/datacenter.h"

#include <algorithm>

#include "common/codec.h"
#include "common/flight_recorder.h"
#include "common/latch.h"
#include "common/logging.h"
#include "storage/file.h"

namespace chariots::geo {

namespace {
std::vector<DatacenterId> OtherDatacenters(uint32_t self, uint32_t n) {
  std::vector<DatacenterId> out;
  for (uint32_t d = 0; d < n; ++d) {
    if (d != self) out.push_back(d);
  }
  return out;
}
}  // namespace

Datacenter::Datacenter(ChariotsConfig config, TransportFabric* fabric)
    : config_(config),
      fabric_(fabric),
      executor_(config.executor != nullptr ? config.executor
                                           : Executor::Default()),
      journal_(config.num_maintainers, config.stripe_batch),
      filter_map_(config.num_filters, config.num_datacenters),
      atable_(config.num_datacenters, config.dc_id),
      token_(config.num_datacenters),
      toid_to_lid_(config.num_datacenters),
      toid_base_(config.num_datacenters, 1) {
  // Per-dc counters: several Datacenter instances can share one process (in
  // tests and simulations), so these are namespaced by dc id; the per-stage
  // process-global instruments live in the stage classes.
  std::string prefix = "chariots.dc" + std::to_string(config_.dc_id) + ".";
  metrics::Registry& registry = metrics::Registry::Default();
  appends_counter_ = registry.GetCounter(prefix + "appends");
  refused_counter_ = registry.GetCounter(prefix + "appends_refused");
  incorporated_counter_ = registry.GetCounter(prefix + "records_incorporated");
  maintainer_append_hist_ =
      registry.GetHistogram("chariots.maintainer.append_ns");
  batch_size_hist_ = registry.GetHistogram("chariots.batcher.batch_size");
}

Datacenter::~Datacenter() { Stop(); }

void Datacenter::Subscribe(std::function<void(const GeoRecord&)> subscriber) {
  subscribers_.push_back(std::move(subscriber));
}

Status Datacenter::Start() {
  if (config_.dc_id >= config_.num_datacenters) {
    return Status::InvalidArgument("dc_id must be < num_datacenters");
  }
  if (config_.num_batchers == 0 || config_.num_filters == 0 ||
      config_.num_queues == 0 || config_.num_maintainers == 0) {
    return Status::InvalidArgument("every stage needs at least one machine");
  }
  if (config_.num_filters > kMaxFilters ||
      config_.num_batchers > kMaxBatchers ||
      config_.num_queues > kMaxQueues) {
    return Status::InvalidArgument("stage width beyond reserved capacity");
  }
  if (config_.stripe_batch == 0) {
    return Status::InvalidArgument("stripe_batch must be positive");
  }
  if (config_.num_datacenters > 1 && fabric_ == nullptr) {
    return Status::InvalidArgument("replication needs a fabric");
  }
  if (running_.exchange(true)) {
    return Status::FailedPrecondition("datacenter already running");
  }
  // A datacenter whose log fails to open or recover stays stopped, so no
  // Stop() writes a checkpoint over state it never loaded.
  if (Status s = OpenLog(); !s.ok()) {
    running_.store(false);
    return s;
  }

  // Queues + token.
  queues_.reserve(kMaxQueues);
  for (uint32_t q = 0; q < config_.num_queues; ++q) {
    queues_.push_back(MakeQueue(q));
  }
  queue_count_.store(queues_.size(), std::memory_order_release);

  // Filters, each with a bounded inbox drained on an executor strand.
  filters_.reserve(kMaxFilters);
  for (uint32_t f = 0; f < config_.num_filters; ++f) {
    filters_.push_back(MakeFilterStage(f));
  }
  // After a restart the filters resume their champion streams where the
  // recovered log left off.
  std::vector<TOId> incorporated = atable_.KnowledgeVector();
  for (auto& stage : filters_) {
    for (DatacenterId d = 0; d < config_.num_datacenters; ++d) {
      if (incorporated[d] > 0) stage->filter->SeedHost(d, incorporated[d]);
    }
  }
  filter_count_.store(filters_.size(), std::memory_order_release);

  // Batchers.
  batchers_.reserve(kMaxBatchers);
  for (uint32_t b = 0; b < config_.num_batchers; ++b) {
    batchers_.push_back(MakeBatcher());
  }
  batcher_count_.store(batchers_.size(), std::memory_order_release);

  // Replication: receiver first, then the sender.
  if (config_.num_datacenters > 1) {
    receiver_ = std::make_unique<Receiver>(
        config_.dc_id, &atable_, [this](GeoRecord r) {
          // Shed remote records while congested (a partitioned or slow
          // peer's backlog must not grow the queues without bound): the
          // origin's sender retransmits them once we make progress.
          if (Congested()) return false;
          r.trace.AddHop("receiver", config_.dc_id);
          SubmitToBatcher(std::move(r));
          return true;
        });
    CHARIOTS_RETURN_IF_ERROR(fabric_->RegisterReceiver(
        config_.dc_id, [this](DatacenterId from, std::string payload) {
          receiver_->OnMessage(from, std::move(payload));
        }));

    Sender::Options so;
    so.resend_nanos = config_.sender_resend_nanos;
    so.resend_max_nanos = config_.sender_resend_max_nanos;
    so.executor = executor_;
    sender_ = std::make_unique<Sender>(
        config_.dc_id, OtherDatacenters(config_.dc_id, config_.num_datacenters),
        [this](TOId toid) { return ReadLocalToSend(toid); }, &atable_,
        fabric_, so);
    sender_->Start();
  }

  // The token's first step. Started after the sender, which the token task
  // kicks; token_scheduled_ starts set, so a drain that ran earlier (a
  // record received during Start) collapsed its wake into this step.
  token_done_ = std::make_unique<CountDownLatch>(1);
  if (!executor_->Submit(token_gate_.Wrap([this] { TokenStep(); }))) {
    token_done_->CountDown();
  }

  if (config_.gc_interval_nanos > 0) {
    gc_token_ = executor_->ScheduleEvery(config_.gc_interval_nanos, [this] {
      Status gc = RunGcOnce();
      if (!gc.ok()) {
        LOG_WARN << "dc" << config_.dc_id << ": gc failed: " << gc.ToString();
      }
    });
  }

  // Snapshot-time gauges for state owned by the pipeline. The lock-free
  // readers (BoundedQueue::ApproxSize, atomics) make these safe to evaluate
  // from any monitoring thread; Stop() releases them before teardown.
  std::string prefix = "chariots.dc" + std::to_string(config_.dc_id) + ".";
  callback_gauges_.emplace_back(prefix + "head_lid", [this] {
    return static_cast<int64_t>(head_lid_.load(std::memory_order_relaxed));
  });
  callback_gauges_.emplace_back(prefix + "pipeline_pending", [this] {
    return static_cast<int64_t>(PipelinePending());
  });
  callback_gauges_.emplace_back(prefix + "unacked_local_records", [this] {
    // The floor first: both only grow, so the difference never underflows.
    TOId floor = atable_.GlobalFloor(config_.dc_id);
    return static_cast<int64_t>(atable_.Get(config_.dc_id, config_.dc_id) -
                                floor);
  });
  size_t nf = filter_count_.load(std::memory_order_acquire);
  for (size_t f = 0; f < nf; ++f) {
    BoundedQueue<std::vector<GeoRecord>>* inbox = filters_[f]->inbox.get();
    callback_gauges_.emplace_back(
        prefix + "filter" + std::to_string(f) + ".inbox_depth",
        [inbox] { return static_cast<int64_t>(inbox->ApproxSize()); });
    callback_gauges_.emplace_back(
        prefix + "filter" + std::to_string(f) + ".inbox_high_watermark",
        [inbox] { return static_cast<int64_t>(inbox->high_watermark()); });
  }
  return Status::OK();
}

void Datacenter::Stop() {
  if (!running_.exchange(false)) return;

  // Release snapshot callbacks first: they read pipeline state that the
  // teardown below starts dismantling.
  callback_gauges_.clear();

  // Upstream first: filters drain, then the token drains the queues.
  for (auto& f : filters_) f->inbox->Close();
  // Final inline drain so nothing queued is lost, then seal each strand:
  // after Close() no drain task can touch the stage again.
  for (auto& f : filters_) {
    FilterStage* stage = f.get();
    stage->gate.Run([this, stage] { DrainFilter(stage); });
    stage->gate.Close();
  }
  // The token observes running_ == false, drains the queues, counts the
  // latch down, and retires. Woken here so an idle token runs that drain
  // check now.
  if (token_done_ != nullptr) {
    WakeToken();
    if (!token_done_->WaitFor(std::chrono::seconds(30))) {
      LOG_WARN << "dc" << config_.dc_id
               << ": token drain timed out; records may be left in queues";
    }
  }
  token_gate_.Close();
  if (sender_ != nullptr) sender_->Stop();
  if (receiver_ != nullptr) (void)fabric_->Unregister(config_.dc_id);
  gc_token_.Cancel();
  // Clean shutdown: sync the log and leave a fresh recovery point.
  Status s = WriteCheckpoint();
  if (!s.ok()) {
    LOG_WARN << "dc" << config_.dc_id << ": checkpoint on stop failed: "
             << s.ToString();
  }
}

Status Datacenter::OpenLog() {
  // Log maintainers (FLStore stage).
  for (uint32_t m = 0; m < config_.num_maintainers; ++m) {
    flstore::MaintainerOptions mo;
    mo.index = m;
    mo.journal = journal_;
    mo.store.mode = config_.store_mode;
    mo.store.io_engine = config_.io_engine;
    if (!config_.store_dir.empty()) {
      mo.store.dir =
          config_.store_dir + "/maintainer-" + std::to_string(m);
    }
    maintainers_.push_back(std::make_unique<flstore::LogMaintainer>(mo));
    CHARIOTS_RETURN_IF_ERROR(maintainers_.back()->Open());
  }
  // Whole-datacenter restart: rebuild replica clocks, awareness, index and
  // the TOId map from the persisted log before any pipeline task starts.
  if (config_.store_dir.empty()) return Status::OK();
  return RecoverFromStorage();
}

namespace {
constexpr uint32_t kCheckpointMagic = 0xC4A210;
constexpr uint32_t kCheckpointVersion = 1;
}  // namespace

Status Datacenter::WriteCheckpoint() {
  if (config_.store_dir.empty()) return Status::OK();
  // Durability order: the log first, then the checkpoint that summarizes
  // it — a checkpoint must never claim records the log lost.
  for (auto& m : maintainers_) {
    CHARIOTS_RETURN_IF_ERROR(m->Sync());
  }
  BinaryWriter w;
  w.PutU32(kCheckpointMagic);
  w.PutU32(kCheckpointVersion);
  w.PutU64(head_lid_.load(std::memory_order_acquire));
  w.PutU64(next_toid_.load(std::memory_order_acquire));
  w.PutU64(gc_horizon_.load(std::memory_order_acquire));
  w.PutBytes(atable_.Encode());
  return storage::WriteStringToFileAtomic(
      std::move(w).data(), config_.store_dir + "/checkpoint");
}

Status Datacenter::RecoverFromStorage() {
  // 1. Load the checkpoint, if any.
  flstore::LId ckpt_next_lid = 0;
  TOId ckpt_next_toid = 0;
  flstore::LId ckpt_horizon = 0;
  std::string raw;
  std::string path = config_.store_dir + "/checkpoint";
  if (storage::FileExists(path)) {
    // An unreadable checkpoint is an error, not an absent one: GC may have
    // removed the records that would otherwise restore next_toid_.
    CHARIOTS_RETURN_IF_ERROR(storage::ReadFileToString(path, &raw));
    BinaryReader r(raw);
    uint32_t magic = 0, version = 0;
    CHARIOTS_RETURN_IF_ERROR(r.GetU32(&magic));
    CHARIOTS_RETURN_IF_ERROR(r.GetU32(&version));
    if (magic != kCheckpointMagic || version != kCheckpointVersion) {
      return Status::Corruption("bad checkpoint header");
    }
    CHARIOTS_RETURN_IF_ERROR(r.GetU64(&ckpt_next_lid));
    CHARIOTS_RETURN_IF_ERROR(r.GetU64(&ckpt_next_toid));
    CHARIOTS_RETURN_IF_ERROR(r.GetU64(&ckpt_horizon));
    std::string atable_bytes;
    CHARIOTS_RETURN_IF_ERROR(r.GetBytes(&atable_bytes));
    CHARIOTS_RETURN_IF_ERROR(atable_.MergeEncoded(atable_bytes));
  }

  // 2. Gather every stored lid across the maintainers.
  std::vector<flstore::LId> lids;
  for (auto& m : maintainers_) {
    std::vector<flstore::LId> mine = m->StoredLids();
    lids.insert(lids.end(), mine.begin(), mine.end());
  }
  std::sort(lids.begin(), lids.end());

  // 3. Records at/after the checkpoint must form a contiguous run (the
  //    token assigned them consecutively); a hole means the crash lost a
  //    buffered write, and everything past the hole is a straggler whose
  //    causal prefix is gone — discard it (tombstone) so the positions can
  //    be reassigned.
  flstore::LId resume_lid = ckpt_next_lid;
  size_t straggler_start = lids.size();
  for (size_t i = 0; i < lids.size(); ++i) {
    if (lids[i] < ckpt_next_lid) continue;
    if (lids[i] != resume_lid) {
      straggler_start = i;
      break;
    }
    ++resume_lid;
  }
  for (size_t i = straggler_start; i < lids.size(); ++i) {
    LOG_WARN << "dc" << config_.dc_id << ": discarding straggler record at "
             << "lid " << lids[i] << " (hole below it after crash)";
    uint32_t m = journal_.MaintainerFor(lids[i]);
    CHARIOTS_RETURN_IF_ERROR(maintainers_[m]->Remove(lids[i]));
  }
  lids.resize(straggler_start);

  // 4. Replay the surviving records: rebuild the TOId map + index for all
  //    of them, and replica clocks only for those past the checkpoint. The
  //    sender reads local records back through the TOId map.
  gc_horizon_.store(ckpt_horizon);
  next_toid_.store(ckpt_next_toid);
  for (flstore::LId lid : lids) {
    if (lid < ckpt_horizon) continue;  // partially-GC'd cold segment
    CHARIOTS_ASSIGN_OR_RETURN(flstore::LogRecord log_record, ReadStored(lid));
    CHARIOTS_ASSIGN_OR_RETURN(GeoRecord record, FromLogRecord(log_record));
    if (toid_to_lid_[record.host].empty()) {
      toid_base_[record.host] = record.toid;
    }
    toid_to_lid_[record.host].push_back(lid);
    indexer_.AddRecord(log_record, lid);
    if (lid >= ckpt_next_lid) {
      atable_.Advance(config_.dc_id, record.host, record.toid);
      if (record.host == config_.dc_id) {
        TOId expected =
            next_toid_.load(std::memory_order_relaxed);
        if (record.toid > expected) next_toid_.store(record.toid);
      }
    }
  }

  // 5. Seed the token and head from the recovered prefix.
  token_.max_toid = atable_.KnowledgeVector();
  token_.next_lid = resume_lid;
  head_lid_.store(resume_lid, std::memory_order_release);
  if (!lids.empty() || ckpt_next_lid > 0) {
    LOG_INFO << "dc" << config_.dc_id << ": recovered " << lids.size()
             << " records; log resumes at lid " << resume_lid
             << ", next local toid "
             << next_toid_.load(std::memory_order_relaxed) + 1;
  }
  return Status::OK();
}

void Datacenter::DeliverToFilter(uint32_t filter_id,
                                 std::vector<GeoRecord> batch) {
  if (filter_id >= filter_count_.load(std::memory_order_acquire)) return;
  FilterStage* stage = filters_[filter_id].get();
  // Producer-helps-consumer backpressure: executor tasks must never block,
  // so on a full inbox the producer drains the stage inline (serialized by
  // the strand gate) instead of waiting for a worker. The backlog moves to
  // the unbounded GeoQueues, where max_pipeline_pending admission control
  // sheds load.
  const size_t batch_records = batch.size();
  while (!stage->inbox->TryPush(&batch)) {
    if (stage->inbox->closed()) return;
    stage->gate.Run([this, stage] { DrainFilter(stage); });
  }
  flightrec::Record(flightrec::EventType::kQueueEnq,
                    static_cast<uint16_t>(filter_id), config_.dc_id,
                    stage->inbox->ApproxSize(), batch_records);
  ScheduleFilterDrain(stage);
}

void Datacenter::ScheduleFilterDrain(FilterStage* stage) {
  // Collapse concurrent wakeups: one strand task drains everything queued.
  if (stage->drain_scheduled.exchange(true, std::memory_order_acq_rel)) {
    return;
  }
  executor_->Submit(stage->gate.Wrap([this, stage] {
    // Cleared before draining: a batch arriving mid-drain schedules a fresh
    // task rather than being lost.
    stage->drain_scheduled.store(false, std::memory_order_release);
    DrainFilter(stage);
  }));
}

void Datacenter::DrainFilter(FilterStage* stage) {
  // Drain the whole inbox under one lock acquisition and hand the filter a
  // single merged batch — one wakeup and one Accept per backlog instead of
  // one per enqueued batch.
  std::vector<std::vector<GeoRecord>> batches;
  bool drained = false;
  while (stage->inbox->TryPopAll(&batches) > 0) {
    drained = true;
    size_t popped = 0;
    for (const auto& b : batches) popped += b.size();
    flightrec::Record(flightrec::EventType::kQueueDeq,
                      static_cast<uint16_t>(stage->filter->id()),
                      config_.dc_id, stage->inbox->ApproxSize(), popped);
    batch_size_hist_->Record(popped);
    if (batches.size() == 1) {
      stage->filter->Accept(std::move(batches.front()));
    } else {
      size_t total = popped;
      std::vector<GeoRecord> merged;
      merged.reserve(total);
      for (auto& b : batches) {
        merged.insert(merged.end(), std::make_move_iterator(b.begin()),
                      std::make_move_iterator(b.end()));
      }
      stage->filter->Accept(std::move(merged));
    }
    batches.clear();
  }
  // Every record reaches a queue through a filter's Accept — local appends,
  // received records, releases from the out-of-order buffer — so this one
  // wake covers all of them.
  if (drained) WakeToken();
}

void Datacenter::WakeToken() {
  if (token_scheduled_.exchange(true)) return;
  if (!executor_->Submit(token_gate_.Wrap([this] { TokenStep(); }))) {
    token_done_->CountDown();  // executor shutting down
  }
}

void Datacenter::TokenStep() {
  // A failed write leaves the rest of its run unpublished. It is retried
  // first, and no queue admits a new record until it is written.
  bool stalled = !PersistRun();
  size_t n = queue_count_.load(std::memory_order_acquire);
  for (size_t q = 0; q < n && !stalled; ++q) {
    queues_[q]->ProcessToken(&token_);
    stalled = !PersistRun();
  }
  token_deferred_.store(token_.deferred.size(), std::memory_order_relaxed);
  const bool running = running_.load();
  if (stalled) {
    if (!running) {
      LOG_WARN << "dc" << config_.dc_id << ": stopping with "
               << unpublished_.size() << " admitted records unwritten";
      token_done_->CountDown();
      return;
    }
    // Nothing else wakes a token waiting to retry a failed write: poll in
    // 100µs instead of monopolizing a worker.
    Executor::TimerToken t = executor_->ScheduleAfter(
        100'000, token_gate_.Wrap([this] { TokenStep(); }));
    if (!t.valid()) token_done_->CountDown();  // executor shutting down
    return;
  }
  // The last queue ran the token's deferred records to a fixpoint, so only
  // new records can make one admissible, and they come with a filter
  // drain's wake. A step therefore follows only pending input.
  auto idle = [this, n] {
    for (size_t q = 0; q < n; ++q) {
      if (queues_[q]->pending() > 0) return false;
    }
    return true;
  };
  if (!running && idle()) {
    // Drain check passed: retire, leaving token_scheduled_ set so no later
    // wake schedules a step. Records still deferred in the token have
    // unsatisfiable dependencies (nothing new is coming) and are
    // abandoned, matching a shutdown mid-replication.
    token_done_->CountDown();
    return;
  }
  // Park. A wake that arrived during this step (a record enqueued after
  // its queue was swapped out, or Stop()) collapsed into it, so clear the
  // flag and look once more before returning.
  token_scheduled_.store(false);
  if (!idle() || !running_.load()) WakeToken();
}

void Datacenter::AcceptRun(std::vector<GeoRecord> run) {
  unpublished_.reserve(unpublished_.size() + run.size());
  for (GeoRecord& record : run) {
    record.trace.AddHop("queue", config_.dc_id);
    flstore::LogRecord log = ToLogRecord(record);
    unpublished_.push_back(RunRecord{std::move(record), std::move(log)});
  }
}

bool Datacenter::PersistRun() {
  if (unpublished_.empty()) return true;
  // Group commit: one AppendAtBatch per maintainer over its records of the
  // run, in LId order. The stored forms move into the batch and back.
  std::vector<std::vector<size_t>> owned(maintainers_.size());
  for (size_t i = 0; i < unpublished_.size(); ++i) {
    if (unpublished_[i].written) continue;
    owned[journal_.MaintainerFor(unpublished_[i].record.lid)].push_back(i);
  }
  std::vector<flstore::LId> lids;
  std::vector<flstore::LogRecord> logs;
  for (size_t m = 0; m < owned.size(); ++m) {
    if (owned[m].empty()) continue;
    lids.clear();
    logs.clear();
    for (size_t i : owned[m]) {
      lids.push_back(unpublished_[i].record.lid);
      logs.push_back(std::move(unpublished_[i].log));
    }
    Status s;
    {
      metrics::ScopedLatencyTimer timer(maintainer_append_hist_);
      s = maintainers_[m]->AppendAtBatch(lids, logs);
    }
    for (size_t k = 0; k < owned[m].size(); ++k) {
      RunRecord& entry = unpublished_[owned[m][k]];
      entry.log = std::move(logs[k]);
      entry.written = s.ok();
    }
    if (!s.ok()) {
      LOG_EVERY_N_SEC(kError, 1)
          << "dc" << config_.dc_id << ": maintainer " << m << " failed to "
          << "write " << lids.size() << " records from lid " << lids.front()
          << "; retrying: " << s.ToString();
    }
  }

  // Publish the written prefix, in LId order. The token assigned the run's
  // LIds consecutively above head_lid_, so the head moves only over
  // records that are written and never past the first that is not.
  size_t written = 0;
  while (written < unpublished_.size() && unpublished_[written].written) {
    ++written;
  }
  if (written == 0) return false;
  // Counted before the records become visible, so a reader that sees one
  // (WaitForToid, HeadLid) finds it counted.
  incorporated_counter_->Add(written);
  bool local = false;
  {
    std::lock_guard<std::mutex> lock(meta_mu_);
    for (size_t i = 0; i < written; ++i) {
      GeoRecord& record = unpublished_[i].record;
      if (toid_to_lid_[record.host].empty()) {
        toid_base_[record.host] = record.toid;
      }
      toid_to_lid_[record.host].push_back(record.lid);
      record.trace.AddHop("maintainer", config_.dc_id);
      if (record.host != config_.dc_id) continue;
      local = true;
      // The sender reads the stored bytes, which predate these hops. So a
      // sampled record keeps the re-encoded form, stamped with its sender
      // hop, before it becomes sendable: the replicated copy carries the
      // full local pipeline history to the remote datacenter.
      record.trace.AddHop("sender", config_.dc_id);
      if (record.trace.active()) {
        traced_local_.erase(traced_local_.begin(),
                            traced_local_.upper_bound(
                                atable_.GlobalFloor(config_.dc_id)));
        traced_local_.emplace(record.toid, EncodeGeoRecord(record));
      }
    }
  }
  for (size_t i = 0; i < written; ++i) {
    GeoRecord& record = unpublished_[i].record;
    for (const flstore::Tag& tag : record.tags) {
      indexer_.Add(tag.key, tag.value, record.lid);
    }
    head_lid_.store(record.lid + 1, std::memory_order_release);
    atable_.Advance(config_.dc_id, record.host, record.toid);
    // Subscribers run before the append acknowledgment, so "append
    // returned" implies every subscriber has seen the record.
    for (const auto& subscriber : subscribers_) subscriber(record);
    if (record.host == config_.dc_id) {
      if (record.trace.active()) {
        trace::TraceSink::Default().Record(std::move(record.trace));
      }
      if (record.on_committed) record.on_committed(record.toid, record.lid);
    } else {
      record.trace.AddHop("incorporated", config_.dc_id);
      if (record.trace.active()) {
        trace::TraceSink::Default().Record(std::move(record.trace));
      }
    }
  }
  unpublished_.erase(unpublished_.begin(), unpublished_.begin() + written);
  {
    // Taking the lock orders this notify with the waiter's predicate check.
    std::lock_guard<std::mutex> lock(wait_mu_);
  }
  wait_cv_.notify_all();
  if (local && sender_ != nullptr) sender_->Kick();
  return unpublished_.empty();
}

void Datacenter::SubmitToBatcher(GeoRecord record) {
  record.trace.AddHop("batcher", config_.dc_id);
  uint64_t i = batcher_rr_.fetch_add(1, std::memory_order_relaxed);
  size_t n = batcher_count_.load(std::memory_order_acquire);
  batchers_[i % n]->Submit(std::move(record));
}

size_t Datacenter::PipelinePending() const {
  // Backlog lives in two places: the queues' own buffers, and records the
  // token deferred because their causal dependencies are not satisfied yet
  // (during a partition that is where the pile-up happens).
  size_t pending = token_deferred_.load(std::memory_order_relaxed);
  size_t n = queue_count_.load(std::memory_order_acquire);
  for (size_t q = 0; q < n; ++q) pending += queues_[q]->pending();
  return pending;
}

bool Datacenter::Congested() const {
  return PipelinePending() > config_.max_pipeline_pending;
}

TOId Datacenter::Append(std::string body, std::vector<flstore::Tag> tags,
                        DepVector deps,
                        std::function<void(TOId, flstore::LId)> on_committed,
                        trace::TraceContext client_trace) {
  GeoRecord record;
  record.host = config_.dc_id;
  record.toid = next_toid_.fetch_add(1, std::memory_order_relaxed) + 1;
  record.body = std::move(body);
  record.tags = std::move(tags);
  record.deps = std::move(deps);
  record.deps.resize(config_.num_datacenters, 0);
  record.on_committed = std::move(on_committed);
  record.trace = std::move(client_trace);
  if (!record.trace.active() &&
      trace::ShouldSample(record.toid, config_.trace_sample_every)) {
    record.trace.trace_id = trace::MakeTraceId(config_.dc_id, record.toid);
  }
  record.trace.AddHop("client", config_.dc_id);
  appends_counter_->Add();
  TOId toid = record.toid;
  SubmitToBatcher(std::move(record));
  return toid;
}

Result<TOId> Datacenter::TryAppend(
    std::string body, std::vector<flstore::Tag> tags, DepVector deps,
    std::function<void(TOId, flstore::LId)> on_committed,
    trace::TraceContext client_trace) {
  // Check admission before consuming a TOId: a refused append must leave no
  // trace, or the TOId sequence would grow holes that never fill.
  if (Congested()) {
    refused_counter_->Add();
    return Status::Unavailable("pipeline congested; retry with backoff");
  }
  return Append(std::move(body), std::move(tags), std::move(deps),
                std::move(on_committed), std::move(client_trace));
}

Result<GeoRecord> Datacenter::Read(flstore::LId lid) const {
  // The maintainers also hold records outside this range: written but not
  // yet published, or left behind in a segment GC only partly dropped.
  if (lid < gc_horizon() || lid >= HeadLid()) {
    return Status::NotFound("lid outside [gc horizon, head)");
  }
  CHARIOTS_ASSIGN_OR_RETURN(flstore::LogRecord log_record, ReadStored(lid));
  return FromLogRecord(log_record);
}

Result<flstore::LogRecord> Datacenter::ReadStored(flstore::LId lid) const {
  return maintainers_[journal_.MaintainerFor(lid)]->Read(lid);
}

flstore::LId Datacenter::HeadLid() const {
  return head_lid_.load(std::memory_order_acquire);
}

std::vector<GeoRecord> Datacenter::ReadRange(flstore::LId from,
                                             size_t limit) const {
  std::vector<GeoRecord> out;
  flstore::LId head = HeadLid();
  // Positions below the horizon are collected: start at the first live one.
  for (flstore::LId lid = std::max(from, gc_horizon());
       lid < head && out.size() < limit; ++lid) {
    Result<GeoRecord> r = Read(lid);
    if (r.ok()) out.push_back(std::move(r).value());
  }
  return out;
}

std::vector<flstore::Posting> Datacenter::Lookup(
    const flstore::IndexQuery& query) const {
  return indexer_.Lookup(query);
}

Result<flstore::LId> Datacenter::LidOfLocked(DatacenterId host,
                                             TOId toid) const {
  if (toid < toid_base_[host]) {
    return Status::NotFound("record garbage collected");
  }
  size_t idx = toid - toid_base_[host];
  if (idx >= toid_to_lid_[host].size()) {
    return Status::NotFound("record not incorporated yet");
  }
  return toid_to_lid_[host][idx];
}

Result<GeoRecord> Datacenter::ReadByToid(DatacenterId host,
                                         TOId toid) const {
  if (host >= config_.num_datacenters || toid == 0) {
    return Status::InvalidArgument("bad (host, toid)");
  }
  flstore::LId lid;
  {
    std::lock_guard<std::mutex> lock(meta_mu_);
    CHARIOTS_ASSIGN_OR_RETURN(lid, LidOfLocked(host, toid));
  }
  return Read(lid);
}

Result<std::string> Datacenter::ReadLocalToSend(TOId toid) const {
  flstore::LId lid;
  {
    std::lock_guard<std::mutex> lock(meta_mu_);
    auto traced = traced_local_.find(toid);
    if (traced != traced_local_.end()) return traced->second;
    CHARIOTS_ASSIGN_OR_RETURN(lid, LidOfLocked(config_.dc_id, toid));
  }
  // The tail cache while the record is hot, the LogStore once a peer lags
  // past it or after a restart.
  CHARIOTS_ASSIGN_OR_RETURN(flstore::LogRecord log_record, ReadStored(lid));
  return std::move(log_record.body);
}

std::vector<TOId> Datacenter::IncorporatedVector() const {
  return atable_.KnowledgeVector();
}

bool Datacenter::WaitForToid(DatacenterId dc, TOId toid,
                             int64_t timeout_nanos) const {
  std::unique_lock<std::mutex> lock(wait_mu_);
  return wait_cv_.wait_for(lock, std::chrono::nanoseconds(timeout_nanos),
                           [&] {
                             return atable_.Get(config_.dc_id, dc) >= toid;
                           });
}

void Datacenter::RegisterWatchdogProbes(Watchdog* wd) {
  std::string prefix = "dc" + std::to_string(config_.dc_id) + ".";
  size_t n = filter_count_.load(std::memory_order_acquire);
  for (size_t f = 0; f < n; ++f) {
    BoundedQueue<std::vector<GeoRecord>>* inbox = filters_[f]->inbox.get();
    // Depth is measured in batches (what the queue holds), matching the
    // inbox_depth gauge.
    wd->AddQueueProbe(prefix + "filter" + std::to_string(f) + ".inbox",
                      [inbox] { return inbox->ApproxSize(); },
                      kFilterInboxCapacity);
  }
  wd->AddQueueProbe(prefix + "pipeline_pending",
                    [this] { return static_cast<uint64_t>(PipelinePending()); },
                    config_.max_pipeline_pending);
}

Status Datacenter::SplitFilterChampionship(DatacenterId host, TOId from_toid,
                                           std::vector<uint32_t> filters) {
  for (uint32_t f : filters) {
    if (f >= kMaxFilters) {
      return Status::InvalidArgument("filter id beyond reserved capacity");
    }
    // Grow the filter stage if the reassignment references new filters.
    while (f >= filters_.size()) {
      filters_.push_back(
          MakeFilterStage(static_cast<uint32_t>(filters_.size())));
      // No thread to start: the stage's drain strand is scheduled on demand
      // when the first batch arrives.
      filter_count_.store(filters_.size(), std::memory_order_release);
    }
  }
  return filter_map_.Reassign(host, from_toid, std::move(filters));
}

Status Datacenter::AddBatcher() {
  if (batchers_.size() >= kMaxBatchers) {
    return Status::ResourceExhausted("batcher capacity reached");
  }
  batchers_.push_back(MakeBatcher());
  batcher_count_.store(batchers_.size(), std::memory_order_release);
  return Status::OK();
}

Status Datacenter::AddQueue() {
  if (queues_.size() >= kMaxQueues) {
    return Status::ResourceExhausted("queue capacity reached");
  }
  uint32_t id = static_cast<uint32_t>(queues_.size());
  queues_.push_back(MakeQueue(id));
  // Publishing the count both inserts the queue into the token circulation
  // and lets filters start routing records to it.
  queue_count_.store(queues_.size(), std::memory_order_release);
  return Status::OK();
}

std::unique_ptr<Batcher> Datacenter::MakeBatcher() {
  return std::make_unique<Batcher>(
      &filter_map_, [this](uint32_t filter_id, std::vector<GeoRecord> batch) {
        DeliverToFilter(filter_id, std::move(batch));
      });
}

std::unique_ptr<Datacenter::FilterStage> Datacenter::MakeFilterStage(
    uint32_t id) {
  auto stage = std::make_unique<FilterStage>();
  stage->inbox = std::make_unique<BoundedQueue<std::vector<GeoRecord>>>(
      kFilterInboxCapacity);
  stage->filter = std::make_unique<Filter>(
      id, &filter_map_, [this](GeoRecord r) {
        r.trace.AddHop("filter", config_.dc_id);
        // Bounded by the published queue count: AddQueue may be filling
        // the next slot right now.
        uint64_t i = queue_rr_.fetch_add(1, std::memory_order_relaxed);
        size_t n = queue_count_.load(std::memory_order_acquire);
        queues_[i % n]->Enqueue(std::move(r));
      });
  return stage;
}

std::unique_ptr<GeoQueue> Datacenter::MakeQueue(uint32_t id) {
  return std::make_unique<GeoQueue>(
      id, [this](std::vector<GeoRecord> run) { AcceptRun(std::move(run)); });
}

size_t Datacenter::num_batchers() const {
  return batcher_count_.load(std::memory_order_acquire);
}

size_t Datacenter::num_queues() const {
  return queue_count_.load(std::memory_order_acquire);
}

Status Datacenter::RunGcOnce() {
  flstore::LId horizon;
  {
    std::lock_guard<std::mutex> lock(meta_mu_);
    // A record (h, t) is collectable iff t <= GlobalFloor(h) (paper §6.1).
    // Per-host TOIds ascend with LId, so the first record the horizon must
    // stop at is the lowest-LId (h, GlobalFloor(h) + 1) over all hosts, or
    // the end of the published prefix if no host has one. Every candidate
    // is at or above the old horizon, so it never moves backwards.
    horizon = gc_horizon_.load();
    for (const auto& lids : toid_to_lid_) horizon += lids.size();
    for (DatacenterId h = 0; h < toid_to_lid_.size(); ++h) {
      TOId blocker = atable_.GlobalFloor(h) + 1;
      size_t idx = blocker > toid_base_[h] ? blocker - toid_base_[h] : 0;
      if (idx < toid_to_lid_[h].size()) {
        horizon = std::min(horizon, toid_to_lid_[h][idx]);
      }
    }
    for (DatacenterId h = 0; h < toid_to_lid_.size(); ++h) {
      while (!toid_to_lid_[h].empty() && toid_to_lid_[h].front() < horizon) {
        toid_to_lid_[h].pop_front();
        ++toid_base_[h];
      }
    }
    gc_horizon_.store(horizon);
  }
  // Checkpoint before truncating: the checkpoint carries the state below
  // the horizon that the truncated records can no longer replay.
  CHARIOTS_RETURN_IF_ERROR(WriteCheckpoint());
  for (auto& m : maintainers_) {
    CHARIOTS_RETURN_IF_ERROR(
        m->TruncateBelow(horizon, config_.gc_archive_path));
  }
  indexer_.TruncateBelow(horizon);
  return Status::OK();
}

}  // namespace chariots::geo
