#include "flstore/service.h"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <optional>
#include <tuple>

#include "common/codec.h"
#include "common/flight_recorder.h"
#include "common/logging.h"
#include "common/metrics.h"
#include "common/watchdog.h"
#include "net/metrics_http.h"

namespace chariots::flstore {

namespace {

metrics::Counter* AppendCounter() {
  static metrics::Counter* c =
      metrics::Registry::Default().GetCounter("flstore.appends");
  return c;
}

metrics::Histogram* AppendHist() {
  static metrics::Histogram* h =
      metrics::Registry::Default().GetHistogram("flstore.append_ns");
  return h;
}

metrics::Counter* ReadCounter() {
  static metrics::Counter* c =
      metrics::Registry::Default().GetCounter("flstore.reads");
  return c;
}

metrics::Histogram* ReadHist() {
  static metrics::Histogram* h =
      metrics::Registry::Default().GetHistogram("flstore.read_ns");
  return h;
}

metrics::Counter* FillCounter() {
  static metrics::Counter* c =
      metrics::Registry::Default().GetCounter("flstore.fills");
  return c;
}

metrics::Histogram* FillHist() {
  static metrics::Histogram* h =
      metrics::Registry::Default().GetHistogram("flstore.fill_ns");
  return h;
}

metrics::Counter* PromotionsCounter() {
  static metrics::Counter* c =
      metrics::Registry::Default().GetCounter("flstore.promotions");
  return c;
}

metrics::Counter* LeaseExpiryCounter() {
  static metrics::Counter* c = metrics::Registry::Default().GetCounter(
      "flstore.controller.lease_expiries");
  return c;
}

metrics::Counter* FailoverCommitCounter() {
  static metrics::Counter* c = metrics::Registry::Default().GetCounter(
      "flstore.controller.failovers_committed");
  return c;
}

metrics::Counter* FailoverAbortCounter() {
  static metrics::Counter* c = metrics::Registry::Default().GetCounter(
      "flstore.controller.failovers_aborted");
  return c;
}

// Hermes replication families (ISSUE 7): the INV/VAL/replay volume and the
// controller-observed repair time, CLI-visible via `chariots_cli metrics`.

metrics::Counter* InvalidationsCounter() {
  static metrics::Counter* c = metrics::Registry::Default().GetCounter(
      "chariots.flstore.repl.invalidations");
  return c;
}

metrics::Counter* ValidationsCounter() {
  static metrics::Counter* c = metrics::Registry::Default().GetCounter(
      "chariots.flstore.repl.validations");
  return c;
}

metrics::Counter* ReplaysCounter() {
  static metrics::Counter* c = metrics::Registry::Default().GetCounter(
      "chariots.flstore.repl.replays");
  return c;
}

// Threads that blocked on a replication round (promotion, reconfigure,
// fill); the append path never does.
metrics::Counter* RoundWaitsCounter() {
  static metrics::Counter* c = metrics::Registry::Default().GetCounter(
      "chariots.flstore.repl.blocking_waits");
  return c;
}

metrics::Histogram* MttrHist() {
  static metrics::Histogram* h = metrics::Registry::Default().GetHistogram(
      "chariots.flstore.repl.mttr_ns");
  return h;
}

// Control-plane families (this ISSUE): election churn, meta-WAL write
// volume, probe-refuted suspicions, and recovered-plan replays.

metrics::Counter* ElectionsCounter() {
  static metrics::Counter* c = metrics::Registry::Default().GetCounter(
      "chariots.flstore.ctrl.elections");
  return c;
}

metrics::Counter* CtrlMetaWalAppendsCounter() {
  static metrics::Counter* c = metrics::Registry::Default().GetCounter(
      "chariots.flstore.ctrl.meta_wal_appends");
  return c;
}

metrics::Counter* FalseSuspectsCounter() {
  static metrics::Counter* c = metrics::Registry::Default().GetCounter(
      "chariots.flstore.ctrl.false_suspects");
  return c;
}

metrics::Counter* PlanReplaysCounter() {
  static metrics::Counter* c = metrics::Registry::Default().GetCounter(
      "chariots.flstore.ctrl.plan_replays");
  return c;
}

std::string EncodeLId(LId lid) {
  BinaryWriter w;
  w.PutU64(lid);
  return std::move(w).data();
}

Result<LId> DecodeLId(std::string_view data) {
  BinaryReader r(data);
  LId lid = 0;
  CHARIOTS_RETURN_IF_ERROR(r.GetU64(&lid));
  return lid;
}

/// Blocks until the replication work `start` begins reports its outcome.
/// Only queued handlers (promotion, reconfigure, fill) wait like this.
Status WaitForRound(
    const std::function<void(std::function<void(Status)>)>& start) {
  struct Latch {
    std::mutex mu;
    std::condition_variable cv;
    std::optional<Status> status;
  };
  RoundWaitsCounter()->Add();
  net::BlockingWaitScope blocking;
  auto latch = std::make_shared<Latch>();
  start([latch](Status status) {
    std::lock_guard<std::mutex> lock(latch->mu);
    latch->status = std::move(status);
    latch->cv.notify_all();
  });
  std::unique_lock<std::mutex> lock(latch->mu);
  latch->cv.wait(lock, [&] { return latch->status.has_value(); });
  return *latch->status;
}

std::vector<LId> BatchLids(const std::vector<ReplicatedEntry>& batch) {
  std::vector<LId> lids;
  lids.reserve(batch.size());
  for (const ReplicatedEntry& entry : batch) lids.push_back(entry.lid);
  return lids;
}

/// Highest position in a replicated batch (kInvalidLId when empty).
LId BatchTop(const std::vector<ReplicatedEntry>& batch) {
  LId top = kInvalidLId;
  for (const ReplicatedEntry& entry : batch) {
    if (top == kInvalidLId || entry.lid > top) top = entry.lid;
  }
  return top;
}

}  // namespace

void RegisterReplicationMetrics() {
  InvalidationsCounter();
  ValidationsCounter();
  ReplaysCounter();
  MttrHist();
}

void RegisterControllerMetrics() {
  ElectionsCounter();
  CtrlMetaWalAppendsCounter();
  FalseSuspectsCounter();
  PlanReplaysCounter();
}

std::string EncodeEpoch(const StripeEpoch& epoch) {
  BinaryWriter w;
  w.PutU64(epoch.start_lid);
  w.PutU32(epoch.num_maintainers);
  w.PutU64(epoch.batch_size);
  return std::move(w).data();
}

Result<StripeEpoch> DecodeEpoch(std::string_view data) {
  BinaryReader r(data);
  StripeEpoch epoch;
  CHARIOTS_RETURN_IF_ERROR(r.GetU64(&epoch.start_lid));
  CHARIOTS_RETURN_IF_ERROR(r.GetU32(&epoch.num_maintainers));
  CHARIOTS_RETURN_IF_ERROR(r.GetU64(&epoch.batch_size));
  return epoch;
}

// ---------------------------------------------------------------- maintainer

MaintainerServer::MaintainerServer(net::Transport* transport,
                                   MaintainerOptions maintainer,
                                   Options options)
    : maintainer_(std::move(maintainer)),
      options_(std::move(options)),
      executor_(options_.executor != nullptr ? options_.executor
                                             : Executor::Default()),
      endpoint_(transport, options_.node),
      repl_endpoint_(transport, options_.node + "#repl"),
      dedup_(DedupWindow::Options{options_.dedup_window,
                                  options_.dedup_sidecar,
                                  options_.dedup_compact_min_frames,
                                  options_.dedup_disk_faults}),
      replica_(&repl_endpoint_, options_.replica),
      peers_(options_.peers),
      watchdog_({.node = options_.node,
                 .clock = options_.clock,
                 .tick_interval_nanos = options_.watchdog_interval_nanos,
                 .breach_dump_path = options_.breach_dump_path}) {}

MaintainerServer::~MaintainerServer() { Stop(); }

Status MaintainerServer::Start() {
  CHARIOTS_RETURN_IF_ERROR(maintainer_.Open());
  CHARIOTS_RETURN_IF_ERROR(dedup_.Open());
  RegisterReplicationMetrics();
  net::RegisterRpcMetrics();
  RegisterHealthMetrics();
  flightrec::RegisterFlightRecorderMetrics();
  // Probe names embed the node id, so a /healthz report in a multi-stripe
  // deployment names the slow stripe, not just "a latency breach".
  watchdog_.AddLatencyProbe(
      options_.node + ".repl_round", &repl_round_ns_,
      static_cast<uint64_t>(options_.repl_round_slo_nanos));
  if (options_.read_slo_nanos > 0) {
    watchdog_.AddLatencyProbe(options_.node + ".read", ReadHist(),
                              static_cast<uint64_t>(options_.read_slo_nanos));
  }
  maintainer_.SetAppendObserver(
      [this](const LogRecord& record, LId lid) { OnLanded(record, lid); });
  InstallHandlers();
  CHARIOTS_RETURN_IF_ERROR(endpoint_.Start());
  CHARIOTS_RETURN_IF_ERROR(repl_endpoint_.Start());
  // Like the thread loops these replace, the first iteration runs now, not
  // one period from now — a fresh coordinator's lease must be armed before
  // a kill can be detected. Cancel() in Stop() fences the `this` captures.
  if (options_.peers.size() > 1) {
    GossipOnce();
    gossip_token_ = executor_->ScheduleEvery(options_.gossip_interval_nanos,
                                             [this] { GossipOnce(); });
  }
  if (!ControllerTargets().empty()) {
    HeartbeatOnce();
    heartbeat_token_ = executor_->ScheduleEvery(
        options_.heartbeat_interval_nanos, [this] { HeartbeatOnce(); });
  }
  if (options_.watchdog_interval_nanos > 0) {
    // The gossip progress probe only makes sense against a steady tick
    // cadence slower than the gossip period — on-demand kHealth ticks can
    // land closer together than one gossip interval and would false-alarm.
    if (options_.peers.size() > 1 &&
        options_.watchdog_interval_nanos >= options_.gossip_interval_nanos) {
      watchdog_.AddProgressProbe(
          options_.node + ".gossip",
          [this] { return gossip_rounds_.load(std::memory_order_relaxed); },
          [this] { return !stop_.load(std::memory_order_relaxed); });
    }
    watchdog_.Start(executor_);
  }
  return Status::OK();
}

std::vector<net::NodeId> MaintainerServer::ControllerTargets() const {
  if (!options_.controllers.empty()) return options_.controllers;
  if (!options_.controller.empty()) return {options_.controller};
  return {};
}

Status MaintainerServer::CheckCtrlEpoch(uint64_t epoch) {
  uint64_t seen = ctrl_epoch_seen_.load(std::memory_order_relaxed);
  while (epoch > seen && !ctrl_epoch_seen_.compare_exchange_weak(
                             seen, epoch, std::memory_order_relaxed)) {
  }
  if (epoch < seen) {
    return Status::Unavailable(
        "STALE_CTRL_EPOCH: command from a deposed controller leader");
  }
  return Status::OK();
}

void MaintainerServer::Stop() {
  bool expected = false;
  if (!stop_.compare_exchange_strong(expected, true)) return;
  watchdog_.Stop();
  gossip_token_.Cancel();
  heartbeat_token_.Cancel();
  endpoint_.Stop();
  repl_endpoint_.Stop();
  (void)dedup_.Close();
}

Status MaintainerServer::Restart() {
  Stop();
  CHARIOTS_RETURN_IF_ERROR(maintainer_.Close());
  stop_.store(false, std::memory_order_relaxed);
  return Start();
}

void MaintainerServer::OnLanded(const LogRecord& record, LId lid) {
  flightrec::Record(flightrec::EventType::kAppend, 0, maintainer_.index(),
                    lid, record.body.size());
  // Replicas hold the postings back: the coordinator already published
  // them, and a promoted node starts publishing the moment it begins
  // serving appends.
  if (!options_.indexers.empty() && replica_.CheckAppendServing().ok()) {
    PublishPostings(record, lid);
  }
}

void MaintainerServer::InstallHandlers() {
  // Replicated stripes run the Hermes round per landed batch: the batch
  // lands locally marked invalid, an INV carrying the payload (and the
  // dedup token) goes to every peer at once, and only when all peers acked
  // does the coordinator validate (local mark + one-way VAL) and ack. An
  // ack therefore means every replica holds the records durably.
  //
  // Each handler below only lands its records and returns what the client
  // gets back, landing through the Landing it is given. StartWrite does the
  // rest (admission, dedup, the Landing that collects the round's batch, the
  // round) and the handler returns as soon as the INVs are out; the round's
  // last ack sends the reply. Client appends open with a (client_id, seq)
  // token; kAppendAt carries none.
  //
  // The data path — kAppend, kRead, kInvalidate, kValidate — never blocks
  // and is safe alongside itself, so it is registered kInline: on the
  // in-process transport each request runs on its sending thread, beside
  // the other clients' requests to the node, and a whole append (INVs,
  // acks, VALs) completes on the client's thread. Every other handler stays
  // queued, and runs alone on its node. What makes the four safe side by
  // side: landings are published invalid (Landing::invalid), kRead checks
  // validity again once it has the bytes, StartWrite claims a token before
  // it lands, and INV/VAL act under the epoch lock.
  constexpr auto kInline = net::RpcEndpoint::Dispatch::kInline;
  HandleWrite(kAppend, /*tokened=*/true,
              [this](BinaryReader& r,
                     const Landing& landing) -> Result<std::string> {
                std::string rec_bytes;
                CHARIOTS_RETURN_IF_ERROR(r.GetBytes(&rec_bytes));
                CHARIOTS_ASSIGN_OR_RETURN(
                    LogRecord record, DecodeLogRecord(kInvalidLId, rec_bytes));
                CHARIOTS_ASSIGN_OR_RETURN(LId lid,
                                          maintainer_.Append(record, landing));
                return EncodeLId(lid);
              },
              kInline);

  // Decodes the whole batch first, then lands it with one group commit:
  // all of it or none.
  HandleWrite(kAppendBatch, /*tokened=*/true,
              [this](BinaryReader& r,
                     const Landing& landing) -> Result<std::string> {
                uint32_t n = 0;
                CHARIOTS_RETURN_IF_ERROR(r.GetU32(&n));
                std::vector<LogRecord> records;
                for (uint32_t i = 0; i < n; ++i) {
                  std::string rec_bytes;
                  CHARIOTS_RETURN_IF_ERROR(r.GetBytes(&rec_bytes));
                  CHARIOTS_ASSIGN_OR_RETURN(
                      LogRecord record,
                      DecodeLogRecord(kInvalidLId, rec_bytes));
                  records.push_back(std::move(record));
                }
                CHARIOTS_ASSIGN_OR_RETURN(
                    std::vector<LId> lids,
                    maintainer_.AppendBatch(records, landing));
                BinaryWriter out;
                out.PutU32(n);
                for (LId lid : lids) out.PutU64(lid);
                return std::move(out).data();
              });

  HandleWrite(kAppendAt, /*tokened=*/false,
              [this](BinaryReader& r,
                     const Landing& landing) -> Result<std::string> {
                LId lid = 0;
                CHARIOTS_RETURN_IF_ERROR(r.GetU64(&lid));
                std::string rec_bytes;
                CHARIOTS_RETURN_IF_ERROR(r.GetBytes(&rec_bytes));
                CHARIOTS_ASSIGN_OR_RETURN(LogRecord record,
                                          DecodeLogRecord(lid, rec_bytes));
                CHARIOTS_RETURN_IF_ERROR(
                    maintainer_.AppendAt(lid, record, landing));
                return std::string();
              });

  // Caching a deferred (kInvalidLId) response is deliberate: a retry must
  // not re-buffer the record — the first buffered copy will land.
  HandleWrite(kAppendOrdered, /*tokened=*/true,
              [this](BinaryReader& r,
                     const Landing& landing) -> Result<std::string> {
                LId min_lid = 0;
                CHARIOTS_RETURN_IF_ERROR(r.GetU64(&min_lid));
                std::string rec_bytes;
                CHARIOTS_RETURN_IF_ERROR(r.GetBytes(&rec_bytes));
                CHARIOTS_ASSIGN_OR_RETURN(
                    LogRecord record, DecodeLogRecord(kInvalidLId, rec_bytes));
                CHARIOTS_ASSIGN_OR_RETURN(
                    LId lid,
                    maintainer_.AppendOrdered(record, min_lid, landing));
                return EncodeLId(lid);
              });

  // Read responses open with (fence epoch, head of log): the client's
  // read-through cache keys its invalidation off them — an epoch bump for
  // the stripe purges cached tail entries, and lids below the piggybacked
  // HL are immutable and cacheable forever (DESIGN.md §11). Every unfenced
  // role serves reads, but only of *valid* positions: an invalid position
  // is not yet known durable everywhere, so serving it could expose a
  // value a failover later junk-fills. Clients retry invalid positions
  // against another replica (the coordinator validates first).
  endpoint_.Handle(kRead, [this](const net::NodeId&,
                                 const std::string& payload)
                              -> Result<std::string> {
    metrics::ScopedLatencyTimer timer(ReadHist());
    ReadCounter()->Add();
    CHARIOTS_RETURN_IF_ERROR(replica_.CheckReadServing());
    CHARIOTS_ASSIGN_OR_RETURN(LId lid, DecodeLId(payload));
    if (maintainer_.IsInvalid(lid)) {
      return Status::Unavailable("INVALID_LID: position not yet validated");
    }
    CHARIOTS_ASSIGN_OR_RETURN(LogRecord record, maintainer_.Read(lid));
    // A landing running beside this read may have published the bytes
    // (invalid) after the check above.
    if (maintainer_.IsInvalid(lid)) {
      return Status::Unavailable("INVALID_LID: position not yet validated");
    }
    BinaryWriter w;
    w.PutU64(replica_.epoch());
    w.PutU64(CacheableHl());
    w.PutBytes(EncodeLogRecord(record));
    return std::move(w).data();
  }, kInline);

  endpoint_.Handle(kReadCommitted, [this](const net::NodeId&,
                                          const std::string& payload)
                                       -> Result<std::string> {
    metrics::ScopedLatencyTimer timer(ReadHist());
    ReadCounter()->Add();
    CHARIOTS_RETURN_IF_ERROR(replica_.CheckReadServing());
    CHARIOTS_ASSIGN_OR_RETURN(LId lid, DecodeLId(payload));
    if (maintainer_.IsInvalid(lid)) {
      return Status::Unavailable("INVALID_LID: position not yet validated");
    }
    CHARIOTS_ASSIGN_OR_RETURN(LogRecord record,
                              maintainer_.ReadCommitted(lid));
    BinaryWriter w;
    w.PutU64(replica_.epoch());
    w.PutU64(CacheableHl());
    w.PutBytes(EncodeLogRecord(record));
    return std::move(w).data();
  });

  // Batched multi-get: the whole batch costs one round trip. Per-lid
  // presence flags let the client distinguish a miss (gap/GC) from an
  // error; OutOfRange (wrong stripe) is also reported as not-found so a
  // coalesced batch straddling a stale striping view degrades softly. An
  // invalid position fails the whole batch (retryable) — flagging it
  // not-found would let a coalescing client conclude the record is gone.
  endpoint_.Handle(kReadRange, [this](const net::NodeId&,
                                      const std::string& payload)
                                   -> Result<std::string> {
    metrics::ScopedLatencyTimer timer(ReadHist());
    ReadCounter()->Add();
    CHARIOTS_RETURN_IF_ERROR(replica_.CheckReadServing());
    BinaryReader r(payload);
    uint32_t n = 0;
    CHARIOTS_RETURN_IF_ERROR(r.GetU32(&n));
    BinaryWriter w;
    w.PutU64(replica_.epoch());
    w.PutU64(CacheableHl());
    w.PutU32(n);
    for (uint32_t i = 0; i < n; ++i) {
      LId lid = 0;
      CHARIOTS_RETURN_IF_ERROR(r.GetU64(&lid));
      if (maintainer_.IsInvalid(lid)) {
        return Status::Unavailable("INVALID_LID: position not yet validated");
      }
      Result<LogRecord> record = maintainer_.Read(lid);
      w.PutU64(lid);
      if (record.ok()) {
        w.PutU8(1);
        w.PutBytes(EncodeLogRecord(*record));
      } else if (record.status().code() == StatusCode::kNotFound ||
                 record.status().code() == StatusCode::kOutOfRange) {
        w.PutU8(0);
      } else {
        return record.status();
      }
    }
    return std::move(w).data();
  });

  endpoint_.Handle(kHeadOfLog, [this](const net::NodeId&, const std::string&)
                                   -> Result<std::string> {
    CHARIOTS_RETURN_IF_ERROR(replica_.CheckReadServing());
    return EncodeLId(maintainer_.HeadOfLog());
  });

  endpoint_.Handle(kAddEpoch, [this](const net::NodeId&,
                                     const std::string& payload)
                                  -> Result<std::string> {
    CHARIOTS_ASSIGN_OR_RETURN(StripeEpoch epoch, DecodeEpoch(payload));
    CHARIOTS_RETURN_IF_ERROR(maintainer_.AddEpoch(epoch));
    return std::string();
  });

  endpoint_.HandleOneWay(kGossip, [this](const net::NodeId&,
                                         std::string payload) {
    BinaryReader r(payload);
    uint32_t index = 0;
    LId first_unfilled = 0;
    if (r.GetU32(&index).ok() && r.GetU64(&first_unfilled).ok()) {
      maintainer_.OnGossip(index, first_unfilled);
    }
  });

  // Replica side of the INV leg: adopt the sender's epoch (stale rejects,
  // newer demotes a deposed coordinator back to replica), apply the batch
  // landing invalid, then mirror its dedup state so exactly-once survives a
  // failover. AlreadyExists with identical bytes is a retried/replayed
  // batch; with different bytes it is a cross-epoch replay overwriting a
  // divergent position (e.g. junk filled under an older view), which the
  // new coordinator's copy wins. The whole INV acts under the epoch lock.
  endpoint_.Handle(kInvalidate, [this](const net::NodeId&,
                                       const std::string& payload)
                                    -> Result<std::string> {
    CHARIOTS_ASSIGN_OR_RETURN(InvalidateRequest req,
                              DecodeInvalidateRequest(payload));
    EpochHold hold = HoldEpoch(req.epoch);
    CHARIOTS_RETURN_IF_ERROR(replica_.AcceptRemoteEpoch(req.epoch));
    InvalidationsCounter()->Add(req.entries.size());
    const Landing invalid{.invalid = true};
    for (const ReplicatedEntry& entry : req.entries) {
      CHARIOTS_ASSIGN_OR_RETURN(
          LogRecord record, DecodeLogRecord(entry.lid, entry.record_bytes));
      Status status = maintainer_.AppendAt(entry.lid, record, invalid);
      if (status.code() == StatusCode::kAlreadyExists) {
        maintainer_.MarkInvalid(entry.lid);  // until this round's VAL
        Result<LogRecord> existing = maintainer_.Read(entry.lid);
        if (existing.ok() &&
            EncodeLogRecord(*existing) != entry.record_bytes) {
          CHARIOTS_RETURN_IF_ERROR(maintainer_.Remove(entry.lid));
          CHARIOTS_RETURN_IF_ERROR(
              maintainer_.AppendAt(entry.lid, record, invalid));
        }
      } else {
        CHARIOTS_RETURN_IF_ERROR(status);
      }
    }
    if (!req.client_id.empty()) {
      CHARIOTS_RETURN_IF_ERROR(
          dedup_.Record(req.client_id, req.seq, req.response));
    }
    return std::string();
  }, kInline);

  // Replica side of the VAL leg: flip the listed positions readable and
  // fold in the coordinator's validated floor. Only the exact current
  // epoch counts — a deposed coordinator's stray VAL must not validate
  // positions its successor may junk-fill — and it stays current until the
  // VAL has acted: adopting a newer one waits for the epoch lock.
  endpoint_.HandleOneWay(kValidate, [this](const net::NodeId&,
                                           std::string payload) {
    Result<ValidateNotice> notice = DecodeValidateNotice(payload);
    if (!notice.ok()) return;
    std::shared_lock<std::shared_mutex> hold(epoch_mu_);
    if (replica_.fenced() || notice->epoch != replica_.epoch()) return;
    ValidationsCounter()->Add(notice->lids.size());
    for (LId lid : notice->lids) maintainer_.MarkValid(lid);
    AdvanceReplicatedFloor(notice->floor);
  }, kInline);

  // Promotion-replay source: a candidate coordinator pulling this node's
  // invalid window (positions applied here whose VAL never arrived —
  // exactly the writes the dead coordinator may have acked). Adopting the
  // caller's epoch is the point: it fences the dead coordinator out of
  // this replica for good.
  endpoint_.Handle(kFetchInvalid, [this](const net::NodeId&,
                                         const std::string& payload)
                                      -> Result<std::string> {
    BinaryReader r(payload);
    uint64_t epoch = 0;
    CHARIOTS_RETURN_IF_ERROR(r.GetU64(&epoch));
    {
      EpochHold hold = HoldEpoch(epoch);
      CHARIOTS_RETURN_IF_ERROR(replica_.AcceptRemoteEpoch(epoch));
    }
    std::vector<std::pair<LId, std::string>> entries =
        maintainer_.InvalidEntries();
    BinaryWriter w;
    w.PutU32(static_cast<uint32_t>(entries.size()));
    for (const auto& [lid, bytes] : entries) {
      w.PutU64(lid);
      w.PutBytes(bytes);
    }
    return std::move(w).data();
  });

  // Replica-set change from the controller (dead replica evicted): adopt
  // the bumped epoch and surviving peers, then replay any parked writes —
  // they were waiting on the dead peer and can complete now.
  endpoint_.Handle(kReconfigure, [this](const net::NodeId&,
                                        const std::string& payload)
                                     -> Result<std::string> {
    BinaryReader r(payload);
    uint64_t ctrl_epoch = 0;
    CHARIOTS_RETURN_IF_ERROR(r.GetU64(&ctrl_epoch));
    CHARIOTS_RETURN_IF_ERROR(CheckCtrlEpoch(ctrl_epoch));
    uint64_t new_epoch = 0;
    CHARIOTS_RETURN_IF_ERROR(r.GetU64(&new_epoch));
    uint32_t n = 0;
    CHARIOTS_RETURN_IF_ERROR(r.GetU32(&n));
    std::vector<net::NodeId> peers(n);
    for (uint32_t i = 0; i < n; ++i) {
      CHARIOTS_RETURN_IF_ERROR(r.GetBytes(&peers[i]));
    }
    {
      std::lock_guard<std::shared_mutex> adopt(epoch_mu_);
      CHARIOTS_RETURN_IF_ERROR(replica_.Reconfigure(new_epoch,
                                                    std::move(peers)));
    }
    Status replay = DriveReplication();
    if (!replay.ok()) {
      // Another peer died meanwhile; the next suspect round handles it.
      // Rate-limited: every retried append replays again until it heals.
      LOG_EVERY_N_SEC(kWarn, 5)
          << "post-reconfigure replay incomplete: " << replay.ToString();
    }
    return std::string();
  });

  // Liveness probe for the controller's suspect verification. Fenced nodes
  // answer Unavailable on purpose: a fenced ex-coordinator is as good as
  // dead and should be failed over without waiting out its lease.
  endpoint_.Handle(kPing, [this](const net::NodeId&, const std::string&)
                              -> Result<std::string> {
    CHARIOTS_RETURN_IF_ERROR(replica_.CheckReadServing());
    return std::string();
  });

  // Failover promotion (controller -> candidate): adopt the bumped fencing
  // epoch and the surviving peers, replay the in-flight writes (pull every
  // survivor's invalid window, merge, re-broadcast under the new epoch),
  // and junk-fill the true holes — positions the dead coordinator assigned
  // but never invalidated anywhere — so the Head of the Log can advance
  // past them. Responds with the filled positions. Idempotent under retry.
  endpoint_.Handle(kPromote, [this](const net::NodeId&,
                                    const std::string& payload)
                                 -> Result<std::string> {
    BinaryReader r(payload);
    uint64_t ctrl_epoch = 0;
    CHARIOTS_RETURN_IF_ERROR(r.GetU64(&ctrl_epoch));
    CHARIOTS_RETURN_IF_ERROR(CheckCtrlEpoch(ctrl_epoch));
    uint64_t new_epoch = 0;
    CHARIOTS_RETURN_IF_ERROR(r.GetU64(&new_epoch));
    uint32_t n = 0;
    CHARIOTS_RETURN_IF_ERROR(r.GetU32(&n));
    std::vector<net::NodeId> peers(n);
    for (uint32_t i = 0; i < n; ++i) {
      CHARIOTS_RETURN_IF_ERROR(r.GetBytes(&peers[i]));
    }
    {
      std::lock_guard<std::shared_mutex> adopt(epoch_mu_);
      CHARIOTS_RETURN_IF_ERROR(replica_.Promote(new_epoch, peers));
    }
    PromotionsCounter()->Add();
    // Role change: drop the cached tail so nothing assembled under the old
    // epoch can be served by the new coordinator.
    maintainer_.InvalidateTailCache();
    // Merge every surviving peer's invalid window into ours: a write the
    // dead coordinator acked is applied (invalid) on ALL replicas, so any
    // survivor — us included — holds it. Fetched positions are marked
    // invalid here too, putting them in the replay set below.
    for (const net::NodeId& peer : peers) {
      BinaryWriter fw;
      fw.PutU64(new_epoch);
      CHARIOTS_ASSIGN_OR_RETURN(
          std::string fetched,
          repl_endpoint_.Call(peer, kFetchInvalid, std::move(fw).data(),
                              std::chrono::milliseconds(1000)));
      BinaryReader fr(fetched);
      uint32_t m = 0;
      CHARIOTS_RETURN_IF_ERROR(fr.GetU32(&m));
      for (uint32_t i = 0; i < m; ++i) {
        LId lid = 0;
        std::string bytes;
        CHARIOTS_RETURN_IF_ERROR(fr.GetU64(&lid));
        CHARIOTS_RETURN_IF_ERROR(fr.GetBytes(&bytes));
        CHARIOTS_ASSIGN_OR_RETURN(LogRecord record,
                                  DecodeLogRecord(lid, bytes));
        Status status =
            maintainer_.AppendAt(lid, record, Landing{.invalid = true});
        if (status.code() != StatusCode::kAlreadyExists) {
          CHARIOTS_RETURN_IF_ERROR(status);
        }
        maintainer_.MarkInvalid(lid);
      }
    }
    // Junk-fill the true holes (nothing above covered them). They land
    // invalid on a replicated stripe, so the replay below re-broadcasts
    // them like any landed record.
    CHARIOTS_ASSIGN_OR_RETURN(
        std::vector<LId> filled,
        maintainer_.FillHoles(MakeJunkRecord(),
                              Landing{.invalid = replica_.replicates()}));
    if (!filled.empty()) {
      LOG_INFO << "promotion of maintainer " << maintainer_.index()
               << " junk-filled " << filled.size() << " orphaned positions";
    }
    // Replay: everything invalid here (own parked writes + merged windows +
    // fills) is now the authoritative copy. Re-broadcast it under the new
    // epoch and validate everywhere.
    CHARIOTS_RETURN_IF_ERROR(DriveReplication());
    maintainer_.MarkAllValid();
    BinaryWriter w;
    w.PutU32(static_cast<uint32_t>(filled.size()));
    for (LId lid : filled) w.PutU64(lid);
    return std::move(w).data();
  });

  // Junk-fill one orphaned position (repair tooling / peers unwedging HL).
  endpoint_.Handle(kFill, [this](const net::NodeId&,
                                 const std::string& payload)
                              -> Result<std::string> {
    metrics::ScopedLatencyTimer timer(FillHist());
    FillCounter()->Add();
    CHARIOTS_RETURN_IF_ERROR(replica_.CheckAppendServing());
    CHARIOTS_ASSIGN_OR_RETURN(LId lid, DecodeLId(payload));
    std::vector<ReplicatedEntry> batch;
    Status status = maintainer_.AppendAt(
        lid, MakeJunkRecord(lid),
        Landing{.invalid = replica_.replicates(), .collect = &batch});
    if (status.code() == StatusCode::kAlreadyExists) {
      return std::string();  // position is occupied — nothing to repair
    }
    CHARIOTS_RETURN_IF_ERROR(status);
    CHARIOTS_RETURN_IF_ERROR(AwaitReplicationRound(std::move(batch)));
    return std::string();
  });

  net::HandleHealthRpcs(&endpoint_, &watchdog_, kHealth, kFlightRec);

  // Layout change from the controller: stripe `index` has a new
  // coordinator.
  endpoint_.HandleOneWay(kPeerUpdate, [this](const net::NodeId&,
                                             std::string payload) {
    BinaryReader r(payload);
    uint64_t ctrl_epoch = 0;
    uint32_t index = 0;
    std::string node;
    if (r.GetU64(&ctrl_epoch).ok() && r.GetU32(&index).ok() &&
        r.GetBytes(&node).ok() && CheckCtrlEpoch(ctrl_epoch).ok()) {
      std::lock_guard<std::mutex> lock(peers_mu_);
      if (index >= peers_.size()) peers_.resize(index + 1);
      peers_[index] = node;
    }
  });
}

void MaintainerServer::HandleWrite(uint16_t type, bool tokened, LandFn land,
                                   net::RpcEndpoint::Dispatch dispatch) {
  endpoint_.HandleAsync(type, [this, tokened, land = std::move(land)](
                                  const net::NodeId&,
                                  const std::string& payload,
                                  net::RpcEndpoint::Reply reply) {
    AppendCounter()->Add();
    // flstore.append_ns spans the request to its reply, which leaves from
    // the round's last INV ack rather than from this handler.
    net::RpcEndpoint::Reply timed =
        [reply = std::move(reply),
         start = SystemClock::Default()->NowNanos()](
            Result<std::string> result) {
          AppendHist()->Record(static_cast<uint64_t>(
              SystemClock::Default()->NowNanos() - start));
          reply(std::move(result));
        };
    Status status = StartWrite(tokened, land, payload, timed);
    if (!status.ok()) timed(status);
  }, dispatch);
}

Status MaintainerServer::StartWrite(bool tokened, const LandFn& land,
                                    const std::string& payload,
                                    const net::RpcEndpoint::Reply& reply) {
  CHARIOTS_RETURN_IF_ERROR(replica_.CheckAppendServing());
  BinaryReader r(payload);
  WriteKey key;
  // Every reply leaves through `finish`; for a client write it closes the
  // write, answering every retry that joined it too.
  net::RpcEndpoint::Reply finish = reply;
  if (tokened) {
    CHARIOTS_RETURN_IF_ERROR(r.GetBytes(&key.first));
    CHARIOTS_RETURN_IF_ERROR(r.GetU64(&key.second));
    // The token is claimed before anything lands: a retry of an open
    // write, or a copy of it running beside this request, joins it instead
    // of landing the record twice.
    {
      std::lock_guard<std::mutex> lock(writes_mu_);
      auto [open, claimed] = open_writes_.try_emplace(key);
      open->second.push_back(reply);
      if (!claimed) return Status::OK();
    }
    finish = [this, key](Result<std::string> result) {
      CloseWrite(key, std::move(result));
    };
    // A token the dedup window has already executed short-circuits to the
    // cached response, so a retry whose original *response* was lost
    // returns the same LIds instead of appending twice. Under replication
    // the short-circuit first replays any parked (invalid) writes: an
    // append whose INV round failed recorded its dedup state but never
    // acked, and its retry is what completes the round. The reply leaves
    // from the replay round's completion.
    Result<std::optional<std::string>> cached =
        dedup_.Lookup(key.first, key.second);
    if (!cached.ok()) {
      finish(cached.status());
      return Status::OK();
    }
    if (cached->has_value()) {
      ReplayParked([finish, response = std::move(**cached)](Status replayed) {
        if (replayed.ok()) {
          finish(response);
        } else {
          finish(std::move(replayed));
        }
      });
      return Status::OK();
    }
  }
  // Records land invalid under the replication protocol (Hermes):
  // unreadable until every peer acked the INV. Records landed outside it
  // (solo stripes) stay valid. A failed landing landed nothing.
  std::vector<ReplicatedEntry> batch;
  Result<std::string> landed =
      land(r, Landing{.invalid = replica_.replicates(), .collect = &batch});
  if (!landed.ok()) {
    finish(landed.status());
    return Status::OK();
  }
  std::string response = *std::move(landed);
  RunReplicationRound(
      std::move(batch), key.first, key.second, response,
      [this, tokened, key, response, finish](Status status,
                                             const net::NodeId& parked) {
        Result<std::string> result =
            status.ok() ? Result<std::string>(response) : status;
        // A parked write remembers its response too, so the retry that
        // replays it acks with the same LIds. Record before closing the
        // write: a retry arriving in between must find either the open
        // write or the dedup entry.
        if (tokened && (status.ok() || !parked.empty())) {
          Status recorded = dedup_.Record(key.first, key.second, response);
          if (status.ok() && !recorded.ok()) result = recorded;
        }
        finish(std::move(result));
      });
  return Status::OK();
}

void MaintainerServer::CloseWrite(const WriteKey& key,
                                  Result<std::string> result) {
  std::vector<net::RpcEndpoint::Reply> replies;
  {
    std::lock_guard<std::mutex> lock(writes_mu_);
    auto open = open_writes_.find(key);
    replies = std::move(open->second);
    open_writes_.erase(open);
  }
  for (const net::RpcEndpoint::Reply& waiting : replies) waiting(result);
}

MaintainerServer::EpochHold MaintainerServer::HoldEpoch(uint64_t epoch) {
  // The epoch only grows, so one no newer than ours at this check is no
  // newer later: a shared hold never adopts.
  EpochHold hold;
  if (epoch > replica_.epoch()) {
    hold.exclusive = std::unique_lock<std::shared_mutex>(epoch_mu_);
  } else {
    hold.shared = std::shared_lock<std::shared_mutex>(epoch_mu_);
  }
  return hold;
}

void MaintainerServer::RunReplicationRound(std::vector<ReplicatedEntry> batch,
                                           const std::string& client_id,
                                           uint64_t seq,
                                           const std::string& response,
                                           ReplicaGroup::RoundDone done) {
  Clock* clock =
      options_.clock != nullptr ? options_.clock : SystemClock::Default();
  const int64_t round_start = clock->NowNanos();
  std::vector<LId> lids = BatchLids(batch);
  LId top = BatchTop(batch);
  flightrec::Record(flightrec::EventType::kReplInv, 0, maintainer_.index(),
                    top == kInvalidLId ? 0 : top, batch.size());
  replica_.InvalidateBroadcast(
      std::move(batch), client_id, seq, response,
      [this, clock, round_start, lids = std::move(lids), top,
       done = std::move(done)](Status status,
                               const net::NodeId& unreachable) {
        // Failed rounds count toward the SLO too: a round that times out
        // against a gray peer is exactly the latency the watchdog exists
        // to catch.
        repl_round_ns_.Record(
            static_cast<uint64_t>(clock->NowNanos() - round_start));
        if (!status.ok()) {
          // Our own shutdown fails in-flight INVs too; that says nothing
          // about the peer.
          if (unreachable.empty() || stop_.load()) {
            done(status, net::NodeId());
            return;
          }
          // Park the write: the batch stays applied-but-invalid, and the
          // suspect report lets the controller evict the dead peer — after
          // which a retry of the same token (or the reconfigure itself)
          // replays the round. No fencing: a dead *replica* must not take
          // the coordinator down with it.
          SuspectPeer(unreachable);
          done(status, unreachable);
          return;
        }
        // Every peer acked: the batch is durable everywhere. Validate it
        // locally, advance the floor, and flip it readable on the peers.
        for (LId lid : lids) maintainer_.MarkValid(lid);
        NoteReplicated(top);
        if (!lids.empty() && replica_.replicates()) {
          replica_.ValidateBroadcast(
              lids, replicated_floor_.load(std::memory_order_acquire));
        }
        flightrec::Record(
            flightrec::EventType::kReplVal, 0, maintainer_.index(),
            top == kInvalidLId ? 0 : top,
            static_cast<uint64_t>(clock->NowNanos() - round_start));
        done(Status::OK(), net::NodeId());
      });
}

Status MaintainerServer::AwaitReplicationRound(
    std::vector<ReplicatedEntry> batch) {
  return WaitForRound([&](std::function<void(Status)> done) {
    RunReplicationRound(std::move(batch), "", 0, "",
                        [done = std::move(done)](Status status,
                                                 const net::NodeId&) {
                          done(std::move(status));
                        });
  });
}

void MaintainerServer::ReplayParked(std::function<void(Status)> done) {
  if (!replica_.replicates()) {
    // No peers to replicate to. A coordinator whose last replica was just
    // evicted (or a solo node) validates its parked positions locally — the
    // local copy is authoritative now. A replica never gets here (every
    // caller sits behind CheckAppendServing or a promotion).
    if (replica_.role() != ReplicaRole::kReplica &&
        maintainer_.InvalidCount() > 0) {
      maintainer_.MarkAllValid();
    }
    done(Status::OK());
    return;
  }
  std::vector<std::pair<LId, std::string>> invalid;
  if (maintainer_.InvalidCount() > 0) invalid = maintainer_.InvalidEntries();
  if (invalid.empty()) {
    done(Status::OK());
    return;
  }
  std::vector<ReplicatedEntry> entries;
  entries.reserve(invalid.size());
  for (auto& [lid, bytes] : invalid) {
    entries.push_back(ReplicatedEntry{lid, std::move(bytes)});
  }
  const size_t count = entries.size();
  RunReplicationRound(std::move(entries), "", 0, "",
                      [count, done = std::move(done)](Status status,
                                                      const net::NodeId&) {
                        if (status.ok()) ReplaysCounter()->Add(count);
                        done(std::move(status));
                      });
}

Status MaintainerServer::DriveReplication() {
  return WaitForRound([this](std::function<void(Status)> done) {
    ReplayParked(std::move(done));
  });
}

void MaintainerServer::SuspectPeer(const net::NodeId& suspect) {
  BinaryWriter w;
  w.PutU32(maintainer_.index());
  w.PutBytes(suspect);
  std::string payload = std::move(w).data();
  // One-way: the report runs on a delivery thread and must not wait for the
  // controller, whose follow-up (kReconfigure) comes back to our main
  // endpoint. Every controller replica gets the report; only the leader
  // acts on it.
  for (const net::NodeId& ctrl : ControllerTargets()) {
    (void)repl_endpoint_.Notify(ctrl, kSuspect, payload);
  }
}

void MaintainerServer::NoteReplicated(LId top_lid) {
  if (top_lid == kInvalidLId) return;
  LId acked = acked_floor_.load(std::memory_order_relaxed);
  while (acked < top_lid + 1 &&
         !acked_floor_.compare_exchange_weak(acked, top_lid + 1,
                                             std::memory_order_relaxed)) {
  }
  // Rounds overlap, so a round above this one may still be open or parked:
  // the floor stops at the first position not yet validated. A landing
  // marks its positions invalid in the lock hold that plans them
  // (Landing::invalid), and landings are serialized, so a landing running
  // beside this completion is in the invalid window before any higher
  // position is planned, and reading the window after validating our own
  // batch can only under-count.
  AdvanceReplicatedFloor(
      std::min(acked_floor_.load(std::memory_order_relaxed),
               maintainer_.FirstInvalid()));
}

void MaintainerServer::AdvanceReplicatedFloor(LId floor) {
  LId current = replicated_floor_.load(std::memory_order_relaxed);
  while (current < floor &&
         !replicated_floor_.compare_exchange_weak(
             current, floor, std::memory_order_release,
             std::memory_order_relaxed)) {
  }
}

LId MaintainerServer::CacheableHl() const {
  LId hl = maintainer_.HeadOfLog();
  if (replica_.in_replica_set()) {
    hl = std::min(hl, replicated_floor_.load(std::memory_order_acquire));
  }
  return hl;
}

void MaintainerServer::GossipOnce() {
  if (stop_.load(std::memory_order_relaxed)) return;
  BinaryWriter w;
  w.PutU32(maintainer_.index());
  w.PutU64(maintainer_.FirstUnfilledGlobal());
  std::string payload = std::move(w).data();
  std::vector<net::NodeId> peers;
  {
    std::lock_guard<std::mutex> lock(peers_mu_);
    peers = peers_;
  }
  for (size_t i = 0; i < peers.size(); ++i) {
    if (i == maintainer_.index()) continue;
    (void)endpoint_.Notify(peers[i], kGossip, payload);
  }
  gossip_rounds_.fetch_add(1, std::memory_order_relaxed);
}

void MaintainerServer::HeartbeatOnce() {
  if (stop_.load(std::memory_order_relaxed)) return;
  // Only the serving coordinator heartbeats: a replica must not keep its
  // dead coordinator's lease alive, and a fenced coordinator must *let*
  // its lease lapse so the controller promotes a replica.
  if (!replica_.CheckAppendServing().ok()) return;
  BinaryWriter w;
  w.PutU32(maintainer_.index());
  std::string payload = std::move(w).data();
  // All controller replicas track leases, so whoever wins the next
  // election already has a live picture of this stripe.
  for (const net::NodeId& ctrl : ControllerTargets()) {
    (void)endpoint_.Notify(ctrl, kHeartbeat, payload);
  }
}

void MaintainerServer::PublishPostings(const LogRecord& record, LId lid) {
  for (const Tag& tag : record.tags) {
    uint32_t idx = IndexerForKey(
        tag.key, static_cast<uint32_t>(options_.indexers.size()));
    BinaryWriter w;
    w.PutBytes(tag.key);
    w.PutBytes(tag.value);
    w.PutU64(lid);
    (void)endpoint_.Notify(options_.indexers[idx], kIndexAdd,
                           std::move(w).data());
  }
}

// ------------------------------------------------------------------ indexer

IndexerServer::IndexerServer(net::Transport* transport, net::NodeId node)
    : endpoint_(transport, std::move(node)) {}

IndexerServer::~IndexerServer() { Stop(); }

Status IndexerServer::Start() {
  endpoint_.Handle(kIndexLookup, [this](const net::NodeId&,
                                        const std::string& payload)
                                     -> Result<std::string> {
    CHARIOTS_ASSIGN_OR_RETURN(IndexQuery query, DecodeIndexQuery(payload));
    return EncodePostings(indexer_.Lookup(query));
  });
  endpoint_.HandleOneWay(kIndexAdd, [this](const net::NodeId&,
                                           std::string payload) {
    BinaryReader r(payload);
    std::string key, value;
    LId lid = 0;
    if (r.GetBytes(&key).ok() && r.GetBytes(&value).ok() &&
        r.GetU64(&lid).ok()) {
      indexer_.Add(key, value, lid);
    }
  });
  return endpoint_.Start();
}

void IndexerServer::Stop() { endpoint_.Stop(); }

// --------------------------------------------------------------- controller

ControllerServer::ControllerServer(net::Transport* transport,
                                   net::NodeId node, ClusterInfo initial,
                                   ControllerServerOptions options)
    : controller_(std::move(initial), options.controller),
      options_(options),
      executor_(options_.executor != nullptr ? options_.executor
                                             : Executor::Default()),
      node_(node),
      endpoint_(transport, std::move(node)),
      leader_lease_(options_.controller.clock, options_.leader_lease_nanos),
      watchdog_({.node = node_,
                 .clock = options_.controller.clock,
                 .tick_interval_nanos = options_.watchdog_interval_nanos,
                 .breach_dump_path = options_.breach_dump_path}) {}

ControllerServer::~ControllerServer() { Stop(); }

Status ControllerServer::Start() {
  CHARIOTS_RETURN_IF_ERROR(controller_.Open());
  RegisterControllerMetrics();
  net::RegisterRpcMetrics();
  RegisterHealthMetrics();
  flightrec::RegisterFlightRecorderMetrics();
  // Election churn: a healthy cluster elects rarely; a flapping leader (or
  // dueling candidates on a lossy link) elects every lease period.
  watchdog_.AddRateProbe(
      node_ + ".elections", [] { return ElectionsCounter()->Value(); },
      options_.max_elections_per_tick);
  net::HandleHealthRpcs(&endpoint_, &watchdog_, kHealth, kFlightRec);
  endpoint_.Handle(kGetClusterInfo, [this](const net::NodeId&,
                                           const std::string&)
                                        -> Result<std::string> {
    return EncodeClusterInfo(controller_.GetInfo());
  });
  endpoint_.Handle(kControllerAddMaintainer,
                   [this](const net::NodeId&, const std::string& payload)
                       -> Result<std::string> {
                     CHARIOTS_RETURN_IF_ERROR(RequireLeader());
                     CHARIOTS_RETURN_IF_ERROR(ConfirmLeadership());
                     BinaryReader r(payload);
                     std::string node;
                     CHARIOTS_RETURN_IF_ERROR(r.GetBytes(&node));
                     std::string epoch_bytes;
                     CHARIOTS_RETURN_IF_ERROR(r.GetBytes(&epoch_bytes));
                     CHARIOTS_ASSIGN_OR_RETURN(StripeEpoch epoch,
                                               DecodeEpoch(epoch_bytes));
                     uint64_t expected_version = 0;
                     CHARIOTS_RETURN_IF_ERROR(r.GetU64(&expected_version));
                     CHARIOTS_RETURN_IF_ERROR(controller_.AddMaintainer(
                         node, epoch, expected_version));
                     ReplicateState();
                     return std::string();
                   });
  endpoint_.HandleOneWay(kHeartbeat, [this](const net::NodeId& from,
                                            std::string payload) {
    BinaryReader r(payload);
    uint32_t index = 0;
    if (r.GetU32(&index).ok()) controller_.Heartbeat(index, from);
  });
  // The suspect fast path, registered twice on purpose: clients Call it
  // synchronously when a coordinator stops answering (the failover runs
  // inside the call — that is the sub-lease MTTR path), and coordinators
  // Notify it one-way when a replica stops acking INVs.
  endpoint_.Handle(kSuspect, [this](const net::NodeId&,
                                    const std::string& payload)
                                 -> Result<std::string> {
    return HandleSuspect(payload);
  });
  endpoint_.HandleOneWay(kSuspect, [this](const net::NodeId&,
                                          std::string payload) {
    Result<std::string> result = HandleSuspect(payload);
    if (!result.ok()) {
      LOG_EVERY_N_SEC(kWarn, 5)
          << "suspect report not actionable: " << result.status().ToString();
    }
  });
  // -------------------------------------------------- replicated control plane
  endpoint_.Handle(kCtrlStatus, [this](const net::NodeId&, const std::string&)
                                    -> Result<std::string> {
    ClusterInfo info = controller_.GetInfo();
    BinaryWriter w;
    w.PutU64(info.ctrl_epoch);
    w.PutU64(info.version);
    w.PutU8(IsLeader() ? 1 : 0);
    w.PutBytes(leader());
    std::optional<int64_t> lease = leader_lease_.RemainingNanos(0);
    w.PutU64(static_cast<uint64_t>(lease.value_or(INT64_MIN)));
    w.PutU32(static_cast<uint32_t>(info.maintainers.size()));
    for (uint32_t i = 0; i < info.maintainers.size(); ++i) {
      w.PutBytes(info.maintainers[i]);
      w.PutU64(info.fence_epochs[i]);
      std::optional<int64_t> stripe = controller_.LeaseRemainingNanos(i);
      w.PutU64(static_cast<uint64_t>(stripe.value_or(INT64_MIN)));
      w.PutU32(static_cast<uint32_t>(info.replicas[i].size()));
      for (const net::NodeId& node : info.replicas[i]) w.PutBytes(node);
    }
    return std::move(w).data();
  });
  endpoint_.HandleOneWay(kCtrlLeaderBeat, [this](const net::NodeId&,
                                                 std::string payload) {
    BinaryReader r(payload);
    uint64_t epoch = 0;
    std::string from;
    if (r.GetU64(&epoch).ok() && r.GetBytes(&from).ok()) {
      OnLeaderBeat(epoch, from);
    }
  });
  endpoint_.Handle(kCtrlVote, [this](const net::NodeId&,
                                     const std::string& payload)
                                  -> Result<std::string> {
    BinaryReader r(payload);
    uint64_t epoch = 0;
    CHARIOTS_RETURN_IF_ERROR(r.GetU64(&epoch));
    CHARIOTS_ASSIGN_OR_RETURN(bool granted, controller_.GrantVote(epoch));
    if (granted) {
      // Someone is campaigning with our blessing; hold our own ambitions
      // for a full period so the election can finish.
      leader_lease_.Renew(0);
    }
    BinaryWriter w;
    w.PutU8(granted ? 1 : 0);
    w.PutU64(controller_.ctrl_epoch());
    w.PutU64(controller_.version());
    return std::move(w).data();
  });
  endpoint_.Handle(kCtrlConfirm, [this](const net::NodeId&,
                                        const std::string& payload)
                                     -> Result<std::string> {
    BinaryReader r(payload);
    uint64_t epoch = 0;
    CHARIOTS_RETURN_IF_ERROR(r.GetU64(&epoch));
    if (epoch < controller_.ctrl_epoch() ||
        epoch < controller_.max_granted_epoch()) {
      return Status::Aborted("a higher controller epoch exists");
    }
    leader_lease_.Renew(0);  // the confirming leader is evidently alive
    return std::string();
  });
  endpoint_.Handle(kCtrlReplicateState, [this](const net::NodeId& from,
                                               const std::string& payload)
                                            -> Result<std::string> {
    CHARIOTS_ASSIGN_OR_RETURN(ClusterInfo info, DecodeClusterInfo(payload));
    CHARIOTS_RETURN_IF_ERROR(controller_.InstallReplicatedState(info));
    OnLeaderBeat(info.ctrl_epoch, from);
    return std::string();
  });
  CHARIOTS_RETURN_IF_ERROR(endpoint_.Start());
  if (options_.peers.empty()) {
    // Single-controller deployment: leader by construction (pre-HA
    // behavior), but still complete anything the meta WAL recovered.
    {
      std::lock_guard<std::mutex> lock(lead_mu_);
      is_leader_ = true;
      leader_ = node_;
    }
    CompleteRecoveredPlans();
  } else {
    // Replicated: everyone starts as a follower with an armed leader
    // lease, so a cluster whose leader never shows up elects one within a
    // lease period — including at first boot.
    leader_lease_.Renew(0);
  }
  if (options_.monitor_interval_nanos > 0) {
    // TickControl() issues blocking Call()s from a worker — safe because
    // the transports deliver responses out-of-band (inline on the
    // delivering thread), never through the worker pool.
    monitor_token_ = executor_->ScheduleEvery(
        options_.monitor_interval_nanos, [this] {
          if (!stop_.load(std::memory_order_relaxed)) TickControl();
        });
  }
  if (options_.watchdog_interval_nanos > 0) watchdog_.Start(executor_);
  return Status::OK();
}

void ControllerServer::Stop() {
  bool expected = false;
  if (!stop_.compare_exchange_strong(expected, true)) {
    endpoint_.Stop();
    return;
  }
  watchdog_.Stop();
  monitor_token_.Cancel();
  endpoint_.Stop();
  (void)controller_.Close();
}

bool ControllerServer::IsLeader() const {
  std::lock_guard<std::mutex> lock(lead_mu_);
  return is_leader_;
}

net::NodeId ControllerServer::leader() const {
  std::lock_guard<std::mutex> lock(lead_mu_);
  return leader_;
}

Status ControllerServer::RequireLeader() const {
  std::lock_guard<std::mutex> lock(lead_mu_);
  if (is_leader_) return Status::OK();
  return Status::Unavailable(
      "NOT_LEADER: controller leader is " +
      (leader_.empty() ? std::string("unknown") : leader_));
}

void ControllerServer::OnLeaderBeat(uint64_t epoch, const net::NodeId& from) {
  if (from == node_) return;
  if (epoch < controller_.ctrl_epoch()) return;  // a deposed leader's stray
  (void)controller_.AdoptCtrlEpoch(epoch);
  leader_lease_.Renew(0);
  std::lock_guard<std::mutex> lock(lead_mu_);
  leader_ = from;
  if (is_leader_) {
    // Two leaders just met (healed partition); the higher epoch wins, and
    // it is not us. Converging on one layout starts with stepping down.
    LOG_INFO << "controller " << node_ << " deposed by " << from
             << " (epoch " << epoch << ")";
    is_leader_ = false;
  }
}

Status ControllerServer::Campaign() {
  const size_t cluster = options_.peers.size() + 1;
  uint64_t cur = std::max(controller_.ctrl_epoch(),
                          controller_.max_granted_epoch());
  uint64_t next = cur + 1;
  while (next % cluster != options_.replica_index) ++next;
  // Vote for ourselves first, durably: a crash between here and winning
  // must not let this replica hand `next` to someone else later.
  CHARIOTS_ASSIGN_OR_RETURN(bool self_granted, controller_.GrantVote(next));
  if (!self_granted) {
    return Status::Aborted("already granted a vote past this epoch");
  }
  size_t votes = 1;
  uint64_t best_ce = controller_.ctrl_epoch();
  uint64_t best_v = controller_.version();
  net::NodeId best_peer;
  BinaryWriter w;
  w.PutU64(next);
  std::string request = std::move(w).data();
  for (const net::NodeId& peer : options_.peers) {
    Result<std::string> rsp = endpoint_.Call(
        peer, kCtrlVote, request, std::chrono::milliseconds(500));
    if (!rsp.ok()) continue;
    BinaryReader r(*rsp);
    uint8_t granted = 0;
    uint64_t ce = 0, v = 0;
    if (!r.GetU8(&granted).ok() || !r.GetU64(&ce).ok() || !r.GetU64(&v).ok()) {
      continue;
    }
    if (granted == 0) continue;
    ++votes;
    if (std::tie(ce, v) > std::tie(best_ce, best_v)) {
      best_ce = ce;
      best_v = v;
      best_peer = peer;
    }
  }
  if (2 * votes <= cluster) {
    // Lost (or partitioned from the majority). Re-arm the leader lease so
    // we back off a full period instead of spinning elections.
    leader_lease_.Renew(0);
    flightrec::Record(flightrec::EventType::kElection, 0,
                      options_.replica_index, next, 0);
    return Status::Aborted("lost election (no majority)");
  }
  if (!best_peer.empty()) {
    // A voter acknowledged a commit we never saw (we missed the previous
    // leader's last ReplicateState). Pull it before serving anything.
    Result<std::string> newer = endpoint_.Call(
        best_peer, kGetClusterInfo, std::string(),
        std::chrono::milliseconds(500));
    if (newer.ok()) {
      Result<ClusterInfo> info = DecodeClusterInfo(*newer);
      if (info.ok()) (void)controller_.InstallReplicatedState(*info);
    }
  }
  CHARIOTS_RETURN_IF_ERROR(controller_.AdoptCtrlEpoch(next));
  {
    std::lock_guard<std::mutex> lock(lead_mu_);
    is_leader_ = true;
    leader_ = node_;
  }
  ElectionsCounter()->Add();
  flightrec::Record(flightrec::EventType::kElection, 0,
                    options_.replica_index, next, 1);
  LOG_INFO << "controller " << node_ << " won election for epoch " << next;
  BroadcastBeat();
  ReplicateState();
  CompleteRecoveredPlans();
  return Status::OK();
}

Status ControllerServer::ConfirmLeadership() {
  if (options_.peers.empty()) return Status::OK();
  const size_t cluster = options_.peers.size() + 1;
  BinaryWriter w;
  w.PutU64(controller_.ctrl_epoch());
  std::string request = std::move(w).data();
  size_t acks = 1;  // self
  for (const net::NodeId& peer : options_.peers) {
    if (endpoint_
            .Call(peer, kCtrlConfirm, request, std::chrono::milliseconds(200))
            .ok()) {
      ++acks;
    }
  }
  if (2 * acks <= cluster) {
    return Status::Unavailable(
        "NOT_LEADER: lost contact with the controller majority");
  }
  return Status::OK();
}

void ControllerServer::ReplicateState() {
  if (options_.peers.empty()) return;
  std::string payload = EncodeClusterInfo(controller_.GetInfo());
  for (const net::NodeId& peer : options_.peers) {
    Result<std::string> pushed = endpoint_.Call(
        peer, kCtrlReplicateState, payload, std::chrono::milliseconds(500));
    if (!pushed.ok()) {
      // Best-effort: a follower that missed this catches up from a voter
      // at its next election, or from our next push.
      LOG_EVERY_N_SEC(kWarn, 5) << "layout replication to " << peer
                                << " failed: " << pushed.status().ToString();
    }
  }
}

void ControllerServer::BroadcastBeat() {
  if (options_.peers.empty()) return;
  // Renew our own copy of the leader lease too: the leader branch never
  // consults it, but kCtrlStatus reports it, and letting it lapse would
  // show operators a negative countdown on the leader itself. It also
  // buys a full back-off period before re-campaigning if we are deposed.
  leader_lease_.Renew(0);
  BinaryWriter w;
  w.PutU64(controller_.ctrl_epoch());
  w.PutBytes(node_);
  std::string payload = std::move(w).data();
  for (const net::NodeId& peer : options_.peers) {
    (void)endpoint_.Notify(peer, kCtrlLeaderBeat, payload);
  }
}

int ControllerServer::CompleteRecoveredPlans() {
  int resolved = 0;
  for (const FailoverPlan& plan : controller_.InflightFailovers()) {
    PlanReplaysCounter()->Add();
    LOG_INFO << "re-driving recovered failover plan for stripe "
             << plan.index << " (candidate " << plan.candidate << ")";
    (void)ExecuteFailover(plan, /*recheck_lease=*/true);  // resolves either way
    ++resolved;
  }
  for (const ReplicaRemoval& removal : controller_.InflightRemovals()) {
    PlanReplaysCounter()->Add();
    LOG_INFO << "re-driving recovered eviction plan for stripe "
             << removal.index << " (replica " << removal.removed << ")";
    (void)ExecuteRemoval(removal);
    ++resolved;
  }
  return resolved;
}

int ControllerServer::TickControl() {
  if (stop_.load(std::memory_order_relaxed)) return 0;
  std::optional<int64_t> lease = leader_lease_.RemainingNanos(0);
  flightrec::Record(flightrec::EventType::kLeaseTick, IsLeader() ? 1 : 0,
                    options_.replica_index, controller_.ctrl_epoch(),
                    static_cast<uint64_t>(std::max<int64_t>(
                        0, lease.value_or(0))));
  if (IsLeader()) {
    BroadcastBeat();
    return TickLeases();
  }
  if (!options_.peers.empty() && !leader_lease_.Held(0)) {
    (void)Campaign();
  }
  return 0;
}

Status ControllerServer::ExecuteFailover(const FailoverPlan& plan,
                                         bool recheck_lease) {
  if (recheck_lease) {
    if (controller_.LeaseHeld(plan.index)) {
      // A heartbeat slipped in between planning and acting (a healed
      // partition, a late heartbeat): the coordinator is alive, the plan's
      // premise is gone.
      FailoverAbortCounter()->Add();
      controller_.AbortFailover(plan.index);
      return Status::Aborted(
          "coordinator heartbeat resumed; failover aborted");
    }
    if (options_.probe_before_failover) {
      Result<std::string> pong =
          endpoint_.Call(plan.failed_primary, kPing, "",
                         std::chrono::milliseconds(100));
      if (pong.ok()) {
        // Probe-reachable means alive: only its heartbeats are cut (an
        // asymmetric partition, a gray link). Evicting it would trade a
        // healthy coordinator for churn.
        FalseSuspectsCounter()->Add();
        FailoverAbortCounter()->Add();
        controller_.AbortFailover(plan.index);
        return Status::Aborted(
            "coordinator answered liveness probe; failover aborted");
      }
    }
  }
  // A minority-partitioned (or deposed) leader must not move a stripe:
  // majority-confirm the leadership immediately before acting.
  Status confirmed = ConfirmLeadership();
  if (!confirmed.ok()) {
    FailoverAbortCounter()->Add();
    controller_.AbortFailover(plan.index);
    return confirmed;
  }
  // Two-phase: promote the candidate over RPC first; only a confirmed
  // promotion changes the layout. A lost response retries the (idempotent)
  // promotion later via AbortFailover's re-armed lease.
  BinaryWriter w;
  w.PutU64(controller_.ctrl_epoch());
  w.PutU64(plan.new_epoch);
  w.PutU32(static_cast<uint32_t>(plan.survivors.size()));
  for (const net::NodeId& peer : plan.survivors) w.PutBytes(peer);
  Result<std::string> promoted = endpoint_.Call(
      plan.candidate, kPromote, std::move(w).data(),
      std::chrono::milliseconds(1000));
  if (!promoted.ok()) {
    // Rate-limited: the lease monitor retries this every period while the
    // candidate stays unreachable.
    LOG_EVERY_N_SEC(kWarn, 5)
        << "promotion of " << plan.candidate << " for stripe " << plan.index
        << " failed: " << promoted.status().ToString();
    FailoverAbortCounter()->Add();
    controller_.AbortFailover(plan.index);
    return promoted.status();
  }
  Status status = controller_.CommitFailover(plan);
  if (!status.ok()) {
    LOG_EVERY_N_SEC(kWarn, 5) << "failover commit for stripe " << plan.index
                              << " failed: " << status.ToString();
    return status;
  }
  FailoverCommitCounter()->Add();
  ReplicateState();
  // Tell the surviving maintainers (including the promoted one) where the
  // stripe now lives, so gossip keeps flowing to the right node.
  BinaryWriter update;
  update.PutU64(controller_.ctrl_epoch());
  update.PutU32(plan.index);
  update.PutBytes(plan.candidate);
  std::string update_bytes = std::move(update).data();
  for (const net::NodeId& peer : controller_.GetInfo().maintainers) {
    (void)endpoint_.Notify(peer, kPeerUpdate, update_bytes);
  }
  return Status::OK();
}

Status ControllerServer::ExecuteRemoval(const ReplicaRemoval& removal) {
  Status confirmed = ConfirmLeadership();
  if (!confirmed.ok()) {
    controller_.AbortReplicaRemoval(removal.index);
    return confirmed;
  }
  BinaryWriter w;
  w.PutU64(controller_.ctrl_epoch());
  w.PutU64(removal.new_epoch);
  w.PutU32(static_cast<uint32_t>(removal.survivors.size()));
  for (const net::NodeId& peer : removal.survivors) w.PutBytes(peer);
  Result<std::string> reconfigured = endpoint_.Call(
      removal.coordinator, kReconfigure, std::move(w).data(),
      std::chrono::milliseconds(1000));
  if (!reconfigured.ok()) {
    controller_.AbortReplicaRemoval(removal.index);
    return reconfigured.status();
  }
  CHARIOTS_RETURN_IF_ERROR(controller_.CommitReplicaRemoval(removal));
  ReplicateState();
  return Status::OK();
}

Result<std::string> ControllerServer::HandleSuspect(
    const std::string& payload) {
  // Followers redirect: only the leader reconfigures. The reporter's
  // controller channel rotates on kUnavailable until it finds the leader.
  CHARIOTS_RETURN_IF_ERROR(RequireLeader());
  BinaryReader r(payload);
  uint32_t index = 0;
  std::string suspect;
  CHARIOTS_RETURN_IF_ERROR(r.GetU32(&index));
  CHARIOTS_RETURN_IF_ERROR(r.GetBytes(&suspect));
  auto detect_start = std::chrono::steady_clock::now();
  ClusterInfo info = controller_.GetInfo();
  if (index >= info.maintainers.size()) {
    return Status::InvalidArgument("no such maintainer stripe");
  }
  const bool is_coordinator = info.maintainers[index] == suspect;
  const std::vector<net::NodeId>& replicas = info.replicas[index];
  const bool is_replica =
      std::find(replicas.begin(), replicas.end(), suspect) != replicas.end();
  if (!is_coordinator && !is_replica) {
    // Stale report: the layout already moved past this node — the reporter
    // just needs to refresh.
    return std::string(1, '\x01');
  }
  // Trust but verify: one cheap probe before touching the layout. A dead
  // or stopped node fails this in microseconds (unreachable destinations
  // fail fast); a fenced one answers Unavailable, which is just as
  // disqualifying.
  Result<std::string> pong = endpoint_.Call(
      suspect, kPing, std::string(), std::chrono::milliseconds(100));
  if (pong.ok()) {
    // False alarm — probe-reachable means alive, however slow (gray
    // failure): never evict on a report alone. Count it as a heartbeat so
    // one slow reply doesn't let the lease lapse right after.
    FalseSuspectsCounter()->Add();
    if (is_coordinator) controller_.Heartbeat(index, suspect);
    return std::string(1, '\x00');
  }
  if (is_coordinator) {
    CHARIOTS_ASSIGN_OR_RETURN(FailoverPlan plan,
                              controller_.PlanFailover(index));
    CHARIOTS_RETURN_IF_ERROR(ExecuteFailover(plan, /*recheck_lease=*/false));
    MttrHist()->Record(static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - detect_start)
            .count()));
    return std::string(1, '\x01');
  }
  // Dead replica: evict it so the coordinator's writes stop waiting on it.
  CHARIOTS_ASSIGN_OR_RETURN(ReplicaRemoval removal,
                            controller_.PlanReplicaRemoval(index, suspect));
  CHARIOTS_RETURN_IF_ERROR(ExecuteRemoval(removal));
  MttrHist()->Record(static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - detect_start)
          .count()));
  return std::string(1, '\x01');
}

int ControllerServer::TickLeases() {
  if (!IsLeader()) return 0;
  int committed = 0;
  for (const FailoverPlan& plan : controller_.ExpiredLeases()) {
    LeaseExpiryCounter()->Add();
    auto sweep_start = std::chrono::steady_clock::now();
    if (ExecuteFailover(plan, /*recheck_lease=*/true).ok()) {
      ++committed;
      // Lease-path MTTR includes the lease the stripe had to wait out
      // before this sweep could even see the expiry — that is what a
      // client experienced when no suspect report short-circuited it.
      MttrHist()->Record(
          static_cast<uint64_t>(controller_.lease_nanos()) +
          static_cast<uint64_t>(
              std::chrono::duration_cast<std::chrono::nanoseconds>(
                  std::chrono::steady_clock::now() - sweep_start)
                  .count()));
    }
  }
  return committed;
}

}  // namespace chariots::flstore
