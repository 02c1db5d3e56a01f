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

/// Payload of kPromote and kReconfigure: the controller epoch, then the
/// stripe's new fencing epoch and its peers.
struct EpochChange {
  uint64_t ctrl_epoch = 0;
  uint64_t epoch = 0;
  std::vector<net::NodeId> peers;
};

Result<EpochChange> DecodeEpochChange(std::string_view data) {
  BinaryReader r(data);
  EpochChange change;
  CHARIOTS_RETURN_IF_ERROR(r.GetU64(&change.ctrl_epoch));
  CHARIOTS_RETURN_IF_ERROR(r.GetU64(&change.epoch));
  uint32_t n = 0;
  CHARIOTS_RETURN_IF_ERROR(r.GetU32(&n));
  change.peers.resize(n);
  for (net::NodeId& peer : change.peers) {
    CHARIOTS_RETURN_IF_ERROR(r.GetBytes(&peer));
  }
  return change;
}

/// Blocks until the replication work `start` begins reports its outcome.
/// Only queued handlers (promotion, reconfigure, fill) wait like this.
template <typename T, typename Start>
T WaitFor(Start start) {
  struct Latch {
    std::mutex mu;
    std::condition_variable cv;
    std::optional<T> value;
  };
  RoundWaitsCounter()->Add();
  net::BlockingWaitScope blocking;
  auto latch = std::make_shared<Latch>();
  start([latch](T value) {
    std::lock_guard<std::mutex> lock(latch->mu);
    latch->value = std::move(value);
    latch->cv.notify_all();
  });
  std::unique_lock<std::mutex> lock(latch->mu);
  latch->cv.wait(lock, [&] { return latch->value.has_value(); });
  return *std::move(latch->value);
}

}  // namespace

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
      stripe_(&maintainer_, &dedup_, this, options_.replica,
              options_.clock != nullptr ? options_.clock
                                        : SystemClock::Default(),
              &repl_round_ns_),
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
  if (!options_.indexers.empty() && stripe_.CheckAppendServing().ok()) {
    PublishPostings(record, lid);
  }
}

void MaintainerServer::InstallHandlers() {
  // Each append-side handler below only lands its records and returns what
  // the client gets back, landing through the Landing it is given. The
  // stripe does the rest (admission, dedup, the Landing that collects the
  // round's batch, the Hermes round) and the handler returns as soon as
  // the INVs are out; the round's last ack sends the reply. Client appends
  // open with a (client_id, seq) token; kAppendAt carries none.
  //
  // The data path — kAppend, kRead, kInvalidate, kValidate — never blocks
  // and is safe alongside itself, so it is registered kInline: on the
  // in-process transport each request runs on its sending thread, beside
  // the other clients' requests to the node, and a whole append (INVs,
  // acks, VALs) completes on the client's thread. Every other handler stays
  // queued, and runs alone on its node. DESIGN.md §12 has the rules that
  // make the four safe side by side.
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

  // Read responses open with (fence epoch, cacheable head of log): the
  // client's read-through cache keys its invalidation off them
  // (DESIGN.md §11). Every unfenced role serves reads, but only of *valid*
  // positions; clients retry an invalid one against another member.
  auto read_one = [this](const std::string& payload,
                         bool committed) -> Result<std::string> {
    metrics::ScopedLatencyTimer timer(ReadHist());
    ReadCounter()->Add();
    CHARIOTS_ASSIGN_OR_RETURN(HermesStripe::ReadHeader header,
                              stripe_.AdmitRead());
    CHARIOTS_ASSIGN_OR_RETURN(LId lid, DecodeLId(payload));
    CHARIOTS_ASSIGN_OR_RETURN(LogRecord record,
                              stripe_.ReadValid(lid, committed));
    BinaryWriter w;
    w.PutU64(header.epoch);
    w.PutU64(header.cacheable_hl);
    w.PutBytes(EncodeLogRecord(record));
    return std::move(w).data();
  };
  endpoint_.Handle(kRead, [read_one](const net::NodeId&,
                                     const std::string& payload) {
    return read_one(payload, /*committed=*/false);
  }, kInline);

  endpoint_.Handle(kReadCommitted, [read_one](const net::NodeId&,
                                              const std::string& payload) {
    return read_one(payload, /*committed=*/true);
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
    CHARIOTS_ASSIGN_OR_RETURN(HermesStripe::ReadHeader header,
                              stripe_.AdmitRead());
    BinaryReader r(payload);
    uint32_t n = 0;
    CHARIOTS_RETURN_IF_ERROR(r.GetU32(&n));
    BinaryWriter w;
    w.PutU64(header.epoch);
    w.PutU64(header.cacheable_hl);
    w.PutU32(n);
    for (uint32_t i = 0; i < n; ++i) {
      LId lid = 0;
      CHARIOTS_RETURN_IF_ERROR(r.GetU64(&lid));
      Result<LogRecord> record = stripe_.ReadValid(lid, /*committed=*/false);
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
    CHARIOTS_RETURN_IF_ERROR(stripe_.AdmitRead().status());
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

  // The replica side of the Hermes round: decode, call the stripe, encode.
  endpoint_.Handle(kInvalidate, [this](const net::NodeId&,
                                       const std::string& payload)
                                    -> Result<std::string> {
    CHARIOTS_ASSIGN_OR_RETURN(InvalidateRequest req,
                              DecodeInvalidateRequest(payload));
    CHARIOTS_RETURN_IF_ERROR(stripe_.OnInvalidate(req));
    return std::string();
  }, kInline);

  endpoint_.HandleOneWay(kValidate, [this](const net::NodeId&,
                                           std::string payload) {
    Result<ValidateNotice> notice = DecodeValidateNotice(payload);
    if (notice.ok()) stripe_.OnValidate(*notice);
  }, kInline);

  endpoint_.Handle(kFetchInvalid, [this](const net::NodeId&,
                                         const std::string& payload)
                                      -> Result<std::string> {
    BinaryReader r(payload);
    uint64_t epoch = 0;
    CHARIOTS_RETURN_IF_ERROR(r.GetU64(&epoch));
    CHARIOTS_ASSIGN_OR_RETURN(std::vector<InvalidateRequest> window,
                              stripe_.OnFetchInvalid(epoch));
    BinaryWriter w;
    w.PutU32(static_cast<uint32_t>(window.size()));
    for (const InvalidateRequest& batch : window) {
      w.PutBytes(EncodeInvalidateRequest(batch));
    }
    return std::move(w).data();
  });

  // Replica-set change from the controller (dead replica evicted): adopt
  // the bumped epoch and surviving peers, then replay any parked writes —
  // they were waiting on the dead peer and can complete now.
  endpoint_.Handle(kReconfigure, [this](const net::NodeId&,
                                        const std::string& payload)
                                     -> Result<std::string> {
    CHARIOTS_ASSIGN_OR_RETURN(EpochChange change, DecodeEpochChange(payload));
    CHARIOTS_RETURN_IF_ERROR(CheckCtrlEpoch(change.ctrl_epoch));
    CHARIOTS_RETURN_IF_ERROR(
        stripe_.Reconfigure(change.epoch, std::move(change.peers)));
    Status replay = WaitFor<Status>(
        [this](HermesStripe::Done done) { stripe_.ReplayParked(done); });
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
    CHARIOTS_RETURN_IF_ERROR(stripe_.AdmitRead().status());
    return std::string();
  });

  // Failover promotion (controller -> candidate): the stripe adopts the
  // bumped epoch, replays the in-flight writes and junk-fills the true
  // holes. Responds with the filled positions. Idempotent under retry.
  endpoint_.Handle(kPromote, [this](const net::NodeId&,
                                    const std::string& payload)
                                 -> Result<std::string> {
    CHARIOTS_ASSIGN_OR_RETURN(EpochChange change, DecodeEpochChange(payload));
    CHARIOTS_RETURN_IF_ERROR(CheckCtrlEpoch(change.ctrl_epoch));
    using Filled = Result<std::vector<LId>>;
    CHARIOTS_ASSIGN_OR_RETURN(
        std::vector<LId> filled,
        WaitFor<Filled>([&](std::function<void(Filled)> done) {
          stripe_.Promote(change.epoch, std::move(change.peers),
                          std::move(done));
        }));
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
    CHARIOTS_ASSIGN_OR_RETURN(LId lid, DecodeLId(payload));
    auto land = [&](const Landing& landing) -> Result<std::string> {
      Status status = maintainer_.AppendAt(lid, MakeJunkRecord(lid), landing);
      // An occupied position has nothing to repair.
      if (status.code() == StatusCode::kAlreadyExists) return std::string();
      CHARIOTS_RETURN_IF_ERROR(status);
      return std::string();
    };
    return WaitFor<Result<std::string>>(
        [&](std::function<void(Result<std::string>)> done) {
          stripe_.Write({}, land, std::move(done));
        });
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
    BinaryReader r(payload);
    HermesStripe::WriteKey token;
    if (tokened) {
      Status decoded = r.GetBytes(&token.first);
      if (decoded.ok()) decoded = r.GetU64(&token.second);
      if (!decoded.ok()) {
        timed(std::move(decoded));
        return;
      }
    }
    stripe_.Write(token,
                  [&](const Landing& landing) { return land(r, landing); },
                  std::move(timed));
  }, dispatch);
}

void MaintainerServer::Invalidate(const std::vector<net::NodeId>& peers,
                                  const InvalidateRequest& req,
                                  std::function<void(size_t, Status)> ack) {
  net::CallOptions options;
  options.timeout = options_.replica.invalidate_timeout;
  std::string wire = EncodeInvalidateRequest(req);
  for (size_t i = 0; i < peers.size(); ++i) {
    std::string payload = i + 1 < peers.size() ? wire : std::move(wire);
    repl_endpoint_.CallAsync(peers[i], kInvalidate, std::move(payload),
                             options, [ack, i](Result<std::string> result) {
                               ack(i, result.status());
                             });
  }
}

void MaintainerServer::Validate(const std::vector<net::NodeId>& peers,
                                const ValidateNotice& notice) {
  std::string wire = EncodeValidateNotice(notice);
  for (const net::NodeId& peer : peers) {
    (void)repl_endpoint_.Notify(peer, kValidate, wire);
  }
}

Result<std::vector<InvalidateRequest>> MaintainerServer::FetchInvalid(
    const net::NodeId& peer, uint64_t epoch) {
  BinaryWriter w;
  w.PutU64(epoch);
  CHARIOTS_ASSIGN_OR_RETURN(
      std::string fetched,
      repl_endpoint_.Call(peer, kFetchInvalid, std::move(w).data(),
                          std::chrono::milliseconds(1000)));
  BinaryReader r(fetched);
  uint32_t n = 0;
  CHARIOTS_RETURN_IF_ERROR(r.GetU32(&n));
  std::vector<InvalidateRequest> window;
  for (uint32_t i = 0; i < n; ++i) {
    std::string batch;
    CHARIOTS_RETURN_IF_ERROR(r.GetBytes(&batch));
    CHARIOTS_ASSIGN_OR_RETURN(InvalidateRequest req,
                              DecodeInvalidateRequest(batch));
    window.push_back(std::move(req));
  }
  return window;
}

bool MaintainerServer::Suspect(const net::NodeId& suspect) {
  // Our own shutdown fails in-flight INVs too; that says nothing about the
  // peer.
  if (stop_.load()) return false;
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
  return true;
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
  if (!stripe_.CheckAppendServing().ok()) return;
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
