#include "flstore/hermes.h"

#include <algorithm>
#include <cstdint>
#include <optional>
#include <utility>

#include "common/codec.h"
#include "common/flight_recorder.h"
#include "common/logging.h"

namespace chariots::flstore {

namespace {

/// The registry families the stripe feeds, looked up once. The
/// chariots.flstore.repl.* ones are CLI-visible via `chariots_cli metrics`.
struct Instruments {
  metrics::Registry& r = metrics::Registry::Default();
  metrics::Counter* entries_replicated =
      r.GetCounter("flstore.replica.entries_replicated");
  metrics::Histogram* replication_lag =
      r.GetHistogram("flstore.replica.replication_lag_ns");
  metrics::Counter* fences = r.GetCounter("flstore.replica.fence_events");
  metrics::Counter* promotions = r.GetCounter("flstore.promotions");
  metrics::Counter* invalidations =
      r.GetCounter("chariots.flstore.repl.invalidations");
  metrics::Counter* validations =
      r.GetCounter("chariots.flstore.repl.validations");
  metrics::Counter* replays = r.GetCounter("chariots.flstore.repl.replays");
  metrics::Histogram* mttr = r.GetHistogram("chariots.flstore.repl.mttr_ns");
};

const Instruments& Metrics() {
  static const Instruments instruments;
  return instruments;
}

}  // namespace

void RegisterReplicationMetrics() { Metrics(); }

namespace {

void PutEntries(BinaryWriter& w, const std::vector<ReplicatedEntry>& entries) {
  w.PutU32(static_cast<uint32_t>(entries.size()));
  for (const ReplicatedEntry& e : entries) {
    w.PutU64(e.lid);
    w.PutBytes(e.record_bytes);
  }
}

Status GetEntries(BinaryReader& r, std::vector<ReplicatedEntry>* entries) {
  uint32_t n = 0;
  CHARIOTS_RETURN_IF_ERROR(r.GetU32(&n));
  entries->resize(n);
  for (ReplicatedEntry& e : *entries) {
    CHARIOTS_RETURN_IF_ERROR(r.GetU64(&e.lid));
    CHARIOTS_RETURN_IF_ERROR(r.GetBytes(&e.record_bytes));
  }
  return Status::OK();
}

}  // namespace

std::string EncodeInvalidateRequest(const InvalidateRequest& req) {
  size_t size = 2 * sizeof(uint64_t) + sizeof(uint32_t) +
                BinaryWriter::BytesSize(req.client_id) +
                BinaryWriter::BytesSize(req.response);
  for (const ReplicatedEntry& e : req.entries) {
    size += sizeof(uint64_t) + BinaryWriter::BytesSize(e.record_bytes);
  }
  BinaryWriter w;
  w.Reserve(size);
  w.PutU64(req.epoch);
  PutEntries(w, req.entries);
  w.PutBytes(req.client_id);
  w.PutU64(req.seq);
  w.PutBytes(req.response);
  return std::move(w).data();
}

Result<InvalidateRequest> DecodeInvalidateRequest(std::string_view data) {
  BinaryReader r(data);
  InvalidateRequest req;
  CHARIOTS_RETURN_IF_ERROR(r.GetU64(&req.epoch));
  CHARIOTS_RETURN_IF_ERROR(GetEntries(r, &req.entries));
  CHARIOTS_RETURN_IF_ERROR(r.GetBytes(&req.client_id));
  CHARIOTS_RETURN_IF_ERROR(r.GetU64(&req.seq));
  CHARIOTS_RETURN_IF_ERROR(r.GetBytes(&req.response));
  return req;
}

std::string EncodeValidateNotice(const ValidateNotice& notice) {
  BinaryWriter w;
  w.PutU64(notice.epoch);
  w.PutU32(static_cast<uint32_t>(notice.lids.size()));
  for (LId lid : notice.lids) w.PutU64(lid);
  w.PutU64(notice.floor);
  return std::move(w).data();
}

Result<ValidateNotice> DecodeValidateNotice(std::string_view data) {
  BinaryReader r(data);
  ValidateNotice notice;
  CHARIOTS_RETURN_IF_ERROR(r.GetU64(&notice.epoch));
  uint32_t n = 0;
  CHARIOTS_RETURN_IF_ERROR(r.GetU32(&n));
  notice.lids.resize(n);
  for (uint32_t i = 0; i < n; ++i) {
    CHARIOTS_RETURN_IF_ERROR(r.GetU64(&notice.lids[i]));
  }
  CHARIOTS_RETURN_IF_ERROR(r.GetU64(&notice.floor));
  return notice;
}

/// Completion state shared by one round's INV acks; the last answer (or the
/// first epoch rejection) decides it.
struct HermesStripe::Round {
  std::mutex mu;
  size_t outstanding = 0;
  bool decided = false;
  size_t failed_peer = SIZE_MAX;  // lowest peer index that failed
  Status failure;
  /// The membership the INVs went to (snapshots outlive every round).
  const Membership* members = nullptr;
  std::vector<LId> lids;
  LId top = kInvalidLId;
  int64_t start_nanos = 0;
  RoundDone done;
};

HermesStripe::HermesStripe(LogMaintainer* maintainer, DedupWindow* dedup,
                           Net* net, ReplicaOptions options, Clock* clock,
                           metrics::Histogram* round_ns)
    : maintainer_(maintainer),
      dedup_(dedup),
      net_(net),
      clock_(clock),
      round_ns_(round_ns) {
  std::lock_guard<std::mutex> lock(epoch_mu_);
  PublishLocked(
      Membership{options.role, options.epoch, std::move(options.peers)});
}

void HermesStripe::PublishLocked(Membership next) {
  if (members_.load(std::memory_order_relaxed) != nullptr &&
      next.epoch != epoch()) {
    landing_older_ += std::exchange(landing_current_, 0);
  }
  published_.push_back(std::make_unique<const Membership>(std::move(next)));
  members_.store(published_.back().get(), std::memory_order_release);
}

Status HermesStripe::CheckAppendServing() const {
  if (fenced()) return Status::Unavailable("NOT_COORDINATOR: fenced");
  if (role() == ReplicaRole::kReplica) {
    return Status::Unavailable("NOT_COORDINATOR: replica serves reads only");
  }
  return Status::OK();
}

void HermesStripe::Fence() {
  if (!fenced_.exchange(true, std::memory_order_acq_rel)) Metrics().fences->Add();
}

// ---------------------------------------------------------------- epochs

Status HermesStripe::AdoptLocked(uint64_t remote_epoch,
                                 std::unique_lock<std::mutex>& lock) {
  if (fenced()) return Status::Unavailable("FENCED: not serving");
  const Membership& current = members();
  if (remote_epoch < current.epoch) {
    return Status::FailedPrecondition("stale replication epoch");
  }
  if (remote_epoch > current.epoch) {
    // A higher epoch means a committed reconfiguration we missed. Adopt it;
    // a coordinator seeing this was deposed and rejoins as a replica (the
    // sender is the new coordinator replaying into us).
    Membership next = current;
    next.epoch = remote_epoch;
    if (next.role == ReplicaRole::kCoordinator) {
      next.role = ReplicaRole::kReplica;
      next.peers.clear();
    }
    PublishLocked(std::move(next));
    DrainOlderLocked(lock);
    // Another adoption may have moved past us while we waited.
    if (members().epoch != remote_epoch) {
      return Status::FailedPrecondition("stale replication epoch");
    }
  }
  return Status::OK();
}

void HermesStripe::DrainOlderLocked(std::unique_lock<std::mutex>& lock) {
  // An INV admitted before the adoption still lands; whoever adopted waits
  // for it, so a fetch sees its entries in the invalid window and a newer
  // INV's bytes land after it.
  older_drained_.wait(lock, [this] { return landing_older_ == 0; });
}

Status HermesStripe::AcceptRemoteEpoch(uint64_t remote_epoch) {
  std::unique_lock<std::mutex> lock(epoch_mu_);
  return AdoptLocked(remote_epoch, lock);
}

Status HermesStripe::Reconfigure(uint64_t new_epoch,
                                 std::vector<net::NodeId> peers) {
  std::lock_guard<std::mutex> lock(epoch_mu_);
  if (fenced()) {
    return Status::FailedPrecondition("cannot reconfigure fenced node");
  }
  const Membership& current = members();
  if (current.role == ReplicaRole::kReplica) {
    return Status::FailedPrecondition("only the coordinator reconfigures");
  }
  if (new_epoch < current.epoch) {
    return Status::FailedPrecondition("reconfigure epoch must not move back");
  }
  ReplicaRole role = current.role;
  if (role == ReplicaRole::kSolo && !peers.empty()) {
    role = ReplicaRole::kCoordinator;
  }
  PublishLocked(Membership{role, new_epoch, std::move(peers)});
  return Status::OK();
}

// ---------------------------------------------------------------- replica

Status HermesStripe::OnInvalidate(const InvalidateRequest& req) {
  {
    std::unique_lock<std::mutex> lock(epoch_mu_);
    CHARIOTS_RETURN_IF_ERROR(AdoptLocked(req.epoch, lock));
    ++landing_current_;
  }
  // The landing runs outside the epoch lock; an adoption waits for it.
  Metrics().invalidations->Add(req.entries.size());
  Status landed = LandInvalid(req.entries, /*overwrite=*/true);
  // Mirror the dedup state so exactly-once survives a failover.
  const bool tokened = !req.client_id.empty();
  if (landed.ok() && tokened) {
    landed = dedup_->Record(req.client_id, req.seq, req.response);
  }
  std::lock_guard<std::mutex> lock(epoch_mu_);
  if (req.epoch == epoch()) {
    --landing_current_;
  } else if (--landing_older_ == 0) {
    older_drained_.notify_all();
  }
  if (landed.ok() && tokened) {
    // Kept while the positions are invalid here: a promotion that fetches
    // them learns the token too, and answers the write's retry.
    for (const ReplicatedEntry& entry : req.entries) {
      parked_tokens_[entry.lid] = InvalidateRequest{
          .client_id = req.client_id, .seq = req.seq, .response = req.response};
    }
  }
  return landed;
}

Status HermesStripe::LandInvalid(const std::vector<ReplicatedEntry>& entries,
                                 bool overwrite) {
  const Landing invalid{.invalid = true};
  for (const ReplicatedEntry& entry : entries) {
    CHARIOTS_ASSIGN_OR_RETURN(
        LogRecord record, DecodeLogRecord(entry.lid, entry.record_bytes));
    Status status = maintainer_->AppendAt(entry.lid, record, invalid);
    if (status.code() != StatusCode::kAlreadyExists) {
      CHARIOTS_RETURN_IF_ERROR(status);
      continue;
    }
    // Identical bytes: a retried or replayed batch. Different bytes: a
    // cross-epoch replay over a divergent position (e.g. junk filled under
    // an older view), which the newer coordinator's copy wins.
    maintainer_->MarkInvalid(entry.lid);  // until this round's VAL
    if (!overwrite) continue;
    Result<LogRecord> existing = maintainer_->Read(entry.lid);
    if (existing.ok() && EncodeLogRecord(*existing) != entry.record_bytes) {
      {
        // The token of the bytes replaced here no longer describes them.
        std::lock_guard<std::mutex> lock(epoch_mu_);
        parked_tokens_.erase(entry.lid);
      }
      CHARIOTS_RETURN_IF_ERROR(maintainer_->Remove(entry.lid));
      CHARIOTS_RETURN_IF_ERROR(
          maintainer_->AppendAt(entry.lid, record, invalid));
    }
  }
  return Status::OK();
}

void HermesStripe::OnValidate(const ValidateNotice& notice) {
  // Only the exact current epoch counts — a deposed coordinator's stray VAL
  // must not validate positions its successor may junk-fill — and it stays
  // current until the VAL has acted: adopting a newer one waits for the
  // epoch lock.
  std::lock_guard<std::mutex> lock(epoch_mu_);
  if (fenced() || notice.epoch != epoch()) return;
  Metrics().validations->Add(notice.lids.size());
  for (LId lid : notice.lids) {
    maintainer_->MarkValid(lid);
    if (!parked_tokens_.empty()) parked_tokens_.erase(lid);
  }
  AdvanceFloor(notice.floor);
}

Result<std::vector<InvalidateRequest>> HermesStripe::OnFetchInvalid(
    uint64_t epoch) {
  // Adopting the caller's epoch is the point: it fences the dead
  // coordinator out of this node for good.
  CHARIOTS_RETURN_IF_ERROR(AcceptRemoteEpoch(epoch));
  std::vector<ReplicatedEntry> entries = maintainer_->InvalidEntries();
  std::vector<InvalidateRequest> window(entries.size());
  std::lock_guard<std::mutex> lock(epoch_mu_);
  for (size_t i = 0; i < entries.size(); ++i) {
    auto parked = parked_tokens_.find(entries[i].lid);
    if (parked != parked_tokens_.end()) window[i] = parked->second;
    window[i].entries.push_back(std::move(entries[i]));
  }
  return window;
}

// ------------------------------------------------------------ coordinator

void HermesStripe::Write(const WriteKey& token, const LandFn& land,
                         Reply reply) {
  Status serving = CheckAppendServing();
  if (!serving.ok()) {
    reply(std::move(serving));
    return;
  }
  // Every reply leaves through `finish`; for a client write it closes the
  // write, answering every retry that joined it too.
  Reply finish = std::move(reply);
  const bool tokened = !token.first.empty();
  if (tokened) {
    // The token is claimed before anything lands: a retry of an open
    // write, or a copy of it running beside this request, joins it instead
    // of landing the record twice.
    {
      std::lock_guard<std::mutex> lock(writes_mu_);
      auto [open, claimed] = open_writes_.try_emplace(token);
      open->second.push_back(std::move(finish));
      if (!claimed) return;
    }
    finish = [this, token](Result<std::string> result) {
      CloseWrite(token, std::move(result));
    };
    // A token the dedup window has already executed short-circuits to the
    // cached response, so a retry whose original *response* was lost
    // returns the same LIds instead of appending twice. It first replays
    // any parked (invalid) writes: an append whose INV round failed
    // recorded its dedup state but never acked, and its retry is what
    // completes the round.
    Result<std::optional<std::string>> cached =
        dedup_->Lookup(token.first, token.second);
    if (!cached.ok()) {
      finish(cached.status());
      return;
    }
    if (cached->has_value()) {
      ReplayParked([finish, response = std::move(**cached)](Status replayed) {
        finish(replayed.ok() ? Result<std::string>(response) : replayed);
      });
      return;
    }
  }
  // Records land invalid under the protocol: unreadable until every peer
  // acked the INV. Records landed outside it (solo stripes) stay valid. A
  // failed landing landed nothing.
  std::vector<ReplicatedEntry> batch;
  Result<std::string> landed =
      land(Landing{.invalid = replicates(), .collect = &batch});
  if (!landed.ok()) {
    finish(landed.status());
    return;
  }
  std::string response = *std::move(landed);
  InvalidateRequest req{.entries = std::move(batch),
                        .client_id = token.first,
                        .seq = token.second,
                        .response = response};
  RunRound(std::move(req), [this, token, tokened, response, finish](
                               Status status, bool parked) {
    Result<std::string> result =
        status.ok() ? Result<std::string>(response) : status;
    // A parked write remembers its response too, so the retry that replays
    // it acks with the same LIds. Record before closing the write: a retry
    // arriving in between must find either the open write or the dedup
    // entry.
    if (tokened && (status.ok() || parked)) {
      Status recorded =
          dedup_->Record(token.first, token.second, response);
      if (status.ok() && !recorded.ok()) result = recorded;
    }
    finish(std::move(result));
  });
}

void HermesStripe::CloseWrite(const WriteKey& key,
                              Result<std::string> result) {
  std::vector<Reply> replies;
  {
    std::lock_guard<std::mutex> lock(writes_mu_);
    auto open = open_writes_.find(key);
    replies = std::move(open->second);
    open_writes_.erase(open);
  }
  for (const Reply& waiting : replies) waiting(result);
}

void HermesStripe::RunRound(InvalidateRequest req, RoundDone done) {
  auto round = std::make_shared<Round>();
  round->start_nanos = clock_->NowNanos();
  round->lids.reserve(req.entries.size());
  for (const ReplicatedEntry& entry : req.entries) {
    round->lids.push_back(entry.lid);
  }
  if (!round->lids.empty()) {
    round->top = *std::max_element(round->lids.begin(), round->lids.end());
  }
  round->done = std::move(done);
  flightrec::Record(flightrec::EventType::kReplInv, 0, maintainer_->index(),
                    round->top == kInvalidLId ? 0 : round->top,
                    req.entries.size());
  const Membership& m = members();
  Status refusal = CheckAppendServing();
  if (!refusal.ok() || m.peers.empty()) {  // refused, or no one to replicate to
    FinishRound(*round, refusal, /*parked=*/false);
    return;
  }
  req.epoch = m.epoch;
  round->outstanding = m.peers.size();
  round->members = &m;
  net_->Invalidate(m.peers, req, [this, round](size_t i, Status status) {
    std::unique_lock<std::mutex> lock(round->mu);
    if (round->decided) return;
    if (status.code() == StatusCode::kFailedPrecondition) {
      // Epoch rejection. This decides the round at once, whatever the other
      // peers answer.
      round->decided = true;
      lock.unlock();
      // If we moved past the round's epoch ourselves (a reconfigure) and
      // the peer adopted the newer one first, the batch stays parked and
      // the replay under the newer epoch covers it. Otherwise a higher
      // epoch exists somewhere, so this node was deposed: self-fence — our
      // unacked invalid tail dies with us.
      const bool outlived = round->members->epoch < epoch();
      if (!outlived) {
        LOG_EVERY_N_SEC(kWarn, 5)
            << "invalidate to " << round->members->peers[i]
            << " rejected, fencing: " << status.ToString();
        Fence();
      }
      FinishRound(*round,
                  Status::Unavailable(
                      (outlived ? "REPLICA_UNREACHABLE: round outlived its "
                                  "epoch ("
                                : "NOT_COORDINATOR: deposed (") +
                      status.ToString() + ")"),
                  /*parked=*/outlived);
      return;
    }
    if (!status.ok() && i < round->failed_peer) {
      round->failed_peer = i;
      round->failure = std::move(status);
    }
    if (--round->outstanding > 0) return;
    round->decided = true;
    lock.unlock();
    if (round->failed_peer == SIZE_MAX) {
      Metrics().entries_replicated->Add(round->lids.size());
      FinishRound(*round, Status::OK(), /*parked=*/false);
      return;
    }
    // Transport failure: the peer is suspect, but we may still be the live
    // coordinator. Park the write: the batch stays applied-but-invalid, and
    // the suspect report lets the controller evict the dead peer — after
    // which a retry of the same token (or the reconfigure itself) replays
    // the round. No fencing: a dead *replica* must not take the coordinator
    // down with it.
    const net::NodeId& suspect = round->members->peers[round->failed_peer];
    LOG_EVERY_N_SEC(kWarn, 5) << "invalidate to " << suspect
                              << " unreachable: " << round->failure.ToString();
    FinishRound(*round,
                Status::Unavailable("REPLICA_UNREACHABLE: " + suspect + " (" +
                                    round->failure.ToString() + ")"),
                net_->Suspect(suspect));
  });
}

void HermesStripe::FinishRound(Round& round, Status status, bool parked) {
  // Failed rounds count toward the SLO too: a round that times out against
  // a gray peer is exactly the latency the watchdog exists to catch.
  const int64_t elapsed = clock_->NowNanos() - round.start_nanos;
  if (round_ns_ != nullptr) round_ns_->Record(static_cast<uint64_t>(elapsed));
  if (round.members != nullptr) {
    Metrics().replication_lag->Record(static_cast<uint64_t>(elapsed));
  }
  if (!status.ok()) {
    round.done(std::move(status), parked);
    return;
  }
  // Every peer acked: the batch is durable everywhere. Validate it locally,
  // advance the floor, and flip it readable on the peers.
  for (LId lid : round.lids) maintainer_->MarkValid(lid);
  NoteReplicated(round.top);
  const Membership& m = members();
  if (!round.lids.empty() && Replicates(m) && !fenced()) {
    net_->Validate(m.peers,
                   ValidateNotice{m.epoch, round.lids, replicated_floor()});
  }
  flightrec::Record(flightrec::EventType::kReplVal, 0, maintainer_->index(),
                    round.top == kInvalidLId ? 0 : round.top,
                    static_cast<uint64_t>(elapsed));
  round.done(Status::OK(), false);
}

void HermesStripe::NoteReplicated(LId top_lid) {
  if (top_lid == kInvalidLId) return;
  LId acked = acked_floor_.load(std::memory_order_relaxed);
  while (acked < top_lid + 1 &&
         !acked_floor_.compare_exchange_weak(acked, top_lid + 1,
                                             std::memory_order_relaxed)) {
  }
  // Rounds overlap, so a round above this one may still be open or parked:
  // the floor stops at the first position not yet validated. A landing
  // marks its positions invalid in the lock hold that plans them, and
  // landings are serialized, so a landing running beside this completion
  // is in the invalid window before any higher position is planned, and
  // reading the window after validating our own batch can only under-count.
  AdvanceFloor(std::min(acked_floor_.load(std::memory_order_relaxed),
                        maintainer_->FirstInvalid()));
}

void HermesStripe::AdvanceFloor(LId floor) {
  LId current = replicated_floor_.load(std::memory_order_relaxed);
  while (current < floor &&
         !replicated_floor_.compare_exchange_weak(
             current, floor, std::memory_order_release,
             std::memory_order_relaxed)) {
  }
}

void HermesStripe::ReplayParked(Done done) {
  const Membership& m = members();
  if (!Replicates(m)) {
    // No peers to replicate to. A coordinator whose last replica was just
    // evicted (or a solo node) validates its parked positions locally — the
    // local copy is authoritative now. A replica never gets here (every
    // caller sits behind CheckAppendServing or a promotion).
    if (m.role != ReplicaRole::kReplica && maintainer_->InvalidCount() > 0) {
      maintainer_->MarkAllValid();
    }
    done(Status::OK());
    return;
  }
  std::vector<ReplicatedEntry> entries = maintainer_->InvalidEntries();
  if (entries.empty()) {
    done(Status::OK());
    return;
  }
  const size_t count = entries.size();
  RunRound(InvalidateRequest{.entries = std::move(entries)},
           [count, done = std::move(done)](Status status, bool) {
             if (status.ok()) Metrics().replays->Add(count);
             done(std::move(status));
           });
}

void HermesStripe::Promote(
    uint64_t new_epoch, std::vector<net::NodeId> peers,
    std::function<void(Result<std::vector<LId>>)> done) {
  Result<std::vector<LId>> filled = TakeOver(new_epoch, std::move(peers));
  if (!filled.ok()) {
    done(filled.status());
    return;
  }
  // Replay: everything invalid here (own parked writes + merged windows +
  // fills) is now the authoritative copy. Re-broadcast it under the new
  // epoch and validate everywhere.
  ReplayParked([this, filled = *std::move(filled),
                done = std::move(done)](Status replayed) mutable {
    if (!replayed.ok()) {
      done(std::move(replayed));
      return;
    }
    maintainer_->MarkAllValid();
    done(std::move(filled));
  });
}

Result<std::vector<LId>> HermesStripe::TakeOver(
    uint64_t new_epoch, std::vector<net::NodeId> peers) {
  {
    std::unique_lock<std::mutex> lock(epoch_mu_);
    const Membership& current = members();
    const bool retried = current.role == ReplicaRole::kCoordinator &&
                         current.epoch == new_epoch;
    if (!retried) {
      if (new_epoch <= current.epoch) {
        return Status::FailedPrecondition("promotion epoch must move forward");
      }
      if (fenced()) {
        return Status::FailedPrecondition("cannot promote fenced node");
      }
      PublishLocked(
          Membership{ReplicaRole::kCoordinator, new_epoch, peers});
      DrainOlderLocked(lock);
      // Our own parked writes' tokens are in our dedup window already.
      parked_tokens_.clear();
    }
  }
  Metrics().promotions->Add();
  // Role change: drop the cached tail so nothing assembled under the old
  // epoch can be served by the new coordinator.
  maintainer_->InvalidateTailCache();
  // Merge every surviving peer's invalid window into ours: a write the dead
  // coordinator acked is applied (invalid) on ALL replicas, so any survivor
  // — us included — holds it. Fetched positions are marked invalid here
  // too, putting them in the replay set.
  for (const net::NodeId& peer : peers) {
    CHARIOTS_ASSIGN_OR_RETURN(std::vector<InvalidateRequest> fetched,
                              net_->FetchInvalid(peer, new_epoch));
    for (const InvalidateRequest& batch : fetched) {
      CHARIOTS_RETURN_IF_ERROR(LandInvalid(batch.entries, /*overwrite=*/false));
      // The write's retry may come here now, and the peer may be the only
      // member its INV reached: answer it from the peer's dedup entry.
      if (!batch.client_id.empty()) {
        CHARIOTS_RETURN_IF_ERROR(
            dedup_->Record(batch.client_id, batch.seq, batch.response));
      }
    }
  }
  // Junk-fill the true holes — positions the dead coordinator assigned but
  // never invalidated anywhere — so the Head of the Log can advance past
  // them. They land invalid on a replicated stripe, so the replay
  // re-broadcasts them like any landed record.
  CHARIOTS_ASSIGN_OR_RETURN(
      std::vector<LId> filled,
      maintainer_->FillHoles(MakeJunkRecord(),
                             Landing{.invalid = replicates()}));
  if (!filled.empty()) {
    LOG_INFO << "promotion of maintainer " << maintainer_->index()
             << " junk-filled " << filled.size() << " orphaned positions";
  }
  return filled;
}

// ------------------------------------------------------------------ reads

Result<HermesStripe::ReadHeader> HermesStripe::AdmitRead() const {
  if (fenced()) return Status::Unavailable("FENCED: not serving");
  const Membership& m = members();
  ReadHeader header;
  header.epoch = m.epoch;
  header.cacheable_hl = maintainer_->HeadOfLog();
  if (m.role == ReplicaRole::kReplica || Replicates(m)) {
    header.cacheable_hl = std::min(header.cacheable_hl, replicated_floor());
  }
  return header;
}

Result<LogRecord> HermesStripe::ReadValid(LId lid, bool committed) const {
  Result<LogRecord> record =
      committed ? maintainer_->ReadCommitted(lid) : maintainer_->Read(lid);
  // One check, after the read: a landing beside it may publish the bytes
  // (invalid) before the read finds them, and a position whose landing is
  // still writing reads as missing but is already invalid — retryable, not
  // gone.
  if (maintainer_->IsInvalid(lid)) {
    return Status::Unavailable("INVALID_LID: position not yet validated");
  }
  return record;
}

}  // namespace chariots::flstore
