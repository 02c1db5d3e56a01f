#include "chariots/replication.h"

#include <algorithm>
#include <cassert>

#include "common/codec.h"
#include "common/logging.h"
#include "common/metrics.h"

namespace chariots::geo {

namespace {

metrics::Counter* RecordsSentCounter() {
  static metrics::Counter* c =
      metrics::Registry::Default().GetCounter("chariots.sender.records_sent");
  return c;
}

metrics::Counter* BatchesSentCounter() {
  static metrics::Counter* c =
      metrics::Registry::Default().GetCounter("chariots.sender.batches_sent");
  return c;
}

metrics::Counter* HeartbeatsSentCounter() {
  static metrics::Counter* c = metrics::Registry::Default().GetCounter(
      "chariots.sender.heartbeats_sent");
  return c;
}

metrics::Counter* RewindsCounter() {
  static metrics::Counter* c =
      metrics::Registry::Default().GetCounter("chariots.sender.rewinds");
  return c;
}

metrics::Histogram* SenderTickHist() {
  static metrics::Histogram* h =
      metrics::Registry::Default().GetHistogram("chariots.sender.tick_ns");
  return h;
}

metrics::Counter* RecordsReceivedCounter() {
  static metrics::Counter* c = metrics::Registry::Default().GetCounter(
      "chariots.receiver.records_received");
  return c;
}

metrics::Counter* RecordsDedupedCounter() {
  static metrics::Counter* c = metrics::Registry::Default().GetCounter(
      "chariots.receiver.records_deduped");
  return c;
}

metrics::Counter* RecordsShedCounter() {
  static metrics::Counter* c =
      metrics::Registry::Default().GetCounter("chariots.receiver.records_shed");
  return c;
}

metrics::Histogram* ReceiverOnMessageHist() {
  static metrics::Histogram* h = metrics::Registry::Default().GetHistogram(
      "chariots.receiver.on_message_ns");
  return h;
}

}  // namespace

std::string EncodeReplicationBatch(const ReplicationBatch& batch) {
  BinaryWriter w;
  w.PutBytes(batch.atable);
  w.PutU64(batch.first_toid);
  w.PutU32(static_cast<uint32_t>(batch.records.size()));
  for (const std::string& r : batch.records) w.PutBytes(r);
  return std::move(w).data();
}

Result<ReplicationBatch> DecodeReplicationBatch(std::string_view data) {
  BinaryReader r(data);
  ReplicationBatch batch;
  CHARIOTS_RETURN_IF_ERROR(r.GetBytes(&batch.atable));
  CHARIOTS_RETURN_IF_ERROR(r.GetU64(&batch.first_toid));
  uint32_t n = 0;
  CHARIOTS_RETURN_IF_ERROR(r.GetU32(&n));
  batch.records.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    std::string rec;
    CHARIOTS_RETURN_IF_ERROR(r.GetBytes(&rec));
    batch.records.push_back(std::move(rec));
  }
  return batch;
}

// ------------------------------------------------------ LocalRecordBuffer

void LocalRecordBuffer::Put(TOId toid, std::string encoded) {
  std::lock_guard<std::mutex> lock(mu_);
  assert(toid == base_ + records_.size() &&
         "local records must be incorporated in TOId order");
  (void)toid;
  records_.push_back(std::move(encoded));
}

void LocalRecordBuffer::SetBase(TOId first_toid) {
  std::lock_guard<std::mutex> lock(mu_);
  assert(records_.empty() && "SetBase only valid on an empty buffer");
  base_ = first_toid;
}

TOId LocalRecordBuffer::max_toid() const {
  std::lock_guard<std::mutex> lock(mu_);
  return base_ + records_.size() - 1;
}

size_t LocalRecordBuffer::Read(TOId from, size_t max_records,
                               std::vector<std::string>* out) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (from < base_) return 0;  // already garbage collected
  size_t offset = from - base_;
  size_t available = records_.size() > offset ? records_.size() - offset : 0;
  size_t n = std::min(available, max_records);
  for (size_t i = 0; i < n; ++i) out->push_back(records_[offset + i]);
  return n;
}

void LocalRecordBuffer::TruncateBelow(TOId floor) {
  std::lock_guard<std::mutex> lock(mu_);
  while (base_ < floor && !records_.empty()) {
    records_.pop_front();
    ++base_;
  }
}

size_t LocalRecordBuffer::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return records_.size();
}

// ------------------------------------------------------------------ Sender

Sender::Sender(DatacenterId self, std::vector<DatacenterId> destinations,
               const LocalRecordBuffer* buffer, const AwarenessTable* atable,
               TransportFabric* fabric, Options options, Clock* clock)
    : self_(self),
      buffer_(buffer),
      atable_(atable),
      fabric_(fabric),
      options_(options),
      executor_(options.executor != nullptr ? options.executor
                                            : Executor::Default()),
      clock_(clock != nullptr ? clock : executor_->clock()) {
  for (DatacenterId dc : destinations) {
    dests_.push_back(
        DestState{dc, 0, 0, 0, 0, options_.resend_nanos});
  }
}

Sender::~Sender() { Stop(); }

void Sender::Start() {
  bool expected = true;
  if (!stop_.compare_exchange_strong(expected, false)) return;
  // Each firing drains until a tick ships nothing, then waits out the
  // cadence — the executor equivalent of the old spin-while-busy loop.
  // Cancel() in Stop() fences the `this` capture.
  tick_token_ = executor_->ScheduleEvery(options_.tick_nanos, [this] {
    while (!stop_.load(std::memory_order_relaxed) && Tick() > 0) {
    }
  });
}

void Sender::Stop() {
  bool expected = false;
  if (!stop_.compare_exchange_strong(expected, true)) return;
  kick_gate_.Close();
  tick_token_.Cancel();
}

void Sender::Kick() {
  if (stop_.load(std::memory_order_relaxed)) return;
  if (kick_pending_.exchange(true, std::memory_order_acq_rel)) return;
  // The gate's lock also serializes kicked drains with each other.
  if (!executor_->Submit(kick_gate_.Wrap([this] {
        // Cleared before draining: a record buffered mid-drain kicks a
        // fresh task rather than being left for the periodic tick.
        kick_pending_.store(false, std::memory_order_release);
        while (Tick() > 0) {
        }
      }))) {
    kick_pending_.store(false, std::memory_order_release);
  }
}

size_t Sender::Tick() {
  metrics::ScopedLatencyTimer timer(SenderTickHist());
  std::lock_guard<std::mutex> lock(mu_);
  int64_t now = clock_->NowNanos();
  size_t shipped = 0;

  for (DestState& dest : dests_) {
    // The peer's awareness of us doubles as the acknowledgement.
    TOId acked = atable_->Get(dest.dc, self_);
    if (acked > dest.acked) {
      // Ack progress: the destination is alive and absorbing — retransmit
      // eagerly again.
      dest.acked = acked;
      dest.resend_interval_nanos = options_.resend_nanos;
    }
    if (acked > dest.sent_upto) dest.sent_upto = acked;
    // No ack progress for the current backoff interval: rewind and
    // retransmit (the receiver and filters at the destination absorb
    // duplicates), then back the interval off exponentially so a dead or
    // partitioned peer is probed, not flooded.
    if (acked < dest.sent_upto &&
        now - dest.last_send_nanos > dest.resend_interval_nanos) {
      dest.sent_upto = acked;
      dest.resend_interval_nanos = std::min(dest.resend_interval_nanos * 2,
                                            options_.resend_max_nanos);
      RewindsCounter()->Add();
    }

    TOId max = buffer_->max_toid();
    if (dest.sent_upto < max) {
      ReplicationBatch batch;
      batch.atable = atable_->Encode();
      batch.first_toid = dest.sent_upto + 1;
      size_t n = buffer_->Read(batch.first_toid, options_.batch_records,
                               &batch.records);
      if (n > 0) {
        // Counted before the hand-off: the destination may incorporate the
        // batch before Send returns, and no observer may then find
        // records_sent behind what the peer already holds. So the counters
        // count what was offered to the fabric; a failed send is offered
        // again from the same TOId and counted again.
        RecordsSentCounter()->Add(n);
        BatchesSentCounter()->Add();
        if (fabric_->Send(self_, dest.dc, EncodeReplicationBatch(batch))
                .ok()) {
          dest.sent_upto += n;
          dest.last_send_nanos = now;
          dest.last_heartbeat_nanos = now;
          shipped += n;
        }
        continue;
      }
    }

    // Nothing to ship: heartbeat the awareness table so knowledge (and GC
    // eligibility) keeps flowing.
    if (now - dest.last_heartbeat_nanos > options_.heartbeat_nanos) {
      ReplicationBatch hb;
      hb.atable = atable_->Encode();
      HeartbeatsSentCounter()->Add();
      if (fabric_->Send(self_, dest.dc, EncodeReplicationBatch(hb)).ok()) {
        dest.last_heartbeat_nanos = now;
      }
    }
  }
  return shipped;
}

// ---------------------------------------------------------------- Receiver

Receiver::Receiver(DatacenterId self, AwarenessTable* atable, SubmitFn submit)
    : self_(self), atable_(atable), submit_(std::move(submit)) {}

void Receiver::OnMessage(DatacenterId from, std::string payload) {
  (void)from;
  metrics::ScopedLatencyTimer timer(ReceiverOnMessageHist());
  Result<ReplicationBatch> batch = DecodeReplicationBatch(payload);
  if (!batch.ok()) {
    LOG_EVERY_N_SEC(kWarn, 5)
        << "dc" << self_
        << ": undecodable replication batch: " << batch.status().ToString();
    return;
  }
  if (!batch->atable.empty()) {
    Status s = atable_->MergeEncoded(batch->atable);
    if (!s.ok()) {
      LOG_WARN << "dc" << self_ << ": bad piggybacked atable: "
               << s.ToString();
    }
  }
  for (const std::string& encoded : batch->records) {
    Result<GeoRecord> record = DecodeGeoRecord(encoded);
    if (!record.ok()) {
      LOG_EVERY_N_SEC(kWarn, 5) << "dc" << self_
                                << ": undecodable record in batch";
      continue;
    }
    RecordsReceivedCounter()->Add();
    // Knowledge-vector dedup: row self only advances when a record is
    // incorporated into the local log, so anything at or below it is a
    // retransmitted duplicate — drop it before it costs pipeline work.
    if (atable_->Get(self_, record->host) >= record->toid) {
      RecordsDedupedCounter()->Add();
      continue;
    }
    if (!submit_(std::move(record).value())) {
      // Pipeline congested: shed. The sender's rewind re-ships this record
      // once the backlog (and our awareness row) stops advancing.
      RecordsShedCounter()->Add();
    }
  }
}

}  // namespace chariots::geo
