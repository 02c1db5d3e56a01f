#include "chariots/record.h"

#include "common/codec.h"
#include "net/message.h"

namespace chariots::geo {

std::string EncodeGeoRecord(const GeoRecord& record) {
  // The record body enters the datapath here, and this serialization is its
  // ONE budgeted copy — every later layer borrows the encoded bytes
  // (chariots.net.copies_per_record audits exactly this).
  net::CountPayloadEntered(record.body.size());
  net::CountPayloadCopied(record.body.size());
  size_t size = 3 * sizeof(uint32_t) + sizeof(uint64_t) +
                record.deps.size() * sizeof(TOId) +
                BinaryWriter::BytesSize(record.body) +
                trace::EncodedTraceSize(record.trace);
  for (const flstore::Tag& tag : record.tags) {
    size += BinaryWriter::BytesSize(tag.key) +
            BinaryWriter::BytesSize(tag.value);
  }
  BinaryWriter w;
  w.Reserve(size);
  w.PutU32(record.host);
  w.PutU64(record.toid);
  w.PutU32(static_cast<uint32_t>(record.deps.size()));
  for (TOId d : record.deps) w.PutU64(d);
  w.PutU32(static_cast<uint32_t>(record.tags.size()));
  for (const flstore::Tag& tag : record.tags) {
    w.PutBytes(tag.key);
    w.PutBytes(tag.value);
  }
  w.PutBytes(record.body);
  // Optional trailing trace: absent entirely for unsampled records, and
  // invisible to decoders that stop after body.
  trace::EncodeTrace(record.trace, &w);
  return std::move(w).data();
}

Result<GeoRecord> DecodeGeoRecord(std::string_view data) {
  BinaryReader r(data);
  GeoRecord record;
  CHARIOTS_RETURN_IF_ERROR(r.GetU32(&record.host));
  CHARIOTS_RETURN_IF_ERROR(r.GetU64(&record.toid));
  uint32_t n = 0;
  CHARIOTS_RETURN_IF_ERROR(r.GetU32(&n));
  if (r.remaining() < static_cast<size_t>(n) * 8) {
    return Status::Corruption("record deps truncated");
  }
  record.deps.resize(n);
  for (uint32_t i = 0; i < n; ++i) {
    CHARIOTS_RETURN_IF_ERROR(r.GetU64(&record.deps[i]));
  }
  CHARIOTS_RETURN_IF_ERROR(r.GetU32(&n));
  record.tags.resize(n);
  for (uint32_t i = 0; i < n; ++i) {
    CHARIOTS_RETURN_IF_ERROR(r.GetBytes(&record.tags[i].key));
    CHARIOTS_RETURN_IF_ERROR(r.GetBytes(&record.tags[i].value));
  }
  CHARIOTS_RETURN_IF_ERROR(r.GetBytes(&record.body));
  if (!trace::DecodeTrace(&r, &record.trace)) {
    return Status::Corruption("bad trace trailer in record");
  }
  return record;
}

flstore::LogRecord ToLogRecord(const GeoRecord& record) {
  flstore::LogRecord lr;
  lr.lid = record.lid;
  lr.body = EncodeGeoRecord(record);
  lr.tags = record.tags;
  return lr;
}

Result<GeoRecord> FromLogRecord(const flstore::LogRecord& log_record) {
  CHARIOTS_ASSIGN_OR_RETURN(GeoRecord record,
                            DecodeGeoRecord(log_record.body));
  record.lid = log_record.lid;
  return record;
}

}  // namespace chariots::geo
