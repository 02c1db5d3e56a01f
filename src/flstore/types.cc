#include "flstore/types.h"

#include "common/codec.h"

namespace chariots::flstore {

std::string EncodeLogRecord(const LogRecord& record) {
  size_t size = sizeof(uint32_t) + BinaryWriter::BytesSize(record.body);
  for (const Tag& tag : record.tags) {
    size += BinaryWriter::BytesSize(tag.key) +
            BinaryWriter::BytesSize(tag.value);
  }
  BinaryWriter w;
  w.Reserve(size);
  w.PutU32(static_cast<uint32_t>(record.tags.size()));
  for (const Tag& tag : record.tags) {
    w.PutBytes(tag.key);
    w.PutBytes(tag.value);
  }
  w.PutBytes(record.body);
  return std::move(w).data();
}

Result<LogRecord> DecodeLogRecord(LId lid, std::string_view data) {
  BinaryReader r(data);
  LogRecord record;
  record.lid = lid;
  uint32_t num_tags = 0;
  CHARIOTS_RETURN_IF_ERROR(r.GetU32(&num_tags));
  record.tags.resize(num_tags);
  for (uint32_t i = 0; i < num_tags; ++i) {
    CHARIOTS_RETURN_IF_ERROR(r.GetBytes(&record.tags[i].key));
    CHARIOTS_RETURN_IF_ERROR(r.GetBytes(&record.tags[i].value));
  }
  CHARIOTS_RETURN_IF_ERROR(r.GetBytes(&record.body));
  return record;
}

LogRecord MakeJunkRecord(LId lid) {
  LogRecord record;
  record.lid = lid;
  record.tags.push_back(Tag{std::string(kJunkTagKey), "1"});
  return record;
}

bool IsJunkRecord(const LogRecord& record) {
  for (const Tag& tag : record.tags) {
    if (tag.key == kJunkTagKey) return true;
  }
  return false;
}

}  // namespace chariots::flstore
