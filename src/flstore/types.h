#ifndef CHARIOTS_FLSTORE_TYPES_H_
#define CHARIOTS_FLSTORE_TYPES_H_

#include <cstdint>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "common/status.h"

namespace chariots::flstore {

/// Log position id: the record's position in this datacenter's shared log
/// (paper §3). 0-based and gap-free below the Head of the Log.
using LId = uint64_t;

/// Sentinel for "no position".
inline constexpr LId kInvalidLId = std::numeric_limits<LId>::max();

/// A key/value tag attached to a record by the application client. Tags are
/// visible to Chariots (indexed); the record body is opaque (paper §3).
struct Tag {
  std::string key;
  std::string value;

  friend bool operator==(const Tag&, const Tag&) = default;
};

/// A record as stored by FLStore inside one datacenter. In the
/// multi-datacenter deployment the body carries the encoded Chariots record
/// (with TOId / host DC / dependency metadata); in single-DC FLStore use the
/// body is the application payload directly.
struct LogRecord {
  LId lid = kInvalidLId;
  std::string body;
  std::vector<Tag> tags;

  friend bool operator==(const LogRecord&, const LogRecord&) = default;
};

/// Serializes a record (without its lid, which is the storage key).
std::string EncodeLogRecord(const LogRecord& record);

/// Inverse of EncodeLogRecord; `lid` is filled from the argument.
Result<LogRecord> DecodeLogRecord(LId lid, std::string_view data);

/// One landed record as its maintainer's store holds it and as a coordinator
/// ships it to its replicas: its position and its encoded bytes (replicas
/// apply it with AppendAt, so every replica holds byte-identical payloads at
/// identical positions).
struct ReplicatedEntry {
  LId lid = kInvalidLId;
  std::string record_bytes;
};

/// Reserved tag key marking a junk (hole-fill) record. Positions orphaned by
/// a crashed primary are filled with junk so the Head of the Log can advance
/// past them (paper §5.3's invalid records); readers skip records carrying
/// this tag. The NUL prefix keeps the key out of the application namespace.
inline constexpr std::string_view kJunkTagKey{"\0chariots.fill", 14};

/// A junk record for `lid`: empty body, single reserved tag.
LogRecord MakeJunkRecord(LId lid = kInvalidLId);

/// True if `record` is a hole-fill junk record.
bool IsJunkRecord(const LogRecord& record);

}  // namespace chariots::flstore

#endif  // CHARIOTS_FLSTORE_TYPES_H_
