#ifndef CHARIOTS_APPS_STREAM_H_
#define CHARIOTS_APPS_STREAM_H_

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "chariots/client.h"

namespace chariots::apps {

/// Multi-datacenter event processing on the shared log (paper §4.2).
/// Publishers append events; readers consume the log with exactly-once
/// semantics by checkpointing their offset *into the log itself*, so a
/// restarted (or failed-over) reader resumes precisely where the previous
/// incarnation durably got to. Readers at different datacenters see the
/// same events (causally ordered), and multiple readers can spread over
/// different log maintainers without a central dispatcher.
class EventPublisher {
 public:
  EventPublisher(geo::Datacenter* dc, std::string topic);

  /// Publishes an event; returns once it is durable in the local log.
  Status Publish(const std::string& payload);

  const std::string& topic() const { return topic_; }

 private:
  geo::ChariotsClient client_;
  std::string topic_;
};

/// An event with its log coordinates.
struct Event {
  flstore::LId lid;
  geo::DatacenterId origin;
  std::string payload;
};

/// A named reader of a topic with durable, log-stored checkpoints.
class EventReader {
 public:
  /// `group` names the consumer; its checkpoint records are tagged
  /// "offset:<group>:<topic>".
  EventReader(geo::Datacenter* dc, std::string topic, std::string group);

  /// Pulls up to `max_events` new events past the in-memory cursor.
  std::vector<Event> Poll(size_t max_events = 256);

  /// Durably records the cursor in the log. After a crash, a new reader
  /// with the same group resumes from the last checkpoint: events are
  /// re-delivered at most back to it, never skipped, and a deduplicating
  /// consumer (by lid) gets exactly-once processing.
  Status Checkpoint();

  /// Loads the latest durable checkpoint into the cursor (done at
  /// construction too; exposed for failover tests).
  Status Restore();

  flstore::LId cursor() const { return cursor_; }

 private:
  std::string OffsetTag() const {
    return "offset:" + group_ + ":" + topic_;
  }

  geo::Datacenter* const dc_;
  geo::ChariotsClient client_;
  std::string topic_;
  std::string group_;
  flstore::LId cursor_ = 0;
};

/// Push-based consumption: a topic callback invoked as records become
/// durable (no polling). Must be attached before the datacenter starts;
/// callbacks run on the datacenter's token thread, so they must be fast —
/// heavy processing should hand off to a worker.
class PushProcessor {
 public:
  using EventFn = std::function<void(const Event&)>;

  /// Attaches `fn` to `dc` for `topic`. Call before dc->Start().
  static void Attach(geo::Datacenter* dc, const std::string& topic,
                     EventFn fn);
};

/// A sharded reader: worker `shard` of `num_shards` processes only the
/// events whose log position falls in its stripe (lid % num_shards ==
/// shard). The shards' outputs partition the topic exactly — the paper's
/// point that readers can spread over different log maintainers without a
/// centralized dispatcher (§4.2); with num_shards equal to the maintainer
/// count and the stripe batch as the modulus unit, each shard reads
/// different maintainers. Each shard checkpoints independently.
class ShardedEventReader {
 public:
  ShardedEventReader(geo::Datacenter* dc, std::string topic,
                     std::string group, uint32_t shard, uint32_t num_shards);

  /// Pulls up to `max_events` new events belonging to this shard.
  std::vector<Event> Poll(size_t max_events = 256);

  /// Durable per-shard checkpoint (tag includes the shard index).
  Status Checkpoint();
  Status Restore();

  flstore::LId cursor() const { return cursor_; }
  uint32_t shard() const { return shard_; }

 private:
  std::string OffsetTag() const;

  geo::Datacenter* const dc_;
  geo::ChariotsClient client_;
  std::string topic_;
  std::string group_;
  const uint32_t shard_;
  const uint32_t num_shards_;
  flstore::LId cursor_ = 0;
};

/// A tiny aggregation operator used by the examples/benches: counts events
/// per key with exactly-once input (dedup by lid).
class CountingAggregator {
 public:
  /// Consumes events idempotently; returns how many were new.
  size_t Consume(const std::vector<Event>& events);

  uint64_t CountFor(const std::string& key) const;
  uint64_t total() const { return total_; }

 private:
  std::map<std::string, uint64_t> counts_;
  flstore::LId max_seen_ = 0;
  bool any_ = false;
  uint64_t total_ = 0;
};

}  // namespace chariots::apps

#endif  // CHARIOTS_APPS_STREAM_H_
