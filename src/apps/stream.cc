#include "apps/stream.h"

namespace chariots::apps {

namespace {
std::string TopicTag(const std::string& topic) { return "topic:" + topic; }
}  // namespace

EventPublisher::EventPublisher(geo::Datacenter* dc, std::string topic)
    : client_(dc), topic_(std::move(topic)) {}

Status EventPublisher::Publish(const std::string& payload) {
  auto r = client_.Append(payload, {{TopicTag(topic_), ""}});
  return r.ok() ? Status::OK() : r.status();
}

EventReader::EventReader(geo::Datacenter* dc, std::string topic,
                         std::string group)
    : dc_(dc), client_(dc), topic_(std::move(topic)),
      group_(std::move(group)) {
  (void)Restore();
}

std::vector<Event> EventReader::Poll(size_t max_events) {
  std::vector<Event> out;
  flstore::LId head = dc_->HeadLid();
  while (cursor_ < head && out.size() < max_events) {
    Result<geo::GeoRecord> record = client_.Read(cursor_);
    ++cursor_;
    if (!record.ok()) continue;  // gap from GC — nothing to process
    for (const flstore::Tag& tag : record->tags) {
      if (tag.key == TopicTag(topic_)) {
        out.push_back(Event{record->lid, record->host, record->body});
        break;
      }
    }
  }
  return out;
}

Status EventReader::Checkpoint() {
  auto r = client_.Append(std::to_string(cursor_),
                          {{OffsetTag(), std::to_string(cursor_)}});
  return r.ok() ? Status::OK() : r.status();
}

Status EventReader::Restore() {
  flstore::IndexQuery query;
  query.key = OffsetTag();
  query.limit = 1;
  std::vector<flstore::Posting> postings = dc_->Lookup(query);
  if (postings.empty()) {
    cursor_ = 0;
    return Status::OK();
  }
  cursor_ = std::strtoull(postings.front().value.c_str(), nullptr, 10);
  return Status::OK();
}

void PushProcessor::Attach(geo::Datacenter* dc, const std::string& topic,
                           EventFn fn) {
  std::string tag = TopicTag(topic);
  dc->Subscribe([tag, fn = std::move(fn)](const geo::GeoRecord& record) {
    for (const flstore::Tag& t : record.tags) {
      if (t.key == tag) {
        fn(Event{record.lid, record.host, record.body});
        return;
      }
    }
  });
}

ShardedEventReader::ShardedEventReader(geo::Datacenter* dc, std::string topic,
                                       std::string group, uint32_t shard,
                                       uint32_t num_shards)
    : dc_(dc),
      client_(dc),
      topic_(std::move(topic)),
      group_(std::move(group)),
      shard_(shard),
      num_shards_(num_shards == 0 ? 1 : num_shards) {
  (void)Restore();
}

std::string ShardedEventReader::OffsetTag() const {
  return "offset:" + group_ + ":" + topic_ + ":" + std::to_string(shard_) +
         "/" + std::to_string(num_shards_);
}

std::vector<Event> ShardedEventReader::Poll(size_t max_events) {
  std::vector<Event> out;
  flstore::LId head = dc_->HeadLid();
  while (cursor_ < head && out.size() < max_events) {
    flstore::LId lid = cursor_++;
    if (lid % num_shards_ != shard_) continue;  // another shard's stripe
    Result<geo::GeoRecord> record = client_.Read(lid);
    if (!record.ok()) continue;  // GC gap
    for (const flstore::Tag& tag : record->tags) {
      if (tag.key == "topic:" + topic_) {
        out.push_back(Event{record->lid, record->host, record->body});
        break;
      }
    }
  }
  return out;
}

Status ShardedEventReader::Checkpoint() {
  auto r = client_.Append(std::to_string(cursor_),
                          {{OffsetTag(), std::to_string(cursor_)}});
  return r.ok() ? Status::OK() : r.status();
}

Status ShardedEventReader::Restore() {
  flstore::IndexQuery query;
  query.key = OffsetTag();
  query.limit = 1;
  std::vector<flstore::Posting> postings = dc_->Lookup(query);
  cursor_ = postings.empty()
                ? 0
                : std::strtoull(postings.front().value.c_str(), nullptr, 10);
  return Status::OK();
}

size_t CountingAggregator::Consume(const std::vector<Event>& events) {
  size_t fresh = 0;
  for (const Event& e : events) {
    // Exactly-once: re-deliveries after a checkpoint restore carry lids we
    // have already folded in.
    if (any_ && e.lid <= max_seen_) continue;
    any_ = true;
    max_seen_ = e.lid;
    ++counts_[e.payload];
    ++total_;
    ++fresh;
  }
  return fresh;
}

uint64_t CountingAggregator::CountFor(const std::string& key) const {
  auto it = counts_.find(key);
  return it == counts_.end() ? 0 : it->second;
}

}  // namespace chariots::apps
