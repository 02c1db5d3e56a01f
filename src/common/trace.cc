#include "common/trace.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>

#include "common/clock.h"
#include "common/metrics.h"

namespace chariots::trace {
namespace {

std::atomic<Clock*> g_clock{nullptr};

int64_t NowNanos() {
  Clock* clock = g_clock.load(std::memory_order_relaxed);
  if (clock != nullptr) return clock->NowNanos();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void AppendJsonString(std::string* out, std::string_view s) {
  out->push_back('"');
  for (char c : s) {
    if (c == '"' || c == '\\') out->push_back('\\');
    out->push_back(c);
  }
  out->push_back('"');
}

}  // namespace

void SetClockForTest(Clock* clock) {
  g_clock.store(clock, std::memory_order_relaxed);
}

void TraceContext::AddHop(std::string_view stage, uint32_t dc) {
  if (!active()) return;
  int64_t now = NowNanos();
  hops.push_back(TraceHop{std::string(stage), dc, now});
  // Chain the stage spans: arriving at a new stage ends the previous one,
  // and the new span is its child — the parent links spell out the critical
  // path client → batcher → ... → incorporation.
  uint32_t parent = 0;
  if (chain != 0 && chain <= spans.size()) {
    TraceSpan& prev = spans[chain - 1];
    if (prev.open()) prev.end_nanos = now;
    parent = chain;
  }
  TraceSpan span;
  span.id = static_cast<uint32_t>(spans.size()) + 1;
  span.parent = parent;
  span.stage = std::string(stage);
  span.dc = dc;
  span.start_nanos = now;
  chain = span.id;
  spans.push_back(std::move(span));
}

uint32_t TraceContext::BeginSpan(std::string_view stage, uint32_t dc) {
  if (!active()) return 0;
  TraceSpan span;
  span.id = static_cast<uint32_t>(spans.size()) + 1;
  span.parent = chain;  // sub-operation of the current pipeline stage
  span.stage = std::string(stage);
  span.dc = dc;
  span.start_nanos = NowNanos();
  spans.push_back(std::move(span));
  return spans.back().id;
}

void TraceContext::EndSpan(uint32_t id) {
  if (id == 0 || id > spans.size()) return;
  TraceSpan& span = spans[id - 1];
  if (span.open()) span.end_nanos = NowNanos();
}

bool ShouldSample(uint64_t seq, uint32_t every) {
  if (every == 0) return false;
  // every == 1 means "every record": seq % 1 is always 0, never 1, so it
  // needs its own arm.
  return every == 1 || seq % every == 1;
}

uint64_t MakeTraceId(uint32_t dc, uint64_t seq) {
  uint64_t id = (static_cast<uint64_t>(dc + 1) << 48) ^ seq;
  return id == 0 ? 1 : id;
}

void EncodeTrace(const TraceContext& ctx, BinaryWriter* writer) {
  if (!ctx.active()) return;
  writer->PutU64(ctx.trace_id);
  writer->PutU32(static_cast<uint32_t>(ctx.hops.size()));
  for (const TraceHop& hop : ctx.hops) {
    writer->PutBytes(hop.stage);
    writer->PutU32(hop.dc);
    writer->PutI64(hop.nanos);
  }
  writer->PutU32(static_cast<uint32_t>(ctx.spans.size()));
  for (const TraceSpan& span : ctx.spans) {
    writer->PutU32(span.id);
    writer->PutU32(span.parent);
    writer->PutBytes(span.stage);
    writer->PutU32(span.dc);
    writer->PutI64(span.start_nanos);
    writer->PutI64(span.end_nanos);
  }
  writer->PutU32(ctx.chain);
}

size_t EncodedTraceSize(const TraceContext& ctx) {
  if (!ctx.active()) return 0;
  size_t size = sizeof(uint64_t) + 3 * sizeof(uint32_t);
  for (const TraceHop& hop : ctx.hops) {
    size += BinaryWriter::BytesSize(hop.stage) + sizeof(uint32_t) +
            sizeof(int64_t);
  }
  for (const TraceSpan& span : ctx.spans) {
    size += 3 * sizeof(uint32_t) + BinaryWriter::BytesSize(span.stage) +
            2 * sizeof(int64_t);
  }
  return size;
}

bool DecodeTrace(BinaryReader* reader, TraceContext* ctx) {
  *ctx = TraceContext{};
  // An exhausted reader means the encoder wrote no trace (unsampled record,
  // or produced by an older encoder) — inactive, not an error.
  if (reader->AtEnd()) return true;
  if (!reader->GetU64(&ctx->trace_id).ok()) return false;
  uint32_t count = 0;
  if (!reader->GetU32(&count).ok()) return false;
  // A hop is at least 4 (stage len) + 4 (dc) + 8 (nanos) bytes; reject
  // counts that can't fit in what's left instead of allocating for them.
  if (static_cast<uint64_t>(count) * 16 > reader->remaining()) return false;
  ctx->hops.resize(count);
  for (TraceHop& hop : ctx->hops) {
    if (!reader->GetBytes(&hop.stage).ok()) return false;
    if (!reader->GetU32(&hop.dc).ok()) return false;
    if (!reader->GetI64(&hop.nanos).ok()) return false;
  }
  // Spans are a trailing extension: a reader exhausted here decoded a
  // pre-span trace — valid, just span-free.
  if (reader->AtEnd()) return true;
  if (!reader->GetU32(&count).ok()) return false;
  // A span is at least 4+4+4 (stage len)+4+8+8 bytes.
  if (static_cast<uint64_t>(count) * 32 > reader->remaining()) return false;
  ctx->spans.resize(count);
  for (TraceSpan& span : ctx->spans) {
    if (!reader->GetU32(&span.id).ok()) return false;
    if (!reader->GetU32(&span.parent).ok()) return false;
    if (!reader->GetBytes(&span.stage).ok()) return false;
    if (!reader->GetU32(&span.dc).ok()) return false;
    if (!reader->GetI64(&span.start_nanos).ok()) return false;
    if (!reader->GetI64(&span.end_nanos).ok()) return false;
  }
  if (!reader->GetU32(&ctx->chain).ok()) return false;
  return true;
}

std::vector<CriticalPathEntry> CriticalPath(const TraceContext& ctx) {
  std::vector<CriticalPathEntry> path;
  if (!ctx.spans.empty() && ctx.chain != 0 && ctx.chain <= ctx.spans.size()) {
    // Follow parent links from the last open stage span back to the root,
    // then flip to chronological order.
    std::vector<const TraceSpan*> stages;
    uint32_t id = ctx.chain;
    while (id != 0 && id <= ctx.spans.size() &&
           stages.size() <= ctx.spans.size()) {
      const TraceSpan& span = ctx.spans[id - 1];
      stages.push_back(&span);
      id = span.parent;
    }
    std::reverse(stages.begin(), stages.end());
    for (const TraceSpan* span : stages) {
      CriticalPathEntry entry;
      entry.stage = span->stage;
      entry.dc = span->dc;
      entry.start_nanos = span->start_nanos;
      entry.duration_nanos =
          span->open() ? 0 : span->end_nanos - span->start_nanos;
      if (entry.duration_nanos < 0) entry.duration_nanos = 0;
      path.push_back(std::move(entry));
    }
  } else {
    // Span-free trace (old encoder): derive stages from hop deltas.
    for (size_t i = 0; i < ctx.hops.size(); ++i) {
      CriticalPathEntry entry;
      entry.stage = ctx.hops[i].stage;
      entry.dc = ctx.hops[i].dc;
      entry.start_nanos = ctx.hops[i].nanos;
      entry.duration_nanos =
          i + 1 < ctx.hops.size() ? ctx.hops[i + 1].nanos - ctx.hops[i].nanos
                                  : 0;
      if (entry.duration_nanos < 0) entry.duration_nanos = 0;
      path.push_back(std::move(entry));
    }
  }
  int64_t total = 0;
  for (const CriticalPathEntry& entry : path) total += entry.duration_nanos;
  for (CriticalPathEntry& entry : path) {
    entry.share = total == 0 ? 0.0
                             : static_cast<double>(entry.duration_nanos) /
                                   static_cast<double>(total);
  }
  return path;
}

std::string RenderCriticalPath(const TraceContext& ctx) {
  std::vector<CriticalPathEntry> path = CriticalPath(ctx);
  int64_t total = 0;
  for (const CriticalPathEntry& entry : path) total += entry.duration_nanos;
  std::string out = "trace " + std::to_string(ctx.trace_id) +
                    ": end-to-end " + std::to_string(total) + " ns across " +
                    std::to_string(path.size()) + " stages\n";
  // Membership of the stage chain: ids reachable from `chain` via parents.
  std::vector<bool> in_chain(ctx.spans.size() + 1, false);
  for (uint32_t id = ctx.chain; id != 0 && id <= ctx.spans.size() &&
                                !in_chain[id];
       id = ctx.spans[id - 1].parent) {
    in_chain[id] = true;
  }
  char line[160];
  for (const CriticalPathEntry& entry : path) {
    std::snprintf(line, sizeof(line), "  %-14s dc%-3u %12lld ns  %5.1f%%\n",
                  entry.stage.c_str(), entry.dc,
                  static_cast<long long>(entry.duration_nanos),
                  entry.share * 100.0);
    out += line;
    // Sub-operation spans (BeginSpan/EndSpan) nested under this stage.
    for (const TraceSpan& span : ctx.spans) {
      if (span.id == 0 || span.id > ctx.spans.size() || in_chain[span.id] ||
          span.parent == 0 || span.parent > ctx.spans.size() ||
          !in_chain[span.parent]) {
        continue;
      }
      const TraceSpan& parent = ctx.spans[span.parent - 1];
      if (parent.stage != entry.stage ||
          parent.start_nanos != entry.start_nanos) {
        continue;
      }
      std::snprintf(line, sizeof(line), "    + %-12s dc%-3u %12lld ns\n",
                    span.stage.c_str(), span.dc,
                    static_cast<long long>(
                        span.open() ? 0 : span.end_nanos - span.start_nanos));
      out += line;
    }
  }
  return out;
}

TraceSink& TraceSink::Default() {
  static TraceSink* sink = new TraceSink();  // leaked: outlives teardown
  return *sink;
}

void TraceSink::Record(TraceContext ctx) {
  if (!ctx.active()) return;
  // Feed per-hop latency histograms from consecutive-hop deltas, attributed
  // to the later hop ("how long did it take to reach this stage").
  for (size_t i = 1; i < ctx.hops.size(); ++i) {
    int64_t delta = ctx.hops[i].nanos - ctx.hops[i - 1].nanos;
    if (delta < 0) delta = 0;
    metrics::Registry::Default()
        .GetHistogram("chariots.trace.hop_ns." + ctx.hops[i].stage)
        ->Record(static_cast<uint64_t>(delta));
  }
  std::lock_guard<std::mutex> lock(mu_);
  traces_.push_back(std::move(ctx));
  while (traces_.size() > capacity_) traces_.pop_front();
}

std::vector<TraceContext> TraceSink::Traces() const {
  std::lock_guard<std::mutex> lock(mu_);
  return {traces_.begin(), traces_.end()};
}

bool TraceSink::Find(uint64_t trace_id, TraceContext* out) const {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto it = traces_.rbegin(); it != traces_.rend(); ++it) {
    if (it->trace_id == trace_id) {
      *out = *it;
      return true;
    }
  }
  return false;
}

void TraceSink::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  traces_.clear();
}

std::string RenderTracesJson(const std::vector<TraceContext>& traces) {
  std::string out = "[";
  bool first_trace = true;
  for (const TraceContext& t : traces) {
    if (!first_trace) out += ",";
    first_trace = false;
    out += "{\"trace_id\":" + std::to_string(t.trace_id) + ",\"hops\":[";
    bool first_hop = true;
    for (const TraceHop& hop : t.hops) {
      if (!first_hop) out += ",";
      first_hop = false;
      out += "{\"stage\":";
      AppendJsonString(&out, hop.stage);
      out += ",\"dc\":" + std::to_string(hop.dc);
      out += ",\"nanos\":" + std::to_string(hop.nanos) + "}";
    }
    out += "],\"spans\":[";
    bool first_span = true;
    for (const TraceSpan& span : t.spans) {
      if (!first_span) out += ",";
      first_span = false;
      out += "{\"id\":" + std::to_string(span.id);
      out += ",\"parent\":" + std::to_string(span.parent);
      out += ",\"stage\":";
      AppendJsonString(&out, span.stage);
      out += ",\"dc\":" + std::to_string(span.dc);
      out += ",\"start_nanos\":" + std::to_string(span.start_nanos);
      out += ",\"end_nanos\":" + std::to_string(span.end_nanos) + "}";
    }
    out += "]}";
  }
  out += "]";
  return out;
}

}  // namespace chariots::trace
