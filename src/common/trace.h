#ifndef CHARIOTS_COMMON_TRACE_H_
#define CHARIOTS_COMMON_TRACE_H_

#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <vector>

#include "common/codec.h"

namespace chariots {
class Clock;
}

namespace chariots::trace {

/// Record-level tracing (ISSUE 4 tentpole part 2, extended by ISSUE 9 to
/// parent-linked spans). A sampled append carries a TraceContext — trace id
/// plus per-hop timestamps plus a span tree — through the RPC message
/// header and inside the encoded GeoRecord, so one record can be
/// reconstructed hop-by-hop across the whole pipeline and across
/// datacenters: client → batcher → filter → queue → maintainer → sender →
/// remote receiver → remote ATable merge.
///
/// Unsampled records have trace_id == 0 and pay zero bytes on the wire and
/// zero work on the hot path.

struct TraceHop {
  std::string stage;  // "client", "batcher", "filter", "queue", ...
  uint32_t dc = 0;    // datacenter the hop was recorded in
  int64_t nanos = 0;  // steady-clock timestamp (same epoch within a process)

  bool operator==(const TraceHop& other) const {
    return stage == other.stage && dc == other.dc && nanos == other.nanos;
  }
};

/// One interval in the trace's span tree (ISSUE 9 tentpole part 3). Each
/// AddHop() closes the current pipeline-stage span and opens the next one as
/// its child, so every trace carries a parent-linked chain covering the
/// whole critical path; BeginSpan/EndSpan hang extra sub-operation spans
/// (an RPC, an fsync) off the stage they happened inside, turning the chain
/// into a tree.
struct TraceSpan {
  uint32_t id = 0;      // 1-based, unique within the trace
  uint32_t parent = 0;  // 0 = root
  std::string stage;
  uint32_t dc = 0;
  int64_t start_nanos = 0;
  int64_t end_nanos = 0;  // 0 = still open

  bool open() const { return end_nanos == 0; }
  bool operator==(const TraceSpan& other) const {
    return id == other.id && parent == other.parent &&
           stage == other.stage && dc == other.dc &&
           start_nanos == other.start_nanos && end_nanos == other.end_nanos;
  }
};

struct TraceContext {
  uint64_t trace_id = 0;
  std::vector<TraceHop> hops;
  std::vector<TraceSpan> spans;
  /// Id of the currently open pipeline-stage span (0 before the first hop).
  uint32_t chain = 0;

  bool active() const { return trace_id != 0; }

  /// Appends a hop stamped with the current steady-clock time, closing the
  /// current stage span and opening the next as its child. No-op when
  /// inactive, so call sites don't need their own sampling check.
  void AddHop(std::string_view stage, uint32_t dc);

  /// Opens a sub-operation span under the current stage span. Returns its
  /// id (0 when the context is inactive). Pair with EndSpan.
  uint32_t BeginSpan(std::string_view stage, uint32_t dc);

  /// Closes the span returned by BeginSpan. Idempotent; ignores id 0.
  void EndSpan(uint32_t id);
};

/// Overrides the timestamp clock used by AddHop/BeginSpan/EndSpan (null
/// restores the steady clock). Span-tree tests use a ManualClock so stage
/// shares are exact.
void SetClockForTest(Clock* clock);

/// Deterministic sampling rule: sample when `every` > 0 and
/// `seq % every == 1` (so sequence number 1 — the first real record — is
/// always sampled, which keeps tests deterministic). `every` == 1 samples
/// every record.
bool ShouldSample(uint64_t seq, uint32_t every);

/// Derives a nonzero trace id from (dc, seq). Deterministic so the same
/// record gets the same id on an idempotent retry.
uint64_t MakeTraceId(uint32_t dc, uint64_t seq);

/// Wire format: [u64 trace_id][u32 hop_count]{[bytes stage][u32 dc]
/// [i64 nanos]}* [u32 span_count]{[u32 id][u32 parent][bytes stage][u32 dc]
/// [i64 start][i64 end]}* [u32 chain]. EncodeTrace appends NOTHING when the
/// context is inactive; DecodeTrace on an exhausted reader yields an
/// inactive context, and a reader exhausted after the hops yields a span-
/// free trace (pre-span encoders). Both properties keep old
/// encoders/decoders compatible and unsampled records free.
void EncodeTrace(const TraceContext& ctx, BinaryWriter* writer);
/// How many bytes EncodeTrace(ctx, ...) appends.
size_t EncodedTraceSize(const TraceContext& ctx);
bool DecodeTrace(BinaryReader* reader, TraceContext* ctx);

/// One stage of the reconstructed critical path.
struct CriticalPathEntry {
  std::string stage;
  uint32_t dc = 0;
  int64_t start_nanos = 0;
  int64_t duration_nanos = 0;
  double share = 0;  // fraction of end-to-end latency, in [0,1]
};

/// Reconstructs the pipeline-stage chain (following parent links from
/// `chain`) in chronological order with per-stage share of end-to-end
/// latency. Falls back to consecutive-hop deltas for span-free traces.
std::vector<CriticalPathEntry> CriticalPath(const TraceContext& ctx);

/// Human-readable per-record breakdown (what `chariots_cli trace` prints):
/// one line per critical-path stage plus indented sub-operation spans.
std::string RenderCriticalPath(const TraceContext& ctx);

/// Global ring buffer of completed traces plus per-hop latency histograms
/// (`chariots.trace.hop_ns.<stage>`, fed from consecutive-hop deltas when a
/// trace is recorded). Mutex-guarded: only sampled traffic reaches it.
class TraceSink {
 public:
  static TraceSink& Default();

  explicit TraceSink(size_t capacity = 256) : capacity_(capacity) {}

  void Record(TraceContext ctx);

  std::vector<TraceContext> Traces() const;

  /// Most recent trace whose id matches, if any.
  bool Find(uint64_t trace_id, TraceContext* out) const;

  void Clear();

 private:
  const size_t capacity_;
  mutable std::mutex mu_;
  std::deque<TraceContext> traces_;
};

/// JSON array of trace objects:
/// [{"trace_id":N,"hops":[{"stage":"client","dc":0,"nanos":T},...]},...]
std::string RenderTracesJson(const std::vector<TraceContext>& traces);

}  // namespace chariots::trace

#endif  // CHARIOTS_COMMON_TRACE_H_
