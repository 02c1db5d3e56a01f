#ifndef CHARIOTS_NET_RPC_H_
#define CHARIOTS_NET_RPC_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <mutex>
#include <optional>
#include <string>
#include <type_traits>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/executor.h"
#include "common/metrics.h"
#include "common/result.h"
#include "common/retry.h"
#include "common/status.h"
#include "common/trace.h"
#include "net/transport.h"

namespace chariots::net {

/// Per-call options: a per-attempt timeout plus an optional overall
/// Deadline. The effective wait is the smaller of the two, so one Deadline
/// can budget a whole retry loop across attempts (see RetryingChannel).
struct CallOptions {
  std::chrono::milliseconds timeout{5000};
  Deadline deadline;  ///< infinite by default
  /// When active, rides in the request message header so the server can
  /// continue the trace (see CurrentRpcTrace()).
  trace::TraceContext trace;
};

/// Trace context of the RPC request currently being handled on this thread.
/// A handler runs on one thread from start to return, so it (or code it
/// calls synchronously, before it returns) reads the inbound trace here;
/// inactive when the request carried none.
const trace::TraceContext& CurrentRpcTrace();

/// Request/response layer over a Transport. One endpoint per logical node.
///
/// Server side: register per-opcode handlers, then Start(); the tables
/// freeze while the endpoint serves. A handler runs on the transport
/// delivery thread; one registered Dispatch::kInline may instead run on
/// the thread that sent the request, when the transport supports it
/// (InProcTransport: inline handlers of one node run side by side, each on
/// its sender's thread, and a queued handler runs alone). A
/// HandleAsync handler gets a Reply it may invoke later, from any thread,
/// so it can return (freeing the node's inbox and its thread) while the
/// work it started completes elsewhere. Handle() is the synchronous
/// special case.
///
/// Client side: CallAsync() sends and returns at once; its completion runs
/// on the thread that delivers the response (inline, never queued behind
/// the caller's own handlers), or on the shared executor's timer lane when
/// the call times out (timeouts run in real time, whatever clock the
/// transport uses). Call() blocks on that same completion. Notify() is
/// fire-and-forget.
class RpcEndpoint {
 public:
  /// Completion of an outbound call: the response payload or the error
  /// Status.
  using Completion = std::function<void(Result<std::string>)>;
  /// Sends the response to one inbound request: the payload, or the error
  /// Status, which travels back as an error response. Invoke exactly once,
  /// from any thread, during or after the handler; it stays valid after the
  /// endpoint stops (the response then goes out through the transport).
  /// The endpoint's Reply carries the response message itself, so replying
  /// allocates nothing; any callable taking the result converts to a Reply,
  /// for code that wraps or forwards one.
  class Reply {
   public:
    Reply() = default;
    template <typename Fn,
              typename = std::enable_if_t<
                  !std::is_same_v<std::decay_t<Fn>, Reply> &&
                  std::is_invocable_v<Fn&, Result<std::string>>>>
    Reply(Fn&& fn) : forward_(std::forward<Fn>(fn)) {}

    explicit operator bool() const {
      return transport_ != nullptr || forward_ != nullptr;
    }
    void operator()(Result<std::string> result) const;

   private:
    friend class RpcEndpoint;
    Reply(Transport* transport, Message response)
        : transport_(transport), response_(std::move(response)) {}

    Transport* transport_ = nullptr;
    /// Moved out by the one invocation.
    mutable Message response_;
    Completion forward_;
  };
  using AsyncHandler = std::function<void(
      const NodeId& from, const std::string& payload, Reply reply)>;
  using RpcHandler =
      std::function<Result<std::string>(const NodeId& from,
                                        const std::string& payload)>;
  /// One-way message handler (no response is sent).
  using OneWayHandler =
      std::function<void(const NodeId& from, std::string payload)>;
  /// Where a request may be handled. kInline declares that the handler
  /// never blocks — no blocking Call(), no wait on another message — and is
  /// safe alongside other inline handlers of the same node, so the
  /// transport may run it on the sending thread, concurrently with them
  /// (Transport::RegisterInlineSafe). kQueued handlers always run on a
  /// delivery thread, and never beside another handler of the node on the
  /// in-process transport.
  enum class Dispatch { kQueued, kInline };

  RpcEndpoint(Transport* transport, NodeId node);
  ~RpcEndpoint();

  RpcEndpoint(const RpcEndpoint&) = delete;
  RpcEndpoint& operator=(const RpcEndpoint&) = delete;

  /// Registers a request handler for `type` that replies through `reply`,
  /// possibly after returning. The handler tables freeze at Start():
  /// registering on a started endpoint fails with FailedPrecondition.
  Status HandleAsync(uint16_t type, AsyncHandler handler,
                     Dispatch dispatch = Dispatch::kQueued);

  /// Registers a request handler for `type` whose return value is the
  /// reply. Fails like HandleAsync on a started endpoint.
  Status Handle(uint16_t type, RpcHandler handler,
                Dispatch dispatch = Dispatch::kQueued);

  /// Registers a one-way handler for `type`. Fails like HandleAsync on a
  /// started endpoint.
  Status HandleOneWay(uint16_t type, OneWayHandler handler,
                      Dispatch dispatch = Dispatch::kQueued);

  /// Binds to the transport and begins serving.
  Status Start();

  /// Unbinds; outstanding calls complete with kUnavailable.
  void Stop();

  /// Sends a request; `done` runs exactly once with the response or the
  /// error (bounded by the per-call timeout and deadline). An unreachable
  /// destination surfaces as kUnavailable and an expired budget as
  /// kTimedOut — both retryable; all other codes come from the remote
  /// handler. `done` may run before CallAsync returns (e.g. a failed send)
  /// and must never wait for another message: it runs on a delivery or
  /// timer thread.
  void CallAsync(const NodeId& to, uint16_t type, std::string payload,
                 const CallOptions& options, Completion done);

  /// Blocking form of CallAsync. Called from an executor worker it parks
  /// that worker for the round trip, which `net.rpc.blocking_waits_on_worker`
  /// counts. The wait runs under a BlockingWaitScope: called from inside a
  /// handler that runs in line, it first hands the thread's claimed
  /// deliveries to the executor.
  Result<std::string> Call(const NodeId& to, uint16_t type,
                           std::string payload, const CallOptions& options);

  Result<std::string> Call(const NodeId& to, uint16_t type,
                           std::string payload,
                           std::chrono::milliseconds timeout =
                               std::chrono::milliseconds(5000)) {
    CallOptions options;
    options.timeout = timeout;
    return Call(to, type, std::move(payload), options);
  }

  /// Fire-and-forget notification.
  Status Notify(const NodeId& to, uint16_t type, std::string payload);

  const NodeId& node() const { return node_; }

 private:
  struct PendingCall {
    Completion done;
    const NodeId* to = nullptr;  ///< key in latency_by_dest_ (never erased)
    Deadline deadline;
    int64_t expires_at = 0;   ///< on the shared executor's clock
    int64_t start_nanos = 0;  ///< steady clock, for call_latency_ns
    metrics::Histogram* latency = nullptr;
  };
  /// A reusable home for one pending call.
  struct Slot {
    uint64_t rpc_id = 0;  ///< of the call it holds; 0 when free
    PendingCall call;
  };

  void OnMessage(Message msg);
  /// Removes call `rpc_id` if still pending. Only the remover completes it,
  /// so a response racing its timeout completes the call once.
  std::optional<PendingCall> Take(uint64_t rpc_id);
  /// Records the call's latency, bumps `counter` (if any) and runs `done`.
  static void Complete(PendingCall& call, Result<std::string> result,
                       metrics::Counter* counter);
  /// Completes a taken call as timed out (or past its overall deadline).
  static void TimeOut(PendingCall& call);
  /// Arms the timeout timer for `at` unless one fires no later. Caller
  /// holds mu_.
  void ArmLocked(int64_t at);
  /// Timer body: times out every call whose deadline passed.
  void ExpireDue();

  Transport* const transport_;
  const NodeId node_;

  std::mutex mu_;
  bool started_ = false;
  /// The handler tables, written only while stopped (under mu_): a
  /// started endpoint reads them without a lock, from every delivering
  /// thread at once.
  std::unordered_map<uint16_t, AsyncHandler> handlers_;
  std::unordered_map<uint16_t, OneWayHandler> oneway_handlers_;
  /// Opcodes registered Dispatch::kInline, per direction.
  std::unordered_set<uint16_t> inline_requests_;
  std::unordered_set<uint16_t> inline_oneway_;
  /// Calls in flight. A call's rpc_id carries its slot index in the low 32
  /// bits and a per-endpoint tag above them, so a response finds its call
  /// by index, a stale one finds another tag, and once the slots cover the
  /// calls in flight a call allocates nothing.
  std::vector<Slot> slots_;
  std::vector<uint32_t> free_slots_;
  uint32_t last_tag_ = 0;
  int64_t armed_at_ = -1;  ///< earliest armed timer (-1 = none)
  /// Fences timer bodies against Stop(); replaced by each Start().
  SerialGate timer_gate_;
  /// net.rpc.call_latency_ns.<channel> by destination, so a call costs no
  /// name building or registry lookup. Entries are never erased.
  std::unordered_map<NodeId, metrics::Histogram*> latency_by_dest_;
};

/// Registers the net.rpc.* call families (blocking_waits_on_worker
/// included) so they export at zero before the first call.
void RegisterRpcMetrics();

}  // namespace chariots::net

#endif  // CHARIOTS_NET_RPC_H_
