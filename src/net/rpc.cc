#include "net/rpc.h"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <vector>

#include "common/flight_recorder.h"
#include "common/logging.h"
#include "common/metrics.h"

namespace chariots::net {

namespace {

thread_local trace::TraceContext t_current_rpc_trace;

// Sets the delivery thread's current-request trace for the duration of a
// handler invocation.
class ScopedRpcTrace {
 public:
  explicit ScopedRpcTrace(trace::TraceContext ctx) {
    t_current_rpc_trace = std::move(ctx);
  }
  ~ScopedRpcTrace() { t_current_rpc_trace = trace::TraceContext{}; }
};

// Channel label for per-channel RPC metrics: the first path component of
// the destination node id ("geo/dc0/api" -> "geo", "m3" -> "m3" — flat ids
// are their own channel).
std::string ChannelOf(const NodeId& to) {
  size_t slash = to.find('/');
  return slash == std::string::npos ? to : to.substr(0, slash);
}

metrics::Counter* CallCounter() {
  static metrics::Counter* c =
      metrics::Registry::Default().GetCounter("net.rpc.calls");
  return c;
}

metrics::Counter* CallErrorCounter() {
  static metrics::Counter* c =
      metrics::Registry::Default().GetCounter("net.rpc.call_errors");
  return c;
}

metrics::Counter* CallTimeoutCounter() {
  static metrics::Counter* c =
      metrics::Registry::Default().GetCounter("net.rpc.call_timeouts");
  return c;
}

// How long one call may wait: the per-call timeout, capped by the overall
// deadline.
int64_t WaitNanos(const CallOptions& options) {
  int64_t wait = std::chrono::nanoseconds(options.timeout).count();
  if (!options.deadline.IsInfinite()) {
    wait = std::min(wait, options.deadline.RemainingNanos());
  }
  return wait;
}

metrics::Counter* BlockingWaitsOnWorkerCounter() {
  static metrics::Counter* c = metrics::Registry::Default().GetCounter(
      "net.rpc.blocking_waits_on_worker");
  return c;
}

metrics::Counter* HandledCounter() {
  static metrics::Counter* c =
      metrics::Registry::Default().GetCounter("net.rpc.requests_handled");
  return c;
}

metrics::Counter* HandlerErrorCounter() {
  static metrics::Counter* c =
      metrics::Registry::Default().GetCounter("net.rpc.handler_errors");
  return c;
}

}  // namespace

const trace::TraceContext& CurrentRpcTrace() { return t_current_rpc_trace; }

void RegisterRpcMetrics() {
  CallCounter();
  CallErrorCounter();
  CallTimeoutCounter();
  BlockingWaitsOnWorkerCounter();
  HandledCounter();
  HandlerErrorCounter();
}

RpcEndpoint::RpcEndpoint(Transport* transport, NodeId node)
    : transport_(transport), node_(std::move(node)) {}

RpcEndpoint::~RpcEndpoint() { Stop(); }

Status RpcEndpoint::HandleAsync(uint16_t type, AsyncHandler handler,
                                Dispatch dispatch) {
  std::lock_guard<std::mutex> lock(mu_);
  if (started_) {
    return Status::FailedPrecondition("handler registered after Start");
  }
  handlers_[type] = std::move(handler);
  if (dispatch == Dispatch::kInline) {
    inline_requests_.insert(type);
  } else {
    inline_requests_.erase(type);
  }
  return Status::OK();
}

Status RpcEndpoint::Handle(uint16_t type, RpcHandler handler,
                           Dispatch dispatch) {
  return HandleAsync(
      type,
      [handler = std::move(handler)](const NodeId& from,
                                     const std::string& payload,
                                     Reply reply) {
        reply(handler(from, payload));
      },
      dispatch);
}

Status RpcEndpoint::HandleOneWay(uint16_t type, OneWayHandler handler,
                                 Dispatch dispatch) {
  std::lock_guard<std::mutex> lock(mu_);
  if (started_) {
    return Status::FailedPrecondition("handler registered after Start");
  }
  oneway_handlers_[type] = std::move(handler);
  if (dispatch == Dispatch::kInline) {
    inline_oneway_.insert(type);
  } else {
    inline_oneway_.erase(type);
  }
  return Status::OK();
}

Status RpcEndpoint::Start() {
  InlineSafeFn inline_safe;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (started_) return Status::FailedPrecondition("endpoint started");
    started_ = true;
    timer_gate_ = SerialGate();
    if (!inline_requests_.empty() || !inline_oneway_.empty()) {
      inline_safe = [requests = inline_requests_,
                     oneway = inline_oneway_](const Message& msg) {
        return (msg.rpc_id == 0 ? oneway : requests).count(msg.type) != 0;
      };
    }
  }
  return transport_->RegisterInlineSafe(
      node_, [this](Message msg) { OnMessage(std::move(msg)); },
      std::move(inline_safe));
}

void RpcEndpoint::Stop() {
  std::vector<PendingCall> stopped;
  SerialGate gate;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!started_) return;
    started_ = false;
    for (Slot& slot : slots_) {
      if (slot.rpc_id != 0) stopped.push_back(std::move(slot.call));
    }
    slots_.clear();
    free_slots_.clear();
    armed_at_ = -1;
    gate = timer_gate_;
  }
  // Waits out a running timeout sweep; later timer firings no-op. The
  // transport binding goes next, which fences inline response delivery.
  gate.Close();
  (void)transport_->Unregister(node_);
  for (PendingCall& call : stopped) {
    Complete(call, Status::Unavailable("endpoint stopped"),
             CallErrorCounter());
  }
}

void RpcEndpoint::OnMessage(Message msg) {
  if (msg.is_response) {
    std::optional<PendingCall> call = Take(msg.rpc_id);
    if (!call.has_value()) return;  // late response; already timed out
    if (msg.error_code != 0) {
      Complete(*call,
               Status(static_cast<StatusCode>(msg.error_code), msg.payload),
               CallErrorCounter());
    } else {
      Complete(*call, std::move(msg.payload), nullptr);
    }
    return;
  }

  // The tables are frozen while the endpoint serves (see HandleAsync).
  if (msg.rpc_id == 0) {
    auto it = oneway_handlers_.find(msg.type);
    if (it != oneway_handlers_.end()) {
      it->second(msg.from, std::move(msg.payload));
    } else {
      LOG_WARN << node_ << ": no one-way handler for type " << msg.type;
    }
    return;
  }

  auto it = handlers_.find(msg.type);
  const AsyncHandler* handler =
      it != handlers_.end() ? &it->second : nullptr;
  // The reply holds the transport, not the endpoint: it may run after the
  // handler returned, on any thread, even after Stop(). It takes this
  // node's id from the request; the sender's id is copied, as the handler
  // reads it.
  Message response;
  response.from = std::move(msg.to);
  response.to = msg.from;
  response.type = msg.type;
  response.rpc_id = msg.rpc_id;
  response.is_response = true;
  Reply reply(transport_, std::move(response));
  if (handler == nullptr) {
    reply(Status::NotSupported("no handler for opcode"));
    return;
  }
  HandledCounter()->Add();
  flightrec::Record(flightrec::EventType::kRpcStart, msg.type, 0, msg.rpc_id,
                    msg.payload.size());
  ScopedRpcTrace scoped_trace(std::move(msg.trace));
  (*handler)(msg.from, msg.payload, std::move(reply));
}

void RpcEndpoint::Reply::operator()(Result<std::string> result) const {
  if (forward_ != nullptr) {
    forward_(std::move(result));
    return;
  }
  Message& response = response_;
  if (result.ok()) {
    response.payload = std::move(result).value();
  } else {
    HandlerErrorCounter()->Add();
    response.error_code = static_cast<uint8_t>(result.status().code());
    response.payload = result.status().message();
  }
  flightrec::Record(flightrec::EventType::kRpcEnd, response.type,
                    response.error_code, response.rpc_id,
                    response.payload.size());
  (void)transport_->Send(std::move(response));
}

void RpcEndpoint::CallAsync(const NodeId& to, uint16_t type,
                            std::string payload, const CallOptions& options,
                            Completion done) {
  if (options.deadline.Expired()) {
    done(Deadline::ExceededError("rpc to " + to));
    return;
  }
  CallCounter()->Add();
  const int64_t start_nanos = SystemClock::Default()->NowNanos();
  // Timeouts run on the shared executor's clock; when that is the steady
  // clock, the start time already read serves.
  Clock* timer_clock = Executor::Default()->clock();
  const int64_t expires_at =
      (timer_clock == SystemClock::Default() ? start_nanos
                                             : timer_clock->NowNanos()) +
      WaitNanos(options);
  uint64_t rpc_id = 0;
  bool started = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    started = started_;
    if (started) {
      auto dest = latency_by_dest_.find(to);
      if (dest == latency_by_dest_.end()) {
        dest = latency_by_dest_
                   .emplace(to, metrics::Registry::Default().GetHistogram(
                                    "net.rpc.call_latency_ns." + ChannelOf(to)))
                   .first;
      }
      uint32_t index = 0;
      if (free_slots_.empty()) {
        index = static_cast<uint32_t>(slots_.size());
        slots_.emplace_back();
      } else {
        index = free_slots_.back();
        free_slots_.pop_back();
      }
      if (++last_tag_ == 0) last_tag_ = 1;  // rpc_id 0 means one-way
      rpc_id = (uint64_t{last_tag_} << 32) | index;
      Slot& slot = slots_[index];
      slot.rpc_id = rpc_id;
      PendingCall& call = slot.call;
      call.done = std::move(done);
      call.to = &dest->first;
      call.deadline = options.deadline;
      call.expires_at = expires_at;
      call.start_nanos = start_nanos;
      call.latency = dest->second;
      ArmLocked(call.expires_at);
    }
  }
  if (!started) {
    done(Status::FailedPrecondition("endpoint not started"));
    return;
  }

  Message msg;
  msg.from = node_;
  msg.to = to;
  msg.type = type;
  msg.rpc_id = rpc_id;
  msg.payload = std::move(payload);
  msg.trace = options.trace;
  Status send_status = transport_->Send(std::move(msg));
  if (send_status.ok()) return;
  std::optional<PendingCall> call = Take(rpc_id);
  if (!call.has_value()) return;  // stopped meanwhile; already failed
  if (send_status.IsNotFound()) {
    // The destination has no binding right now (crashed, restarting, or
    // not yet up). To the caller that is a transient reachability
    // failure, not a data-level NotFound — report it retryable.
    send_status = Status::Unavailable("destination not reachable: " + to);
  }
  Complete(*call, send_status, CallErrorCounter());
}

std::optional<RpcEndpoint::PendingCall> RpcEndpoint::Take(uint64_t rpc_id) {
  const uint32_t index = static_cast<uint32_t>(rpc_id);
  std::lock_guard<std::mutex> lock(mu_);
  if (index >= slots_.size() || slots_[index].rpc_id != rpc_id) {
    return std::nullopt;
  }
  slots_[index].rpc_id = 0;
  free_slots_.push_back(index);
  return std::move(slots_[index].call);
}

void RpcEndpoint::Complete(PendingCall& call, Result<std::string> result,
                           metrics::Counter* counter) {
  call.latency->Record(static_cast<uint64_t>(
      SystemClock::Default()->NowNanos() - call.start_nanos));
  if (counter != nullptr) counter->Add();
  call.done(std::move(result));
}

void RpcEndpoint::TimeOut(PendingCall& call) {
  Status status = call.deadline.Expired()
                      ? Deadline::ExceededError("rpc to " + *call.to)
                      : Status::TimedOut("rpc to " + *call.to + " timed out");
  Complete(call, std::move(status), CallTimeoutCounter());
}

void RpcEndpoint::ArmLocked(int64_t at) {
  if (armed_at_ >= 0 && armed_at_ <= at) return;
  armed_at_ = at;
  // One-shot and never cancelled: a superseded firing finds nothing due
  // and re-arms for the current head. The timer lane keeps timeouts live
  // when every worker is busy.
  (void)Executor::Default()->ScheduleAt(
      at, timer_gate_.Wrap([this] { ExpireDue(); }), Executor::Lane::kTimer);
}

void RpcEndpoint::ExpireDue() {
  // A sweep scans every pending call; it runs about once per timeout
  // period, and only calls in flight are pending.
  std::vector<PendingCall> expired;
  {
    std::lock_guard<std::mutex> lock(mu_);
    armed_at_ = -1;
    const int64_t now = Executor::Default()->clock()->NowNanos();
    int64_t next = -1;
    for (uint32_t index = 0; index < slots_.size(); ++index) {
      Slot& slot = slots_[index];
      if (slot.rpc_id == 0) continue;
      if (slot.call.expires_at <= now) {
        expired.push_back(std::move(slot.call));
        slot.rpc_id = 0;
        free_slots_.push_back(index);
        continue;
      }
      if (next < 0 || slot.call.expires_at < next) {
        next = slot.call.expires_at;
      }
    }
    if (next >= 0) ArmLocked(next);
  }
  for (PendingCall& call : expired) TimeOut(call);
}

Result<std::string> RpcEndpoint::Call(const NodeId& to, uint16_t type,
                                      std::string payload,
                                      const CallOptions& options) {
  // On this stack: the completion runs exactly once, and Call returns only
  // after it has, having taken the lock it released.
  struct Waiter {
    std::mutex mu;
    std::condition_variable cv;
    std::optional<Result<std::string>> result;
  } waiter;
  if (Executor::OnWorkerThread()) BlockingWaitsOnWorkerCounter()->Add();
  BlockingWaitScope blocking;
  CallAsync(to, type, std::move(payload), options,
            [&waiter](Result<std::string> result) {
              std::lock_guard<std::mutex> lock(waiter.mu);
              waiter.result.emplace(std::move(result));
              waiter.cv.notify_all();
            });
  std::unique_lock<std::mutex> lock(waiter.mu);
  waiter.cv.wait(lock, [&] { return waiter.result.has_value(); });
  return std::move(*waiter.result);
}

Status RpcEndpoint::Notify(const NodeId& to, uint16_t type,
                           std::string payload) {
  Message msg;
  msg.from = node_;
  msg.to = to;
  msg.type = type;
  msg.rpc_id = 0;
  msg.payload = std::move(payload);
  return transport_->Send(std::move(msg));
}

}  // namespace chariots::net
