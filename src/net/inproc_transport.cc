#include "net/inproc_transport.h"

#include <algorithm>
#include <condition_variable>
#include <deque>

#include "common/logging.h"
#include "common/metrics.h"

namespace chariots::net {

namespace {

metrics::Counter* DeliveredCounter() {
  static metrics::Counter* c =
      metrics::Registry::Default().GetCounter("net.transport.delivered");
  return c;
}

metrics::Counter* DroppedCounter() {
  static metrics::Counter* c =
      metrics::Registry::Default().GetCounter("net.transport.dropped");
  return c;
}

// Drops specifically caused by the scripted fault plan (as opposed to link
// loss, outages, or dead bindings) — lets tests verify injection happened.
metrics::Counter* FaultDropCounter() {
  static metrics::Counter* c =
      metrics::Registry::Default().GetCounter("net.transport.fault_drops");
  return c;
}

metrics::Counter* RequestsInlineCounter() {
  static metrics::Counter* c =
      metrics::Registry::Default().GetCounter("net.transport.requests_inline");
  return c;
}

metrics::Counter* RequestsQueuedCounter() {
  static metrics::Counter* c =
      metrics::Registry::Default().GetCounter("net.transport.requests_queued");
  return c;
}

metrics::Counter* RequestsDivertedCounter() {
  static metrics::Counter* c = metrics::Registry::Default().GetCounter(
      "net.transport.requests_diverted");
  return c;
}

}  // namespace

/// Per-node delivery state. No thread: inline-safe requests are admitted
/// under a shared hold (`shared`) and run on their senders' trampolines;
/// `ready` is drained under `gate` by an executor task holding the node
/// exclusively (`exclusive`), one message at a time. `delayed` waits on the
/// executor's timer service, and responses are delivered inline under
/// `resp_gate` by whichever thread finds them due.
///
/// Requests and responses never share a lock: queued handlers may block in
/// nested Calls, response handlers only complete pending calls and must
/// never block. A reply therefore never waits behind the destination's
/// request handler — which is what keeps two nodes that RPC each other
/// simultaneously from deadlocking, and what lets the non-blocking timer
/// lane deliver delayed responses. Stop() fences the owning transport:
/// after it, no queued task, timer or claimed request touches it.
struct InProcTransport::Inbox {
  NodeId node;
  MessageHandler handler;
  InlineSafeFn inline_safe;  // null: every request is queued
  std::mutex mu;
  /// Signalled when the last running inline handler of a stopped node
  /// returns.
  std::condition_variable idle;
  std::priority_queue<DelayedMessage, std::vector<DelayedMessage>,
                      std::greater<DelayedMessage>>
      delayed;
  std::deque<Message> ready;  // the queued path, FIFO
  /// Shared holds: inline requests admitted and not yet finished.
  int shared = 0;
  /// Of those, the ones whose handler runs right now.
  int running = 0;
  /// An executor task holds the node and drains `ready`.
  bool exclusive = false;
  bool stopped = false;
  int64_t armed_nanos = -1;  // earliest pending timer deadline (-1 = none)
  SerialGate gate;       // the queued drain
  SerialGate resp_gate;  // inline response delivery

  /// Takes the exclusive hold for a drain the caller must submit, if
  /// requests wait and no one holds the node. Caller holds `mu`.
  bool TakeExclusiveLocked() {
    if (exclusive || shared > 0 || stopped || ready.empty()) return false;
    exclusive = true;
    return true;
  }
};

InProcTransport::InProcTransport(Clock* clock, Executor* executor)
    : executor_(executor != nullptr ? executor : Executor::Default()),
      rng_(42) {
  clock_ = clock != nullptr ? clock : executor_->clock();
  // Default rule: everything connected, zero latency, unlimited bandwidth.
  SetLink("", "", LinkOptions{});
}

InProcTransport::~InProcTransport() {
  std::vector<std::shared_ptr<Inbox>> to_close;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto& [_, inbox] : inboxes_) to_close.push_back(inbox);
    inboxes_.clear();
  }
  // After this loop no queued task, timer callback or claimed request will
  // ever touch `this` again (they hold the inbox by shared_ptr and no-op on
  // the stopped node).
  for (auto& inbox : to_close) (void)Stop(*inbox);
}

size_t InProcTransport::Stop(Inbox& inbox) {
  size_t undelivered = 0;
  {
    std::unique_lock<std::mutex> lock(inbox.mu);
    inbox.stopped = true;
    // Claimed requests not yet running are dropped by their trampolines.
    undelivered = inbox.delayed.size() + inbox.ready.size() +
                  static_cast<size_t>(inbox.shared - inbox.running);
    inbox.ready.clear();
    inbox.idle.wait(lock, [&] { return inbox.running == 0; });
  }
  // Close() blocks until an in-flight body finishes.
  inbox.gate.Close();
  inbox.resp_gate.Close();
  return undelivered;
}

Status InProcTransport::Register(const NodeId& node, MessageHandler handler) {
  return RegisterInlineSafe(node, std::move(handler), nullptr);
}

Status InProcTransport::RegisterInlineSafe(const NodeId& node,
                                           MessageHandler handler,
                                           InlineSafeFn inline_safe) {
  std::lock_guard<std::mutex> lock(mu_);
  if (inboxes_.count(node) != 0) {
    return Status::AlreadyExists("node already registered: " + node);
  }
  auto inbox = std::make_shared<Inbox>();
  inbox->node = node;
  inbox->handler = std::move(handler);
  inbox->inline_safe = std::move(inline_safe);
  inboxes_.emplace(node, std::move(inbox));
  return Status::OK();
}

Status InProcTransport::Unregister(const NodeId& node) {
  std::shared_ptr<Inbox> inbox;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = inboxes_.find(node);
    if (it == inboxes_.end()) return Status::NotFound("node: " + node);
    inbox = std::move(it->second);
    inboxes_.erase(it);
  }
  const size_t undelivered = Stop(*inbox);
  // Messages still queued for the dead binding are lost, not delivered:
  // account for them like any other network loss.
  if (undelivered > 0) {
    DroppedCounter()->Add(undelivered);
    dropped_.fetch_add(undelivered, std::memory_order_relaxed);
  }
  return Status::OK();
}

InProcTransport::LinkRule* InProcTransport::ResolveLink(const NodeId& from,
                                                        const NodeId& to) {
  // Most specific match: longest dst prefix, then longest src prefix.
  LinkRule* best = nullptr;
  size_t best_dst = 0, best_src = 0;
  for (auto& rule : links_) {
    if (from.rfind(rule->src_prefix, 0) != 0) continue;
    if (to.rfind(rule->dst_prefix, 0) != 0) continue;
    size_t d = rule->dst_prefix.size(), s = rule->src_prefix.size();
    if (best == nullptr || d > best_dst || (d == best_dst && s > best_src)) {
      best = rule.get();
      best_dst = d;
      best_src = s;
    }
  }
  return best;
}

Status InProcTransport::Send(Message msg) {
  std::shared_ptr<Inbox> inbox;
  TokenBucket* bandwidth = nullptr;
  int64_t latency = 0;
  size_t wire_size = msg.WireSize();
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = inboxes_.find(msg.to);
    if (it == inboxes_.end()) {
      return Status::NotFound("unknown destination: " + msg.to);
    }
    inbox = it->second;
    LinkRule* rule = ResolveLink(msg.from, msg.to);
    if (rule != nullptr) {
      if (rule->options.drop_probability > 0 &&
          rng_.NextDouble() < rule->options.drop_probability) {
        dropped_.fetch_add(1, std::memory_order_relaxed);
        DroppedCounter()->Add();
        return Status::OK();  // silent loss, like a real network
      }
      latency = rule->options.latency_nanos;
      bandwidth = rule->bandwidth.get();
    }
  }
  // The scripted fault plan sees every message that survived the link's
  // probabilistic drop. A real network loses the message after the sender
  // has paid to put it on the wire, so Send still returns OK on a drop.
  FaultDecision decision = faults_.Inspect(msg, clock_->NowNanos());
  if (decision.drop) {
    DroppedCounter()->Add();
    FaultDropCounter()->Add();
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return Status::OK();
  }

  // Serialize onto the link outside the registry lock: this blocks the
  // sender, modeling NIC back-pressure.
  if (bandwidth != nullptr) bandwidth->Acquire(static_cast<double>(wire_size));

  int64_t deliver_at = clock_->NowNanos() + latency + decision.delay_nanos;
  const uint64_t seq = seq_.fetch_add(decision.duplicate ? 2 : 1,
                                      std::memory_order_relaxed) +
                       1;
  Message dup;
  if (decision.duplicate) {
    dup = msg;  // copy before the original is moved
    // The only payload copy in this transport — messages are otherwise
    // moved end to end. Counted so copies_per_record stays truthful.
    CountPayloadCopied(dup.payload.size());
  }
  if (!Enqueue(inbox, std::move(msg), deliver_at, seq)) {
    return Status::NotFound("destination stopped");
  }
  if (decision.duplicate) {
    (void)Enqueue(inbox, std::move(dup),
                  deliver_at + decision.duplicate_delay_nanos, seq + 1);
  }
  return Status::OK();
}

bool InProcTransport::Enqueue(const std::shared_ptr<Inbox>& inbox,
                              Message msg, int64_t deliver_at_nanos,
                              uint64_t seq) {
  if (deliver_at_nanos > clock_->NowNanos()) {
    std::lock_guard<std::mutex> lock(inbox->mu);
    if (inbox->stopped) return false;
    inbox->delayed.push(DelayedMessage{deliver_at_nanos, seq, std::move(msg)});
    ArmLocked(inbox);
    return true;
  }
  Trampoline& t = CurrentTrampoline();
  if (msg.is_response) {
    // On the sending thread: a response never queues behind the
    // destination's (possibly blocked) request handlers, nor waits for a
    // worker. A trampoline sends it from inside a handler; it delivers the
    // response once the handler has returned and released its node, so
    // the completion never holds the replying node.
    if (t.running && t.blocking == 0) {
      t.replies.push_back(DeferredReply{this, inbox, std::move(msg)});
      return true;
    }
    return inbox->resp_gate.Run([&] { Deliver(inbox, std::move(msg)); });
  }
  // The sender runs the request itself only if nothing could make it wait
  // on the handler: inside a gate (a drain, a response) the handler would
  // nest under it, and under a BlockingWaitScope the thread is about to
  // stop running what it claims. A running trampoline has left every gate
  // by the time it runs what it claims.
  const bool in_line = inbox->inline_safe && inbox->inline_safe(msg) &&
                       t.blocking == 0 &&
                       (t.running || !SerialGate::HeldByCurrentThread());
  bool admitted = false;
  bool drain = false;
  {
    std::lock_guard<std::mutex> lock(inbox->mu);
    if (inbox->stopped) return false;
    if (in_line && !inbox->exclusive && inbox->ready.empty()) {
      ++inbox->shared;
      admitted = true;
    } else {
      // Behind a queued handler, or queued requests: join them rather
      // than wait, which keeps the node's FIFO per sender.
      if (in_line) RequestsDivertedCounter()->Add();
      inbox->ready.push_back(std::move(msg));
      drain = inbox->TakeExclusiveLocked();
    }
  }
  if (drain) SubmitDrain(inbox);
  if (!admitted) return true;
  t.claims.push_back(Claim{this, inbox, std::move(msg)});
  if (!t.running) RunTrampoline(t);
  return true;
}

InProcTransport::Trampoline& InProcTransport::CurrentTrampoline() {
  thread_local Trampoline trampoline;
  return trampoline;
}

void InProcTransport::RunTrampoline(Trampoline& t) {
  t.running = true;
  while (!t.claims.empty()) {
    Claim claim = std::move(t.claims.front());
    t.claims.pop_front();
    RunClaim(claim);
    FlushReplies(t);
  }
  t.running = false;
}

void InProcTransport::RunClaim(Claim& claim) {
  Inbox& inbox = *claim.inbox;
  {
    std::lock_guard<std::mutex> lock(inbox.mu);
    if (inbox.stopped) {  // counted as lost when the node stopped
      --inbox.shared;
      return;
    }
    ++inbox.running;
  }
  // While `running` counts this thread, Stop() waits for it, so the
  // transport stays alive.
  RequestsInlineCounter()->Add();
  claim.transport->Deliver(claim.inbox, std::move(claim.msg));
  std::unique_lock<std::mutex> lock(inbox.mu);
  --inbox.shared;
  if (inbox.TakeExclusiveLocked()) {
    lock.unlock();
    claim.transport->SubmitDrain(claim.inbox);
    lock.lock();
  }
  if (--inbox.running == 0 && inbox.stopped) inbox.idle.notify_all();
}

void InProcTransport::FlushReplies(Trampoline& t) {
  while (!t.replies.empty()) {
    DeferredReply reply = std::move(t.replies.front());
    t.replies.pop_front();
    reply.inbox->resp_gate.Run([&] {
      reply.transport->Deliver(reply.inbox, std::move(reply.msg));
    });
  }
}

void InProcTransport::SubmitDrain(const std::shared_ptr<Inbox>& inbox) {
  if (executor_->Submit(
          inbox->gate.Wrap([this, inbox] { DrainReady(inbox); }))) {
    return;
  }
  // The executor shut down: the queue is lost as if the node had stopped.
  size_t lost = 0;
  {
    std::lock_guard<std::mutex> lock(inbox->mu);
    lost = inbox->ready.size();
    inbox->ready.clear();
    inbox->exclusive = false;
  }
  if (lost > 0) {
    DroppedCounter()->Add(lost);
    dropped_.fetch_add(lost, std::memory_order_relaxed);
  }
}

void InProcTransport::DrainReady(const std::shared_ptr<Inbox>& inbox) {
  // No inline handler runs meanwhile: the drain started with no shared
  // hold left, and none is admitted while the node is held exclusively. A
  // stopped node's queue was counted as dropped and is not delivered.
  for (;;) {
    Message msg;
    {
      std::lock_guard<std::mutex> lock(inbox->mu);
      if (inbox->stopped || inbox->ready.empty()) {
        inbox->exclusive = false;
        return;
      }
      msg = std::move(inbox->ready.front());
      inbox->ready.pop_front();
    }
    RequestsQueuedCounter()->Add();
    Deliver(inbox, std::move(msg));
  }
}

void InProcTransport::DrainDue(const std::shared_ptr<Inbox>& inbox) {
  // Runs under inbox->resp_gate (timer lane or AdvanceUntil): moves due
  // requests onto the node's queue and delivers due responses right here.
  // Must not block — everything below is lock-bounded.
  bool drain = false;
  std::vector<Message> responses;
  {
    std::lock_guard<std::mutex> lock(inbox->mu);
    inbox->armed_nanos = -1;
    int64_t now = clock_->NowNanos();
    while (!inbox->delayed.empty() &&
           inbox->delayed.top().deliver_at_nanos <= now) {
      Message m =
          std::move(const_cast<DelayedMessage&>(inbox->delayed.top()).msg);
      inbox->delayed.pop();
      if (m.is_response) {
        responses.push_back(std::move(m));
      } else {
        inbox->ready.push_back(std::move(m));
      }
    }
    drain = inbox->TakeExclusiveLocked();
    ArmLocked(inbox);
  }
  for (Message& m : responses) Deliver(inbox, std::move(m));
  if (drain) SubmitDrain(inbox);
}

void InProcTransport::ArmLocked(const std::shared_ptr<Inbox>& inbox) {
  if (inbox->stopped || inbox->delayed.empty()) return;
  int64_t due = inbox->delayed.top().deliver_at_nanos;
  if (inbox->armed_nanos >= 0 && inbox->armed_nanos <= due) return;
  inbox->armed_nanos = due;
  // One-shot; never cancelled. A stale firing (head changed, inbox gone)
  // finds nothing due and either re-arms or no-ops on the closed gate. The
  // outer lambda only copies `this` — it is dereferenced solely inside the
  // gate body, which the transport's destructor fences.
  (void)executor_->ScheduleAt(
      due,
      [this, inbox] {
        inbox->resp_gate.Run([this, &inbox] { DrainDue(inbox); });
      },
      Executor::Lane::kTimer);
}

void InProcTransport::Deliver(const std::shared_ptr<Inbox>& inbox,
                              Message msg) {
  // Crash model: a message arriving while the destination is inside an
  // outage window vanishes, exactly as if the process were down.
  if (faults_.InOutage(inbox->node, clock_->NowNanos())) {
    DroppedCounter()->Add();
    FaultDropCounter()->Add();
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  // Counted at hand-off, so a handler that signals a waiter never lets it
  // observe its own message as undelivered.
  DeliveredCounter()->Add();
  delivered_.fetch_add(1, std::memory_order_relaxed);
  inbox->handler(std::move(msg));
}

BlockingWaitScope::BlockingWaitScope() {
  using T = InProcTransport;
  T::Trampoline& t = T::CurrentTrampoline();
  if (!t.running) return;  // nothing claimed; sends may still run in line
  active_ = true;
  ++t.blocking;
  // Deferred responses go out now, on this thread: a response never waits
  // for a worker, and never for a thread that is about to block.
  T::FlushReplies(t);
  // Every claimed request leaves this thread for the front of its node's
  // queue: this thread sent it before anything it queued there. Its shared
  // hold goes with it, so the drain can start.
  std::deque<T::Claim> claims;
  claims.swap(t.claims);
  for (auto claim = claims.rbegin(); claim != claims.rend(); ++claim) {
    T::Inbox& inbox = *claim->inbox;
    std::unique_lock<std::mutex> lock(inbox.mu);
    --inbox.shared;
    if (inbox.stopped) continue;  // counted as lost when the node stopped
    inbox.ready.push_front(std::move(claim->msg));
    if (!inbox.TakeExclusiveLocked()) continue;
    // Counted as running while it submits, so Stop() keeps the transport.
    ++inbox.running;
    lock.unlock();
    claim->transport->SubmitDrain(claim->inbox);
    lock.lock();
    if (--inbox.running == 0 && inbox.stopped) inbox.idle.notify_all();
  }
}

BlockingWaitScope::~BlockingWaitScope() {
  if (active_) --InProcTransport::CurrentTrampoline().blocking;
}

void InProcTransport::SetLink(const std::string& src_prefix,
                              const std::string& dst_prefix,
                              LinkOptions options) {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& rule : links_) {
    if (rule->src_prefix == src_prefix && rule->dst_prefix == dst_prefix) {
      rule->options = options;
      rule->bandwidth =
          options.bandwidth_bytes_per_sec > 0
              ? std::make_unique<TokenBucket>(options.bandwidth_bytes_per_sec,
                                              options.bandwidth_bytes_per_sec,
                                              clock_)
              : nullptr;
      return;
    }
  }
  auto rule = std::make_unique<LinkRule>();
  rule->src_prefix = src_prefix;
  rule->dst_prefix = dst_prefix;
  rule->options = options;
  if (options.bandwidth_bytes_per_sec > 0) {
    rule->bandwidth = std::make_unique<TokenBucket>(
        options.bandwidth_bytes_per_sec, options.bandwidth_bytes_per_sec,
        clock_);
  }
  links_.push_back(std::move(rule));
}

void InProcTransport::Partition(const std::string& a_prefix,
                                const std::string& b_prefix) {
  LinkOptions drop;
  drop.drop_probability = 1.0;
  SetLink(a_prefix, b_prefix, drop);
  SetLink(b_prefix, a_prefix, drop);
}

void InProcTransport::Heal(const std::string& a_prefix,
                           const std::string& b_prefix) {
  SetLink(a_prefix, b_prefix, LinkOptions{});
  SetLink(b_prefix, a_prefix, LinkOptions{});
}

void InProcTransport::Seed(uint64_t seed) {
  faults_.Seed(seed);
  std::lock_guard<std::mutex> lock(mu_);
  rng_ = Random(seed);
}

uint64_t InProcTransport::messages_delivered() const {
  return delivered_.load(std::memory_order_relaxed);
}

uint64_t InProcTransport::messages_dropped() const {
  return dropped_.load(std::memory_order_relaxed);
}

}  // namespace chariots::net
