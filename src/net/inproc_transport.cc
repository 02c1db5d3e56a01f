#include "net/inproc_transport.h"

#include <algorithm>
#include <array>
#include <condition_variable>
#include <deque>
#include <utility>

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
      routes_(std::make_shared<Routes>()),
      rng_(42) {
  clock_ = clock != nullptr ? clock : executor_->clock();
  current_routes_.store(routes_.get(), std::memory_order_release);
  // Default rule: everything connected, zero latency, unlimited bandwidth.
  SetLink("", "", LinkOptions{});
}

InProcTransport::~InProcTransport() {
  std::vector<std::shared_ptr<Inbox>> to_close;
  Publish([&](Routes& routes) {
    for (auto& [_, inbox] : routes.inboxes) to_close.push_back(inbox);
    routes.inboxes.clear();
  });
  // After this loop no queued task, timer callback or claimed request will
  // ever touch `this` again (they hold the inbox by shared_ptr and no-op on
  // the stopped node). Threads may still hold older route tables; those
  // keep only stopped inboxes.
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
  // Close() blocks until an in-flight body finishes. After that nothing
  // calls the handler again, so it is released here rather than with the
  // last route table that names the node.
  inbox.gate.Close();
  inbox.resp_gate.Close();
  inbox.handler = nullptr;
  return undelivered;
}

Status InProcTransport::Register(const NodeId& node, MessageHandler handler) {
  return RegisterInlineSafe(node, std::move(handler), nullptr);
}

Status InProcTransport::RegisterInlineSafe(const NodeId& node,
                                           MessageHandler handler,
                                           InlineSafeFn inline_safe) {
  auto inbox = std::make_shared<Inbox>();
  inbox->node = node;
  inbox->handler = std::move(handler);
  inbox->inline_safe = std::move(inline_safe);
  bool added = false;
  Publish([&](Routes& routes) {
    added = routes.inboxes.emplace(node, std::move(inbox)).second;
  });
  if (!added) return Status::AlreadyExists("node already registered: " + node);
  return Status::OK();
}

Status InProcTransport::Unregister(const NodeId& node) {
  std::shared_ptr<Inbox> inbox;
  Publish([&](Routes& routes) {
    auto it = routes.inboxes.find(node);
    if (it == routes.inboxes.end()) return;
    inbox = std::move(it->second);
    routes.inboxes.erase(it);
  });
  if (inbox == nullptr) return Status::NotFound("node: " + node);
  const size_t undelivered = Stop(*inbox);
  // Messages still queued for the dead binding are lost, not delivered:
  // account for them like any other network loss.
  if (undelivered > 0) {
    DroppedCounter()->Add(undelivered);
    dropped_.fetch_add(undelivered, std::memory_order_relaxed);
  }
  return Status::OK();
}

const InProcTransport::Routes& InProcTransport::CurrentRoutes() {
  // The tables this thread read lately, held so none can be freed while it
  // reads it. A held table's address cannot be reused, so one whose
  // address is the published one is the current table.
  struct Held {
    std::array<std::shared_ptr<const Routes>, 4> tables;
    size_t next = 0;
  };
  thread_local Held held;
  const Routes* current = current_routes_.load(std::memory_order_acquire);
  for (const auto& table : held.tables) {
    if (table.get() == current) return *table;
  }
  std::shared_ptr<const Routes>& slot =
      held.tables[held.next++ % held.tables.size()];
  std::lock_guard<std::mutex> lock(mu_);
  slot = routes_;
  return *slot;
}

template <typename Edit>
void InProcTransport::Publish(Edit&& edit) {
  std::shared_ptr<const Routes> replaced;  // released outside mu_
  std::lock_guard<std::mutex> lock(mu_);
  auto next = std::make_shared<Routes>(*routes_);
  edit(*next);
  replaced = std::exchange(routes_, std::move(next));
  current_routes_.store(routes_.get(), std::memory_order_release);
}

const InProcTransport::LinkRule* InProcTransport::ResolveLink(
    const Routes& routes, const NodeId& from, const NodeId& to) {
  // Most specific match: longest dst prefix, then longest src prefix.
  const LinkRule* best = nullptr;
  size_t best_dst = 0, best_src = 0;
  for (const LinkRule& rule : routes.links) {
    if (from.rfind(rule.src_prefix, 0) != 0) continue;
    if (to.rfind(rule.dst_prefix, 0) != 0) continue;
    size_t d = rule.dst_prefix.size(), s = rule.src_prefix.size();
    if (best == nullptr || d > best_dst || (d == best_dst && s > best_src)) {
      best = &rule;
      best_dst = d;
      best_src = s;
    }
  }
  return best;
}

Status InProcTransport::Send(Message msg) {
  // The table is read only up to the hand-off: a handler run by Enqueue may
  // send through this thread again and retire it.
  const Routes& routes = CurrentRoutes();
  auto it = routes.inboxes.find(msg.to);
  if (it == routes.inboxes.end()) {
    return Status::NotFound("unknown destination: " + msg.to);
  }
  std::shared_ptr<Inbox> inbox = it->second;
  const LinkRule* rule = ResolveLink(routes, msg.from, msg.to);
  if (rule != nullptr && rule->options.drop_probability > 0) {
    bool lost = false;
    {
      std::lock_guard<std::mutex> lock(rng_mu_);
      lost = rng_.NextDouble() < rule->options.drop_probability;
    }
    if (lost) {
      dropped_.fetch_add(1, std::memory_order_relaxed);
      DroppedCounter()->Add();
      return Status::OK();  // silent loss, like a real network
    }
  }
  // The scripted fault plan sees every message that survived the link's
  // probabilistic drop. A real network loses the message after the sender
  // has paid to put it on the wire, so Send still returns OK on a drop.
  FaultDecision decision;
  if (faults_.armed()) decision = faults_.Inspect(msg, clock_->NowNanos());
  if (decision.drop) {
    DroppedCounter()->Add();
    FaultDropCounter()->Add();
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return Status::OK();
  }

  // Serialize onto the link: this blocks the sender, modeling NIC
  // back-pressure.
  if (rule != nullptr && rule->bandwidth != nullptr) {
    rule->bandwidth->Acquire(static_cast<double>(msg.WireSize()));
  }
  const int64_t delay =
      (rule != nullptr ? rule->options.latency_nanos : 0) + decision.delay_nanos;
  if (delay <= 0 && !decision.duplicate) {
    if (!Enqueue(std::move(inbox), std::move(msg))) {
      return Status::NotFound("destination stopped");
    }
    return Status::OK();
  }

  const int64_t deliver_at = clock_->NowNanos() + delay;
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
  if (!EnqueueAt(inbox, std::move(msg), deliver_at, seq)) {
    return Status::NotFound("destination stopped");
  }
  if (decision.duplicate) {
    (void)EnqueueAt(std::move(inbox), std::move(dup),
                    deliver_at + decision.duplicate_delay_nanos, seq + 1);
  }
  return Status::OK();
}

bool InProcTransport::EnqueueAt(std::shared_ptr<Inbox> inbox, Message msg,
                                int64_t deliver_at_nanos, uint64_t seq) {
  if (deliver_at_nanos <= clock_->NowNanos()) {
    return Enqueue(std::move(inbox), std::move(msg));
  }
  std::lock_guard<std::mutex> lock(inbox->mu);
  if (inbox->stopped) return false;
  inbox->delayed.push(DelayedMessage{deliver_at_nanos, seq, std::move(msg)});
  ArmLocked(inbox);
  return true;
}

bool InProcTransport::Enqueue(std::shared_ptr<Inbox> inbox, Message msg) {
  Trampoline& t = CurrentTrampoline();
  if (msg.is_response) {
    // On the sending thread: a response never queues behind the
    // destination's (possibly blocked) request handlers, nor waits for a
    // worker. A trampoline sends it from inside a handler; it delivers the
    // response once the handler has returned and released its node, so
    // the completion never holds the replying node.
    if (t.running && t.blocking == 0) {
      t.replies.push(DeferredReply{this, std::move(inbox), std::move(msg)});
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
  t.claims.push(Claim{this, std::move(inbox), std::move(msg)});
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
    Claim claim = t.claims.pop();
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
    DeferredReply reply = t.replies.pop();
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
  if (faults_.armed() && faults_.InOutage(inbox->node, clock_->NowNanos())) {
    DroppedCounter()->Add();
    FaultDropCounter()->Add();
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  // Counted at hand-off, so a handler that signals a waiter never lets it
  // observe its own message as undelivered.
  DeliveredCounter()->Add();
  delivered_.Add();
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
  T::Fifo<T::Claim> claims;
  std::swap(claims, t.claims);
  for (auto claim = claims.items.rbegin();
       claim != claims.items.rend() - claims.head; ++claim) {
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
  LinkRule rule{src_prefix, dst_prefix, options, nullptr};
  if (options.bandwidth_bytes_per_sec > 0) {
    rule.bandwidth = std::make_shared<TokenBucket>(
        options.bandwidth_bytes_per_sec, options.bandwidth_bytes_per_sec,
        clock_);
  }
  Publish([&](Routes& routes) {
    for (LinkRule& existing : routes.links) {
      if (existing.src_prefix == src_prefix &&
          existing.dst_prefix == dst_prefix) {
        existing = std::move(rule);
        return;
      }
    }
    routes.links.push_back(std::move(rule));
  });
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
  std::lock_guard<std::mutex> lock(rng_mu_);
  rng_ = Random(seed);
}

uint64_t InProcTransport::messages_delivered() const {
  return delivered_.Value();
}

uint64_t InProcTransport::messages_dropped() const {
  return dropped_.load(std::memory_order_relaxed);
}

}  // namespace chariots::net
