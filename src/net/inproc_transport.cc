#include "net/inproc_transport.h"

#include <algorithm>
#include <deque>
#include <thread>

#include "common/logging.h"
#include "common/metrics.h"

namespace chariots::net {

namespace {

/// Yields of a thread waiting for a strand before it sleeps on a futex.
constexpr int kYieldsBeforeSleep = 64;

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

metrics::Counter* RequestsMigratedCounter() {
  static metrics::Counter* c = metrics::Registry::Default().GetCounter(
      "net.transport.requests_migrated");
  return c;
}

}  // namespace

/// Per-node delivery state. No thread: `ready` is drained under `gate`,
/// one message at a time (preserving per-node serial delivery for
/// requests), by whichever thread `owner` names — a trampoline or an
/// executor worker. `delayed` waits on the executor's timer service, and
/// responses are delivered inline under `resp_gate` by whichever thread
/// finds them due.
///
/// Two gates on purpose: requests serialize under `gate` (their handlers
/// may block in nested Calls), responses under `resp_gate` (their handlers
/// only complete pending calls and must never block). A reply therefore
/// never waits behind the destination's request handler — which is what
/// keeps two nodes that RPC each other simultaneously from deadlocking,
/// and what lets the non-blocking timer lane deliver delayed responses.
/// Both gates also fence the owning transport: Unregister/destruction
/// closes them, after which no queued task or timer touches the transport.
struct InProcTransport::Inbox {
  /// A request waiting on the strand.
  struct Request {
    Message msg;
    uint64_t sender;     ///< Trampoline::id of the sending thread
    Trampoline* runner;  ///< the sender, who runs it; null: the drainer
  };

  NodeId node;
  MessageHandler handler;
  InlineSafeFn inline_safe;  // null: every request is queued
  std::mutex mu;
  std::priority_queue<DelayedMessage, std::vector<DelayedMessage>,
                      std::greater<DelayedMessage>>
      delayed;
  std::deque<Request> ready;
  /// Who drains `ready`: null while idle (then `ready` is empty),
  /// QueuedDrain() for an executor task, else a trampoline's thread.
  Trampoline* owner = nullptr;
  bool stopped = false;
  int64_t armed_nanos = -1;  // earliest pending timer deadline (-1 = none)
  SerialGate gate;       // request strand
  SerialGate resp_gate;  // inline response delivery

  /// Passes the strand to `to`, whose request is at the front. Caller
  /// holds `mu`, which keeps `to` alive until the wake-up is sent.
  void HandOverLocked(Trampoline* to) {
    owner = to;
    Wake(to);
  }

  /// Loses the queued requests; every sender waiting on one wakes to drop
  /// its claim. Caller holds `mu`. Returns how many were lost.
  size_t DropReadyLocked() {
    for (Request& r : ready) {
      if (r.runner != nullptr) Wake(r.runner);
    }
    const size_t lost = ready.size();
    ready.clear();
    return lost;
  }

  /// Stops the node. Caller holds `mu`. Returns how many messages were
  /// still undelivered.
  size_t StopLocked() {
    stopped = true;
    return delayed.size() + DropReadyLocked();
  }

  bool HoldsRequestOf(const Trampoline* t) const {
    for (const Request& r : ready) {
      if (r.runner == t) return true;
    }
    return false;
  }

  static void Wake(Trampoline* t) {
    t->handovers.fetch_add(1, std::memory_order_release);
    t->handovers.notify_one();
  }

  /// Marks a strand drained by an executor task (`owner`).
  static Trampoline* QueuedDrain() {
    static Trampoline* const queued = new Trampoline();
    return queued;
  }
};

InProcTransport::Trampoline::Trampoline()
    : id([] {
        static std::atomic<uint64_t> next{1};
        return next.fetch_add(1, std::memory_order_relaxed);
      }()) {}

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
  for (auto& inbox : to_close) {
    {
      std::lock_guard<std::mutex> il(inbox->mu);
      (void)inbox->StopLocked();
    }
    // Close() blocks until an in-flight body finishes, so after this loop
    // no strand task or timer callback will ever touch `this` again (they
    // hold the inbox by shared_ptr and no-op on the closed gates).
    inbox->gate.Close();
    inbox->resp_gate.Close();
  }
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
  size_t undelivered = 0;
  {
    std::lock_guard<std::mutex> il(inbox->mu);
    undelivered = inbox->StopLocked();
  }
  inbox->gate.Close();
  inbox->resp_gate.Close();
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
    // worker. A trampoline sends from inside a gate; it delivers the
    // response once it has settled that strand, so the completion never
    // holds the replying node's strand.
    if (t.running && t.blocking == 0) {
      t.replies.push_back(DeferredReply{this, inbox, std::move(msg)});
      return true;
    }
    return inbox->resp_gate.Run([&] { Deliver(inbox, std::move(msg)); });
  }
  // The sender runs the request itself only if nothing could make it wait
  // on the handler: inside a gate (a strand, a response) the handler would
  // nest under it, and under a BlockingWaitScope the thread is about to
  // stop draining. A running trampoline has released every gate by the
  // time it drains what it claims.
  const bool in_line = inbox->inline_safe && inbox->inline_safe(msg) &&
                       t.blocking == 0 &&
                       (t.running || !SerialGate::HeldByCurrentThread());
  // An executor thread never waits for a busy strand (the queued path may
  // need it), so its requests there go to whoever drains the strand.
  Trampoline* runner =
      in_line && !Executor::OnWorkerThread() ? &t : nullptr;
  bool claim = false;
  bool submit = false;
  {
    std::lock_guard<std::mutex> lock(inbox->mu);
    if (inbox->stopped) return false;
    inbox->ready.push_back(Inbox::Request{std::move(msg), t.id, runner});
    if (inbox->owner == nullptr) {
      inbox->owner = in_line ? &t : Inbox::QueuedDrain();
      claim = in_line;
      submit = !in_line;
    } else {
      // Busy: the drainer delivers the request in FIFO order, or hands the
      // strand to this thread when it reaches one reserved for it. A strand
      // this thread owns is its current drain or already on its claims.
      claim = runner != nullptr && inbox->owner != &t;
    }
  }
  if (submit) SubmitDrain(inbox);
  if (!claim) return true;
  AddClaim(t, inbox);
  if (!t.running) RunTrampoline(t);
  return true;
}

InProcTransport::Trampoline& InProcTransport::CurrentTrampoline() {
  thread_local Trampoline trampoline;
  return trampoline;
}

void InProcTransport::AddClaim(Trampoline& t,
                               const std::shared_ptr<Inbox>& inbox) {
  for (const Claim& claim : t.claims) {
    if (claim.inbox == inbox) return;
  }
  t.claims.push_back(Claim{this, inbox});
}

void InProcTransport::RunTrampoline(Trampoline& t) {
  t.running = true;
  Claim claim;
  while (TakeOwnedClaim(t, &claim)) {
    Inbox& inbox = *claim.inbox;
    DrainStep step;
    do {
      step = DrainStep::kIdle;  // stays so if the gate closed: node stopped
      inbox.gate.Run(
          [&] { step = claim.transport->DeliverNext(claim.inbox, &t); });
      if (step == DrainStep::kMore) {
        // Settled with the gate released, so a sender handed the strand
        // finds it free, and before the handler's replies go out, so it
        // does not wait for the completions they run.
        std::lock_guard<std::mutex> lock(inbox.mu);
        step = Settle(inbox, &t);
      }
      FlushReplies(t);
    } while (step == DrainStep::kMore);
    if (step == DrainStep::kToExecutor) {
      claim.transport->SubmitDrain(claim.inbox);
    }
    // Requests of this thread still queued there come back with the strand.
    if (step != DrainStep::kIdle) claim.transport->AddClaim(t, claim.inbox);
  }
  t.running = false;
}

bool InProcTransport::TakeOwnedClaim(Trampoline& t, Claim* claim) {
  for (;;) {
    const uint32_t seen = t.handovers.load(std::memory_order_acquire);
    for (auto it = t.claims.begin(); it != t.claims.end();) {
      bool owned = false, holds = false;
      {
        std::lock_guard<std::mutex> lock(it->inbox->mu);
        owned = it->inbox->owner == &t;
        holds = !it->inbox->stopped && it->inbox->HoldsRequestOf(&t);
      }
      if (owned) {
        *claim = std::move(*it);
        t.claims.erase(it);
        return true;
      }
      it = holds ? it + 1 : t.claims.erase(it);
    }
    if (t.claims.empty()) return false;
    // Every claimed strand is busy elsewhere and this thread owns none, so
    // no drainer can be waiting on it (DESIGN.md §10). A handover, or a
    // stop, bumps `handovers`. The owner usually hands over within one
    // handler, so the thread yields a while before it sleeps.
    for (int i = 0; i < kYieldsBeforeSleep &&
                    t.handovers.load(std::memory_order_acquire) == seen;
         ++i) {
      std::this_thread::yield();
    }
    t.handovers.wait(seen, std::memory_order_acquire);
  }
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

void InProcTransport::ScheduleDrain(const std::shared_ptr<Inbox>& inbox) {
  {
    std::lock_guard<std::mutex> lock(inbox->mu);
    if (inbox->owner != nullptr || inbox->stopped) return;
    inbox->owner = Inbox::QueuedDrain();
  }
  SubmitDrain(inbox);
}

void InProcTransport::SubmitDrain(const std::shared_ptr<Inbox>& inbox) {
  if (executor_->Submit(
          inbox->gate.Wrap([this, inbox] { DrainReady(inbox); }))) {
    return;
  }
  // The executor shut down: the queue is lost as if the node had stopped,
  // and no sender is left waiting on it.
  size_t lost = 0;
  {
    std::lock_guard<std::mutex> lock(inbox->mu);
    lost = inbox->DropReadyLocked();
    inbox->owner = nullptr;
  }
  if (lost > 0) {
    DroppedCounter()->Add(lost);
    dropped_.fetch_add(lost, std::memory_order_relaxed);
  }
}

InProcTransport::DrainStep InProcTransport::Settle(Inbox& inbox,
                                                  Trampoline* drainer) {
  if (inbox.ready.empty() || inbox.stopped) {
    inbox.owner = nullptr;
    return DrainStep::kIdle;
  }
  const Inbox::Request& front = inbox.ready.front();
  if (front.runner != nullptr && front.runner != drainer) {
    inbox.HandOverLocked(front.runner);
    return DrainStep::kHandedOver;
  }
  if (drainer != nullptr &&
      (!inbox.inline_safe || !inbox.inline_safe(front.msg))) {
    inbox.owner = Inbox::QueuedDrain();
    return DrainStep::kToExecutor;
  }
  return DrainStep::kMore;
}

InProcTransport::DrainStep InProcTransport::DeliverNext(
    const std::shared_ptr<Inbox>& inbox, Trampoline* drainer) {
  // Runs under inbox->gate (the strand). Every decision about the strand
  // is made under inbox->mu, so a concurrent Enqueue either finds it owned
  // (and its request is delivered from here or handed over) or claims it
  // afresh. A stopped node's queue was counted as dropped and is not
  // delivered.
  Message msg;
  bool migrated = false;
  {
    std::lock_guard<std::mutex> lock(inbox->mu);
    const DrainStep step = Settle(*inbox, drainer);
    if (step != DrainStep::kMore) return step;
    Inbox::Request& front = inbox->ready.front();
    migrated = drainer != nullptr && front.sender != drainer->id;
    msg = std::move(front.msg);
    inbox->ready.pop_front();
  }
  if (drainer == nullptr) {
    RequestsQueuedCounter()->Add();
  } else {
    RequestsInlineCounter()->Add();
    if (migrated) RequestsMigratedCounter()->Add();
  }
  Deliver(inbox, std::move(msg));
  return DrainStep::kMore;
}

void InProcTransport::DrainReady(const std::shared_ptr<Inbox>& inbox) {
  while (DeliverNext(inbox, nullptr) == DrainStep::kMore) {
  }
}

void InProcTransport::DrainDue(const std::shared_ptr<Inbox>& inbox) {
  // Runs under inbox->resp_gate (timer lane or AdvanceUntil): moves due
  // requests onto the strand and delivers due responses right here. Must
  // not block — everything below is lock-bounded.
  bool has_requests = false;
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
        // No sender thread waits for a delayed request.
        inbox->ready.push_back(Inbox::Request{std::move(m), 0, nullptr});
        has_requests = true;
      }
    }
    ArmLocked(inbox);
  }
  for (Message& m : responses) Deliver(inbox, std::move(m));
  if (has_requests) ScheduleDrain(inbox);
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
  // Every claimed strand leaves this thread: its requests there go to
  // whoever drains the strand, and a strand it owns goes to the executor.
  std::deque<T::Claim> claims;
  claims.swap(t.claims);
  for (T::Claim& claim : claims) {
    bool owned = false;
    {
      std::lock_guard<std::mutex> lock(claim.inbox->mu);
      for (T::Inbox::Request& r : claim.inbox->ready) {
        if (r.runner == &t) r.runner = nullptr;
      }
      owned = claim.inbox->owner == &t;
      if (owned) claim.inbox->owner = T::Inbox::QueuedDrain();
    }
    if (owned) claim.transport->SubmitDrain(claim.inbox);
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
