#include "net/inproc_transport.h"

#include <algorithm>
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

}  // namespace

/// Per-node delivery state. No thread: `ready` is drained under `gate`,
/// one message at a time (preserving per-node serial delivery for
/// requests), by whichever thread set `drain_scheduled` — a sender's
/// trampoline or an executor worker. `delayed` waits on the executor's
/// timer service, and responses are delivered inline under `resp_gate` by
/// whichever thread finds them due.
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
  NodeId node;
  MessageHandler handler;
  InlineSafeFn inline_safe;  // null: every request is queued
  std::mutex mu;
  std::priority_queue<DelayedMessage, std::vector<DelayedMessage>,
                      std::greater<DelayedMessage>>
      delayed;
  std::deque<Message> ready;
  bool drain_scheduled = false;  // a trampoline or a worker owns `ready`
  bool stopped = false;
  int64_t armed_nanos = -1;  // earliest pending timer deadline (-1 = none)
  SerialGate gate;       // request strand
  SerialGate resp_gate;  // inline response delivery
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
  for (auto& inbox : to_close) {
    {
      std::lock_guard<std::mutex> il(inbox->mu);
      inbox->stopped = true;
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
    inbox->stopped = true;
    undelivered = inbox->delayed.size() + inbox->ready.size();
  }
  inbox->gate.Close();
  inbox->resp_gate.Close();
  // Messages still queued for the dead binding are lost, not delivered:
  // account for them like any other network loss.
  if (undelivered > 0) {
    DroppedCounter()->Add(undelivered);
    std::lock_guard<std::mutex> lock(mu_);
    dropped_ += undelivered;
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
        ++dropped_;
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
    std::lock_guard<std::mutex> lock(mu_);
    ++dropped_;
    return Status::OK();
  }

  // Serialize onto the link outside the registry lock: this blocks the
  // sender, modeling NIC back-pressure.
  if (bandwidth != nullptr) bandwidth->Acquire(static_cast<double>(wire_size));

  int64_t deliver_at = clock_->NowNanos() + latency + decision.delay_nanos;
  uint64_t seq = 0, dup_seq = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    seq = ++seq_;
    if (decision.duplicate) dup_seq = ++seq_;
  }
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
                  deliver_at + decision.duplicate_delay_nanos, dup_seq);
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
  if (msg.is_response) {
    // Inline on the sending thread: a response never queues behind the
    // destination's (possibly blocked) request handlers.
    return inbox->resp_gate.Run(
        [&] { Deliver(inbox, std::move(msg)); });
  }
  // Run to completion here only if nothing could make this thread wait on
  // the handler: inside a gate (a strand, a response) the handler would
  // nest under it, and under a BlockingWaitScope the thread is about to
  // stop draining. A running trampoline has released every gate by the
  // time it drains what it claims.
  const Trampoline& t = CurrentTrampoline();
  const bool in_line = inbox->inline_safe && inbox->inline_safe(msg) &&
                       t.blocking == 0 &&
                       (t.running || !SerialGate::HeldByCurrentThread());
  {
    std::lock_guard<std::mutex> lock(inbox->mu);
    if (inbox->stopped) return false;
    inbox->ready.push_back(std::move(msg));
    // A busy strand picks the message up in FIFO order, whoever runs it.
    if (inbox->drain_scheduled) return true;
    inbox->drain_scheduled = true;
  }
  if (in_line) {
    RunInline(inbox);
  } else {
    SubmitDrain(inbox);
  }
  return true;
}

InProcTransport::Trampoline& InProcTransport::CurrentTrampoline() {
  thread_local Trampoline trampoline;
  return trampoline;
}

void InProcTransport::RunInline(const std::shared_ptr<Inbox>& inbox) {
  Trampoline& t = CurrentTrampoline();
  t.claims.push_back(Claim{this, inbox});
  if (t.running) return;  // drained once the current handler returns
  t.running = true;
  while (!t.claims.empty()) {
    Claim claim = std::move(t.claims.front());
    t.claims.pop_front();
    // A closed gate means the node stopped; its queue counted as dropped.
    bool hand_off = false;
    claim.inbox->gate.Run([&] {
      hand_off = claim.transport->DrainReady(claim.inbox, /*in_line=*/true);
    });
    if (hand_off) claim.transport->SubmitDrain(claim.inbox);
  }
  t.running = false;
}

void InProcTransport::ScheduleDrain(const std::shared_ptr<Inbox>& inbox) {
  {
    std::lock_guard<std::mutex> lock(inbox->mu);
    if (inbox->drain_scheduled || inbox->stopped) return;
    inbox->drain_scheduled = true;
  }
  SubmitDrain(inbox);
}

void InProcTransport::SubmitDrain(const std::shared_ptr<Inbox>& inbox) {
  if (!executor_->Submit(
          inbox->gate.Wrap([this, inbox] { DrainReady(inbox, false); }))) {
    std::lock_guard<std::mutex> lock(inbox->mu);
    inbox->drain_scheduled = false;
  }
}

bool InProcTransport::DrainReady(const std::shared_ptr<Inbox>& inbox,
                                 bool in_line) {
  // Runs under inbox->gate (the strand). Re-checks emptiness under the lock
  // before clearing the flag, so a concurrent Enqueue either sees the flag
  // set (and its message is picked up by this loop) or claims a new drain
  // after the flag clears. A stopped node's queue was counted as dropped
  // and is not delivered.
  for (;;) {
    Message msg;
    {
      std::lock_guard<std::mutex> lock(inbox->mu);
      if (inbox->ready.empty() || inbox->stopped) {
        inbox->drain_scheduled = false;
        return false;
      }
      // The drain stays claimed; the caller passes it to a worker.
      if (in_line && !inbox->inline_safe(inbox->ready.front())) return true;
      msg = std::move(inbox->ready.front());
      inbox->ready.pop_front();
    }
    (in_line ? RequestsInlineCounter() : RequestsQueuedCounter())->Add();
    Deliver(inbox, std::move(msg));
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
        inbox->ready.push_back(std::move(m));
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
    std::lock_guard<std::mutex> lock(mu_);
    ++dropped_;
    return;
  }
  // Counted at hand-off, so a handler that signals a waiter never lets it
  // observe its own message as undelivered.
  DeliveredCounter()->Add();
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++delivered_;
  }
  inbox->handler(std::move(msg));
}

BlockingWaitScope::BlockingWaitScope() {
  InProcTransport::Trampoline& t = InProcTransport::CurrentTrampoline();
  if (!t.running) return;  // nothing claimed; sends may still run in line
  active_ = true;
  ++t.blocking;
  std::deque<InProcTransport::Claim> claims;
  claims.swap(t.claims);
  for (InProcTransport::Claim& claim : claims) {
    claim.transport->SubmitDrain(claim.inbox);
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
  std::lock_guard<std::mutex> lock(mu_);
  return delivered_;
}

uint64_t InProcTransport::messages_dropped() const {
  std::lock_guard<std::mutex> lock(mu_);
  return dropped_;
}

}  // namespace chariots::net
