#ifndef CHARIOTS_NET_INPROC_TRANSPORT_H_
#define CHARIOTS_NET_INPROC_TRANSPORT_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <queue>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/clock.h"
#include "common/executor.h"
#include "common/random.h"
#include "common/rate_limiter.h"
#include "net/fault_schedule.h"
#include "net/transport.h"

namespace chariots::net {

/// Link characteristics between two groups of nodes.
struct LinkOptions {
  /// One-way propagation delay added to every message.
  int64_t latency_nanos = 0;
  /// NIC/link serialization rate; <= 0 means unlimited.
  double bandwidth_bytes_per_sec = 0;
  /// Probability a message is silently dropped (fault injection).
  double drop_probability = 0;
};

/// In-process transport that simulates a network: per-link latency,
/// token-bucket bandwidth, and probabilistic drop for fault-injection tests.
///
/// Execution model (DESIGN.md §10): there are no per-node inbox threads.
/// Each registered node has an inbox *strand* that delivers its due
/// requests one at a time, in arrival order (preserving the historical
/// one-message-at-a-time, FIFO-per-sender contract RpcEndpoint relies on).
/// Who runs a request:
///  * its sender, when the node declared it inline-safe (RegisterInlineSafe)
///    and the sender is inside no SerialGate, or is running a trampoline.
///    An idle strand is claimed at once. A busy one keeps the request in
///    its queue, marked for the sender, and the thread draining the strand
///    hands the strand over when the request reaches the front. The sender
///    drains through a thread-local trampoline: requests sent by the
///    handlers it runs are claimed onto the same trampoline and drained one
///    after another once the current handler returns, so handlers never
///    nest. It waits for a handed-over strand only at the top of the
///    trampoline, owning no other strand. A drained strand that reaches a
///    request not declared inline-safe hands the rest to the executor, as
///    does a BlockingWaitScope for every strand its thread has claimed.
///    Executor threads never wait for a strand: their requests to a busy
///    one run on whichever thread drains it;
///  * otherwise an executor worker (the queued path).
/// Delayed messages (link latency, fault delays) wait on the executor's
/// timer service and then take the queued path, so a virtual-time executor
/// makes simulated WANs run with zero real sleeps. RPC *responses* are
/// delivered on the sending/timer thread, never through the worker pool —
/// a worker blocked inside a handler waiting on a Call() is always
/// unblocked even when every worker is busy. On a trampoline a response is
/// delivered right after the handler that sent it returns and its strand
/// is settled (handed on, if another sender's request is next), so the
/// completion it runs never holds the replying node's strand.
/// `net.transport.requests_inline` and `net.transport.requests_queued`
/// count requests (one-way messages included) delivered each way;
/// `net.transport.requests_migrated` counts the in-line deliveries made by
/// a thread other than the request's sender.
///
/// Link resolution: the most specific matching rule wins. Rules are keyed by
/// (src_prefix, dst_prefix) where a node matches a prefix if its id starts
/// with it; "" matches everything. E.g. a rule ("dc0", "dc1") gives all
/// dc0→dc1 traffic WAN characteristics while ("", "") keeps intra-DC traffic
/// fast. Partitions are modeled with drop_probability = 1.
class InProcTransport : public Transport {
 public:
  /// `clock` null means the executor's clock; `executor` null means
  /// Executor::Default(). Passing a virtual-time executor (and leaving
  /// `clock` null) puts both the latency arithmetic and the timers on the
  /// same ManualClock.
  explicit InProcTransport(Clock* clock = nullptr,
                           Executor* executor = nullptr);
  ~InProcTransport() override;

  Status Register(const NodeId& node, MessageHandler handler) override;
  Status RegisterInlineSafe(const NodeId& node, MessageHandler handler,
                            InlineSafeFn inline_safe) override;
  Status Unregister(const NodeId& node) override;
  Status Send(Message msg) override;

  /// Installs (or replaces) a link rule. More specific (longer) prefixes
  /// take precedence; ties broken by src prefix length.
  void SetLink(const std::string& src_prefix, const std::string& dst_prefix,
               LinkOptions options);

  /// Convenience: drop everything between the two prefixes (both ways).
  void Partition(const std::string& a_prefix, const std::string& b_prefix);

  /// Removes the partition installed by Partition().
  void Heal(const std::string& a_prefix, const std::string& b_prefix);

  /// The scripted fault plan consulted for every message: drop / duplicate /
  /// delay / reorder the Nth message matching a predicate, plus
  /// crash-restart outage windows per node. Mutate it any time; pair with
  /// Seed() so a whole scenario replays from one seed.
  FaultSchedule& faults() { return faults_; }

  /// Re-seeds both the link-level drop PRNG and the fault schedule so a
  /// probabilistic run is reproducible from a single printed seed.
  void Seed(uint64_t seed);

  /// Counters for tests.
  uint64_t messages_delivered() const;
  uint64_t messages_dropped() const;

 private:
  struct Inbox;
  struct DelayedMessage {
    int64_t deliver_at_nanos;
    uint64_t seq;  // tie-break preserves FIFO for equal timestamps
    Message msg;
    bool operator>(const DelayedMessage& other) const {
      if (deliver_at_nanos != other.deliver_at_nanos) {
        return deliver_at_nanos > other.deliver_at_nanos;
      }
      return seq > other.seq;
    }
  };

  struct LinkRule {
    std::string src_prefix;
    std::string dst_prefix;
    LinkOptions options;
    std::unique_ptr<TokenBucket> bandwidth;  // null if unlimited
  };

  /// A strand the current thread owns, or holds requests of its own in.
  struct Claim {
    InProcTransport* transport;
    std::shared_ptr<Inbox> inbox;
  };
  /// A response sent from inside a gate of a running trampoline.
  struct DeferredReply {
    InProcTransport* transport;
    std::shared_ptr<Inbox> inbox;
    Message msg;
  };
  /// The calling thread's run-to-completion state.
  struct Trampoline {
    Trampoline();
    const uint64_t id;         ///< names the thread in queued requests
    bool running = false;      ///< draining claimed strands right now
    int blocking = 0;          ///< open BlockingWaitScopes while running
    std::deque<Claim> claims;  ///< at most one per strand
    std::deque<DeferredReply> replies;  ///< sent once the strand settles
    /// Grows (with a wake-up) when another thread hands this one a strand,
    /// or stops a strand holding its requests.
    std::atomic<uint32_t> handovers{0};
  };
  static Trampoline& CurrentTrampoline();
  friend class BlockingWaitScope;

  /// Who drains a strand next, as its current drainer settles it.
  enum class DrainStep {
    kMore,        ///< the drainer: the front request is its to deliver
    kIdle,        ///< nobody: queue empty (or node stopped)
    kHandedOver,  ///< the front request's sender
    kToExecutor,  ///< an executor task: a trampoline reached a queued-only
                  ///< request
  };

  LinkRule* ResolveLink(const NodeId& from, const NodeId& to);
  /// Enqueues one already-inspected message on its inbox (immediate →
  /// response delivery, or ready queue + a strand run in line or queued;
  /// future → timer). Returns false if the destination stopped meanwhile.
  bool Enqueue(const std::shared_ptr<Inbox>& inbox, Message msg,
               int64_t deliver_at_nanos, uint64_t seq);
  /// Settles who drains `inbox` next, its drainer being `drainer` (null:
  /// an executor task). Caller holds inbox.mu.
  static DrainStep Settle(Inbox& inbox, Trampoline* drainer);
  /// Under inbox->gate, for the strand's drainer: settles the strand and,
  /// if the front request is the drainer's to deliver, delivers it and
  /// returns kMore.
  DrainStep DeliverNext(const std::shared_ptr<Inbox>& inbox,
                        Trampoline* drainer);
  /// Queued strand body, under inbox->gate: delivers until DeliverNext
  /// stops.
  void DrainReady(const std::shared_ptr<Inbox>& inbox);
  /// Drains the current thread's claims until none is left, then returns.
  static void RunTrampoline(Trampoline& t);
  /// Takes a claim whose strand `t` owns, waiting while every claimed
  /// strand is busy elsewhere; drops claims that hold nothing of `t`.
  /// Returns false once no claim is left.
  static bool TakeOwnedClaim(Trampoline& t, Claim* claim);
  /// Delivers `t`'s deferred responses, and those their completions send.
  static void FlushReplies(Trampoline& t);
  /// Adds a claim on `inbox` unless `t` already holds one.
  void AddClaim(Trampoline& t, const std::shared_ptr<Inbox>& inbox);
  /// Timer callback (timer lane): moves due delayed messages out — requests
  /// to the ready queue/strand, responses delivered inline.
  void DrainDue(const std::shared_ptr<Inbox>& inbox);
  /// Schedules the strand if no one owns it. Caller must not hold
  /// inbox->mu.
  void ScheduleDrain(const std::shared_ptr<Inbox>& inbox);
  /// Submits a DrainReady task for a strand the executor owns. Caller must
  /// not hold inbox->mu.
  void SubmitDrain(const std::shared_ptr<Inbox>& inbox);
  /// Arms the delayed-queue timer for the current head. Caller holds
  /// inbox->mu.
  void ArmLocked(const std::shared_ptr<Inbox>& inbox);
  /// Runs the handler (outage check included) under the inbox gate.
  void Deliver(const std::shared_ptr<Inbox>& inbox, Message msg);

  Clock* clock_;
  Executor* const executor_;
  FaultSchedule faults_;
  std::mutex mu_;
  std::unordered_map<NodeId, std::shared_ptr<Inbox>> inboxes_;
  std::vector<std::unique_ptr<LinkRule>> links_;
  Random rng_;
  std::atomic<uint64_t> seq_{0};
  std::atomic<uint64_t> delivered_{0};
  std::atomic<uint64_t> dropped_{0};
};

}  // namespace chariots::net

#endif  // CHARIOTS_NET_INPROC_TRANSPORT_H_
