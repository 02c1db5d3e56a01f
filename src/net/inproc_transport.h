#ifndef CHARIOTS_NET_INPROC_TRANSPORT_H_
#define CHARIOTS_NET_INPROC_TRANSPORT_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <queue>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/clock.h"
#include "common/executor.h"
#include "common/metrics.h"
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
/// A node is held *shared* by the inline-safe requests (RegisterInlineSafe)
/// it admitted, and *exclusively* by the executor task that drains its
/// queue, one request at a time in arrival order. Who runs a request:
///  * its sender, when the node declared it inline-safe, the sender is
///    inside no SerialGate (or is running a trampoline), and the node is
///    neither held exclusively nor has requests queued. Such requests are
///    admitted at once, so inline handlers of one node run side by side on
///    their senders' threads. The sender runs through a thread-local
///    trampoline: requests sent by the handlers it runs are admitted onto
///    the same trampoline and run one after another once the current
///    handler returns, so handlers never nest;
///  * otherwise an executor worker (the queued path). An inline-safe
///    request that finds its node held exclusively, or with requests
///    queued, joins that queue in FIFO order (`requests_diverted`) instead
///    of waiting, so per-sender FIFO holds and no thread ever waits for a
///    node. The drain starts once the node's last shared hold is released;
///    those holders never wait, and while it runs no inline request is
///    admitted. A BlockingWaitScope hands every request its thread admitted
///    but has not run to the front of its node's queue.
/// Delayed messages (link latency, fault delays) wait on the executor's
/// timer service and then take the queued path, so a virtual-time executor
/// makes simulated WANs run with zero real sleeps. RPC *responses* are
/// delivered on the sending/timer thread, never through the worker pool —
/// a worker blocked inside a handler waiting on a Call() is always
/// unblocked even when every worker is busy. On a trampoline a response is
/// delivered right after the handler that sent it returns, so the
/// completion it runs never holds the replying node.
/// `net.transport.requests_inline` and `net.transport.requests_queued`
/// count requests (one-way messages included) delivered each way;
/// `net.transport.requests_diverted` counts the inline-safe requests the
/// queued path took because their node was held exclusively or had
/// requests queued.
///
/// Sharing (DESIGN.md §10): with no fault installed, a message writes no
/// memory that other senders write too, except its destination inbox. Send
/// reads the nodes and link rules from a route table that Register,
/// Unregister and SetLink replace whole, and each thread keeps the tables it
/// read, so a send takes no transport-wide lock and bumps no shared
/// reference count. Every registration or link change applies to the next
/// message sent after the call returns.
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
    /// Null if unlimited. Shared by every route table that carries the
    /// rule, so a sender still holding a replaced table pays into a live
    /// bucket.
    std::shared_ptr<TokenBucket> bandwidth;
  };
  /// What a send reads: the bound nodes and the link rules. Never changed
  /// once published; Register, Unregister and SetLink publish a copy.
  struct Routes {
    std::unordered_map<NodeId, std::shared_ptr<Inbox>> inboxes;
    std::vector<LinkRule> links;
  };

  /// A request admitted in line: its node is held shared for it until it
  /// has run on the thread whose trampoline holds the claim.
  struct Claim {
    InProcTransport* transport;
    std::shared_ptr<Inbox> inbox;
    Message msg;
  };
  /// A response sent from inside a handler of a running trampoline.
  struct DeferredReply {
    InProcTransport* transport;
    std::shared_ptr<Inbox> inbox;
    Message msg;
  };
  /// A FIFO that keeps its storage, so a trampoline that runs one request
  /// after another allocates nothing for them.
  template <typename T>
  struct Fifo {
    std::vector<T> items;
    size_t head = 0;

    bool empty() const { return head == items.size(); }
    void push(T item) { items.push_back(std::move(item)); }
    T pop() {
      T item = std::move(items[head++]);
      if (head == items.size()) {
        items.clear();
        head = 0;
      } else if (head >= 64 && 2 * head >= items.size()) {
        // A queue that never drains: drop the consumed half.
        items.erase(items.begin(), items.begin() + head);
        head = 0;
      }
      return item;
    }
  };
  /// The calling thread's run-to-completion state.
  struct Trampoline {
    bool running = false;  ///< running claimed requests right now
    int blocking = 0;      ///< open BlockingWaitScopes while running
    Fifo<Claim> claims;    ///< admitted, in the order they were sent
    Fifo<DeferredReply> replies;  ///< sent once the handler returns
  };
  static Trampoline& CurrentTrampoline();
  friend class BlockingWaitScope;

  /// The current route table. The calling thread holds a reference to it
  /// until it has read a few newer tables.
  const Routes& CurrentRoutes();
  /// Copies the current table, lets `edit` change the copy and publishes
  /// it.
  template <typename Edit>
  void Publish(Edit&& edit);
  static const LinkRule* ResolveLink(const Routes& routes, const NodeId& from,
                                     const NodeId& to);
  /// Hands one already-inspected message to its inbox now: response
  /// delivery, or an in-line admission or the node's queue. Returns false
  /// if the destination stopped meanwhile.
  bool Enqueue(std::shared_ptr<Inbox> inbox, Message msg);
  /// Enqueue at `deliver_at_nanos`: now if that has passed, else through
  /// the node's delayed queue and timer (`seq` orders equal times).
  bool EnqueueAt(std::shared_ptr<Inbox> inbox, Message msg,
                 int64_t deliver_at_nanos, uint64_t seq);
  /// Runs the claimed request on the calling thread and releases its
  /// shared hold, starting the queued drain if requests wait on it.
  static void RunClaim(Claim& claim);
  /// Runs the current thread's claims, and those their handlers add, until
  /// none is left, then returns.
  static void RunTrampoline(Trampoline& t);
  /// Delivers `t`'s deferred responses, and those their completions send.
  static void FlushReplies(Trampoline& t);
  /// Timer callback (timer lane): moves due delayed messages out — requests
  /// to the node's queue, responses delivered inline.
  void DrainDue(const std::shared_ptr<Inbox>& inbox);
  /// Submits a DrainReady task for a node the executor now holds
  /// exclusively. Caller must not hold inbox->mu.
  void SubmitDrain(const std::shared_ptr<Inbox>& inbox);
  /// Queued path body, under inbox->gate: delivers the queue front first
  /// until it is empty, then releases the exclusive hold.
  void DrainReady(const std::shared_ptr<Inbox>& inbox);
  /// Arms the delayed-queue timer for the current head. Caller holds
  /// inbox->mu.
  void ArmLocked(const std::shared_ptr<Inbox>& inbox);
  /// Stops the node and waits for its running inline handlers; closes its
  /// gates. Returns how many messages were still undelivered.
  static size_t Stop(Inbox& inbox);
  /// Runs the handler (outage check included).
  void Deliver(const std::shared_ptr<Inbox>& inbox, Message msg);

  Clock* clock_;
  Executor* const executor_;
  FaultSchedule faults_;
  /// Serializes publishers of the route table.
  std::mutex mu_;
  std::shared_ptr<const Routes> routes_;  // guarded by mu_
  /// routes_.get(), read by senders without mu_.
  std::atomic<const Routes*> current_routes_{nullptr};
  /// The link-level drop PRNG, drawn only for rules that may drop.
  std::mutex rng_mu_;
  Random rng_;
  /// Orders delayed messages; drawn only for delayed or duplicated ones.
  std::atomic<uint64_t> seq_{0};
  metrics::Counter delivered_;
  std::atomic<uint64_t> dropped_{0};
};

}  // namespace chariots::net

#endif  // CHARIOTS_NET_INPROC_TRANSPORT_H_
