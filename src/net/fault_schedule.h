#ifndef CHARIOTS_NET_FAULT_SCHEDULE_H_
#define CHARIOTS_NET_FAULT_SCHEDULE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <vector>

#include "common/random.h"
#include "net/message.h"

namespace chariots::net {

/// What the schedule decided for one message offered to it.
struct FaultDecision {
  bool drop = false;
  bool duplicate = false;
  /// Extra latency added to the original message. Because delivery is
  /// ordered by deliver-time, delaying one message past its successors IS a
  /// reorder.
  int64_t delay_nanos = 0;
  /// Extra latency of the duplicated copy relative to the original.
  int64_t duplicate_delay_nanos = 0;
};

/// A scriptable fault plan evaluated by InProcTransport on every Send plus
/// at every delivery. Faults are deterministic: rules fire on the Nth
/// message matching a predicate (messages are counted per rule, 1-based, in
/// Send order), and probabilistic rules draw from a PRNG seeded once — so a
/// failing run is reproducible from its seed and script alone.
///
/// Crash-and-restart of a node is modeled as an outage window in virtual
/// time: messages that would be *delivered* to the node inside the window
/// vanish (counted as drops), exactly like a process that is down; the
/// binding itself survives, matching a restart that re-binds the same
/// handler.
///
/// Thread-safe; all methods may be called while traffic is flowing, and a
/// rule or window applies to the next message offered after its call
/// returns. While nothing is installed (before the first rule or window,
/// and after Clear()), Inspect, InOutage and Partitioned answer from one
/// atomic flag without taking the plan's mutex, so senders share no lock.
class FaultSchedule {
 public:
  using Predicate = std::function<bool(const Message&)>;

  explicit FaultSchedule(uint64_t seed = 1) : rng_(seed) {}

  /// Re-seeds the PRNG behind probabilistic rules (call before a scenario so
  /// the whole schedule replays from one printed seed).
  void Seed(uint64_t seed);

  // ------------------------------------------------------- scripted rules
  // Each rule fires on matching messages number [nth, nth + count) of ITS
  // OWN match counter. nth is 1-based; count defaults to one message.

  /// Silently drops the Nth matching message.
  void DropNth(Predicate pred, uint64_t nth, uint64_t count = 1);

  /// Delivers the Nth matching message twice (the copy `dup_delay_nanos`
  /// later — a retransmission-style duplicate).
  void DuplicateNth(Predicate pred, uint64_t nth, uint64_t count = 1,
                    int64_t dup_delay_nanos = 0);

  /// Adds `delay_nanos` of latency to the Nth matching message; with a delay
  /// longer than the link latency this reorders it behind later traffic.
  void DelayNth(Predicate pred, uint64_t nth, int64_t delay_nanos,
                uint64_t count = 1);

  /// Drops each matching message with probability `p` (seeded PRNG).
  void DropWithProbability(Predicate pred, double p);

  // ---------------------------------------------------------- crash model

  /// Messages delivered to `node` with delivery time in [from, to) vanish.
  void CrashWindow(const NodeId& node, int64_t from_nanos, int64_t to_nanos);

  /// True if `node` is inside an outage window at `at_nanos`.
  bool InOutage(const NodeId& node, int64_t at_nanos) const;

  // ------------------------------------------------------ partition model

  /// Symmetric network partition in virtual time: messages sent in
  /// [from, to) between any node whose id starts with a prefix in `side_a`
  /// and any node whose id starts with a prefix in `side_b` are dropped, in
  /// BOTH directions. Prefix matching covers derived endpoints (a replica's
  /// "dc0/maintainer/1#repl" partitions with "dc0/maintainer/1"). Nodes on
  /// neither side are unaffected — so a minority side keeps talking to
  /// itself but not across the cut.
  void PartitionWindow(std::vector<std::string> side_a,
                       std::vector<std::string> side_b, int64_t from_nanos,
                       int64_t to_nanos);

  /// Asymmetric (one-way) partition: only messages FROM `from_side` TO
  /// `to_side` vanish in the window; the reverse direction still flows.
  /// This is the gray link the symmetric model can't express — A hears B
  /// but B never hears A.
  void AsymmetricPartitionWindow(std::vector<std::string> from_side,
                                 std::vector<std::string> to_side,
                                 int64_t from_nanos, int64_t to_nanos);

  /// Gray failure: every message to or from a node matching `prefix` sent
  /// in [from, to) is delayed by `delay_nanos` — the node is up and
  /// answering, just pathologically slow. Probes must not mistake this for
  /// death (and the controller must not evict a slow-but-reachable node).
  void SlowNodeWindow(std::string prefix, int64_t delay_nanos,
                      int64_t from_nanos, int64_t to_nanos);

  /// True if a partition window (symmetric or asymmetric) would drop a
  /// message from `from` to `to` sent at `at_nanos`.
  bool Partitioned(const NodeId& from, const NodeId& to,
                   int64_t at_nanos) const;

  // -------------------------------------------------------------- queries

  /// True while any rule or window is installed. A caller may skip reading
  /// its clock for Inspect/InOutage when this is false.
  bool armed() const { return armed_.load(std::memory_order_acquire); }

  /// Evaluates every rule against `msg` (advancing match counters) and
  /// returns the combined decision. Called by the transport on Send with
  /// the virtual send time, which gates the partition / slow-node windows
  /// (callers without a clock can leave `now_nanos` at 0; the scripted
  /// per-message rules don't need it).
  FaultDecision Inspect(const Message& msg, int64_t now_nanos = 0);

  /// Total messages a rule dropped, duplicated, or delayed so far.
  uint64_t faults_injected() const;

  /// Removes all rules and outage windows (match counters included).
  void Clear();

  // ------------------------------------------------- predicate combinators

  static Predicate Any();
  static Predicate ToPrefix(std::string prefix);
  static Predicate FromPrefix(std::string prefix);
  static Predicate TypeIs(uint16_t type);
  /// True when both predicates hold.
  static Predicate Both(Predicate a, Predicate b);

 private:
  enum class Action { kDrop, kDuplicate, kDelay, kDropProb };

  struct Rule {
    Predicate pred;
    Action action;
    uint64_t nth = 1;       // first firing match (1-based)
    uint64_t count = 1;     // how many consecutive matches fire
    int64_t delay_nanos = 0;
    double probability = 0;
    uint64_t matches = 0;   // messages this rule's predicate matched so far
  };

  struct Outage {
    NodeId node;
    int64_t from_nanos;
    int64_t to_nanos;
  };

  struct Partition {
    std::vector<std::string> side_a;
    std::vector<std::string> side_b;
    int64_t from_nanos;
    int64_t to_nanos;
    bool symmetric;  // false: drop only side_a -> side_b
  };

  struct SlowNode {
    std::string prefix;
    int64_t delay_nanos;
    int64_t from_nanos;
    int64_t to_nanos;
  };

  static bool OnSide(const NodeId& node, const std::vector<std::string>& side);
  bool PartitionedLocked(const NodeId& from, const NodeId& to,
                         int64_t at_nanos) const;

  /// Set once anything is installed, cleared by Clear(); written under mu_.
  std::atomic<bool> armed_{false};
  mutable std::mutex mu_;
  std::vector<Rule> rules_;
  std::vector<Outage> outages_;
  std::vector<Partition> partitions_;
  std::vector<SlowNode> slow_nodes_;
  Random rng_;
  uint64_t injected_ = 0;
};

}  // namespace chariots::net

#endif  // CHARIOTS_NET_FAULT_SCHEDULE_H_
