#include "net/fault_schedule.h"

#include <algorithm>
#include <utility>

#include "common/flight_recorder.h"

namespace chariots::net {

namespace {
// kFaultFire `code` values: which injection mechanism fired.
enum FaultKind : uint16_t {
  kFaultPartition = 1,
  kFaultSlowNode = 2,
  kFaultDrop = 3,
  kFaultDuplicate = 4,
  kFaultDelay = 5,
};
}  // namespace

void FaultSchedule::Seed(uint64_t seed) {
  std::lock_guard<std::mutex> lock(mu_);
  rng_ = Random(seed);
}

void FaultSchedule::DropNth(Predicate pred, uint64_t nth, uint64_t count) {
  std::lock_guard<std::mutex> lock(mu_);
  Rule rule;
  rule.pred = std::move(pred);
  rule.action = Action::kDrop;
  rule.nth = nth;
  rule.count = count;
  rules_.push_back(std::move(rule));
  armed_.store(true, std::memory_order_release);
}

void FaultSchedule::DuplicateNth(Predicate pred, uint64_t nth, uint64_t count,
                                 int64_t dup_delay_nanos) {
  std::lock_guard<std::mutex> lock(mu_);
  Rule rule;
  rule.pred = std::move(pred);
  rule.action = Action::kDuplicate;
  rule.nth = nth;
  rule.count = count;
  rule.delay_nanos = dup_delay_nanos;
  rules_.push_back(std::move(rule));
  armed_.store(true, std::memory_order_release);
}

void FaultSchedule::DelayNth(Predicate pred, uint64_t nth,
                             int64_t delay_nanos, uint64_t count) {
  std::lock_guard<std::mutex> lock(mu_);
  Rule rule;
  rule.pred = std::move(pred);
  rule.action = Action::kDelay;
  rule.nth = nth;
  rule.count = count;
  rule.delay_nanos = delay_nanos;
  rules_.push_back(std::move(rule));
  armed_.store(true, std::memory_order_release);
}

void FaultSchedule::DropWithProbability(Predicate pred, double p) {
  std::lock_guard<std::mutex> lock(mu_);
  Rule rule;
  rule.pred = std::move(pred);
  rule.action = Action::kDropProb;
  rule.probability = p;
  rules_.push_back(std::move(rule));
  armed_.store(true, std::memory_order_release);
}

void FaultSchedule::CrashWindow(const NodeId& node, int64_t from_nanos,
                                int64_t to_nanos) {
  std::lock_guard<std::mutex> lock(mu_);
  outages_.push_back(Outage{node, from_nanos, to_nanos});
  armed_.store(true, std::memory_order_release);
}

bool FaultSchedule::InOutage(const NodeId& node, int64_t at_nanos) const {
  if (!armed()) return false;
  std::lock_guard<std::mutex> lock(mu_);
  for (const Outage& o : outages_) {
    if (o.node == node && at_nanos >= o.from_nanos && at_nanos < o.to_nanos) {
      return true;
    }
  }
  return false;
}

void FaultSchedule::PartitionWindow(std::vector<std::string> side_a,
                                    std::vector<std::string> side_b,
                                    int64_t from_nanos, int64_t to_nanos) {
  std::lock_guard<std::mutex> lock(mu_);
  partitions_.push_back(Partition{std::move(side_a), std::move(side_b),
                                  from_nanos, to_nanos,
                                  /*symmetric=*/true});
  armed_.store(true, std::memory_order_release);
}

void FaultSchedule::AsymmetricPartitionWindow(std::vector<std::string> from_side,
                                              std::vector<std::string> to_side,
                                              int64_t from_nanos,
                                              int64_t to_nanos) {
  std::lock_guard<std::mutex> lock(mu_);
  partitions_.push_back(Partition{std::move(from_side), std::move(to_side),
                                  from_nanos, to_nanos,
                                  /*symmetric=*/false});
  armed_.store(true, std::memory_order_release);
}

void FaultSchedule::SlowNodeWindow(std::string prefix, int64_t delay_nanos,
                                   int64_t from_nanos, int64_t to_nanos) {
  std::lock_guard<std::mutex> lock(mu_);
  slow_nodes_.push_back(
      SlowNode{std::move(prefix), delay_nanos, from_nanos, to_nanos});
  armed_.store(true, std::memory_order_release);
}

bool FaultSchedule::OnSide(const NodeId& node,
                           const std::vector<std::string>& side) {
  for (const std::string& prefix : side) {
    if (node.rfind(prefix, 0) == 0) return true;
  }
  return false;
}

bool FaultSchedule::PartitionedLocked(const NodeId& from, const NodeId& to,
                                      int64_t at_nanos) const {
  for (const Partition& p : partitions_) {
    if (at_nanos < p.from_nanos || at_nanos >= p.to_nanos) continue;
    if (OnSide(from, p.side_a) && OnSide(to, p.side_b)) return true;
    if (p.symmetric && OnSide(from, p.side_b) && OnSide(to, p.side_a)) {
      return true;
    }
  }
  return false;
}

bool FaultSchedule::Partitioned(const NodeId& from, const NodeId& to,
                                int64_t at_nanos) const {
  if (!armed()) return false;
  std::lock_guard<std::mutex> lock(mu_);
  return PartitionedLocked(from, to, at_nanos);
}

FaultDecision FaultSchedule::Inspect(const Message& msg, int64_t now_nanos) {
  FaultDecision decision;
  if (!armed()) return decision;
  std::lock_guard<std::mutex> lock(mu_);
  if (PartitionedLocked(msg.from, msg.to, now_nanos)) {
    ++injected_;
    flightrec::Record(flightrec::EventType::kFaultFire, kFaultPartition,
                      msg.type);
    decision.drop = true;
    return decision;  // the cut wins; no point evaluating scripted rules
  }
  for (const SlowNode& s : slow_nodes_) {
    if (now_nanos < s.from_nanos || now_nanos >= s.to_nanos) continue;
    if (msg.to.rfind(s.prefix, 0) == 0 || msg.from.rfind(s.prefix, 0) == 0) {
      ++injected_;
      flightrec::Record(flightrec::EventType::kFaultFire, kFaultSlowNode,
                        msg.type, static_cast<uint64_t>(s.delay_nanos));
      decision.delay_nanos += s.delay_nanos;
      break;  // one gray node on the path is enough; don't stack windows
    }
  }
  for (Rule& rule : rules_) {
    if (!rule.pred(msg)) continue;
    ++rule.matches;
    bool fires;
    if (rule.action == Action::kDropProb) {
      fires = rng_.NextDouble() < rule.probability;
    } else {
      fires = rule.matches >= rule.nth && rule.matches < rule.nth + rule.count;
    }
    if (!fires) continue;
    ++injected_;
    switch (rule.action) {
      case Action::kDrop:
      case Action::kDropProb:
        flightrec::Record(flightrec::EventType::kFaultFire, kFaultDrop,
                          msg.type);
        decision.drop = true;
        break;
      case Action::kDuplicate:
        flightrec::Record(flightrec::EventType::kFaultFire, kFaultDuplicate,
                          msg.type, static_cast<uint64_t>(rule.delay_nanos));
        decision.duplicate = true;
        decision.duplicate_delay_nanos =
            std::max(decision.duplicate_delay_nanos, rule.delay_nanos);
        break;
      case Action::kDelay:
        flightrec::Record(flightrec::EventType::kFaultFire, kFaultDelay,
                          msg.type, static_cast<uint64_t>(rule.delay_nanos));
        decision.delay_nanos += rule.delay_nanos;
        break;
    }
  }
  return decision;
}

uint64_t FaultSchedule::faults_injected() const {
  std::lock_guard<std::mutex> lock(mu_);
  return injected_;
}

void FaultSchedule::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  rules_.clear();
  outages_.clear();
  partitions_.clear();
  slow_nodes_.clear();
  injected_ = 0;
  armed_.store(false, std::memory_order_release);
}

FaultSchedule::Predicate FaultSchedule::Any() {
  return [](const Message&) { return true; };
}

FaultSchedule::Predicate FaultSchedule::ToPrefix(std::string prefix) {
  return [prefix = std::move(prefix)](const Message& msg) {
    return msg.to.rfind(prefix, 0) == 0;
  };
}

FaultSchedule::Predicate FaultSchedule::FromPrefix(std::string prefix) {
  return [prefix = std::move(prefix)](const Message& msg) {
    return msg.from.rfind(prefix, 0) == 0;
  };
}

FaultSchedule::Predicate FaultSchedule::TypeIs(uint16_t type) {
  return [type](const Message& msg) { return msg.type == type; };
}

FaultSchedule::Predicate FaultSchedule::Both(Predicate a, Predicate b) {
  return [a = std::move(a), b = std::move(b)](const Message& msg) {
    return a(msg) && b(msg);
  };
}

}  // namespace chariots::net
