// Model check of the Hermes stripe protocol (DESIGN.md §12): three real
// HermesStripes over in-memory LogMaintainers, wired by a message pool
// whose delivery order the test chooses. No transport, thread or clock.
//
// The explorer runs every delivery order of a small shape. Two orders that
// leave every member with the same sequence of inputs reach the same state,
// so it visits each such state once (a depth-first search that replays the
// schedule from a fresh world when it backtracks). At every state it
// checks:
//
//  1. no client ack before every live member holds the acked bytes;
//  2. a position valid anywhere holds the same bytes on every live member
//     that has it, and on every member where it is valid;
//  3. no member's floor passes a position still invalid on every member
//     that holds it (an open round);
//  4. each token's record lands at most once on each member, and every
//     token a shape must finish is acked;
//  5. a message from an older epoch changes nothing on its receiver.
//
// Shapes past the exhaustive bound run as seeded random schedules; the
// seed comes from CHARIOTS_FAULT_SEED (tools/run_crash_matrix.sh sweeps
// it).

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <unordered_set>
#include <vector>

#include "common/clock.h"
#include "common/codec.h"
#include "common/random.h"
#include "flstore/hermes.h"

namespace chariots::flstore {
namespace {

constexpr int kMembers = 3;
const char* const kNames[kMembers] = {"a", "b", "c"};

/// What the explorer runs. Member a starts as the coordinator of b and c.
struct Shape {
  /// Client writes submitted to a, one token each.
  int writes = 1;
  /// Promote b to coordinator of {c} at epoch 2, at any point.
  bool promote = false;
  /// Messages (INV, INV ack or VAL) the network may lose.
  int drops = 0;
  /// A write answered with an error may be retried once, with its token,
  /// at the current coordinator.
  bool retry = false;
  /// Every write must end acked (checked where no event is left).
  bool all_acked = true;
};

/// One message in the pool.
struct Message {
  enum Kind { kInv, kAck, kVal };
  Kind kind = kInv;
  int from = 0;
  int to = 0;
  std::string label;  ///< canonical: sender, its send count, receiver
  InvalidateRequest inv;
  ValidateNotice val;
  Status status;                      ///< kAck
  std::function<void(Status)> ack;    ///< kInv, kAck: the sender's completion
};

int IndexOf(const net::NodeId& node) {
  for (int i = 0; i < kMembers; ++i) {
    if (node == kNames[i]) return i;
  }
  ADD_FAILURE() << "unknown member " << node;
  return 0;
}

LogRecord WriteRecord(int token) {
  LogRecord record;
  record.body = "w" + std::to_string(token);
  return record;
}

class World;

/// A member's Net: every message goes into the world's pool.
class PoolNet : public HermesStripe::Net {
 public:
  PoolNet(World* world, int self) : world_(world), self_(self) {}
  void Invalidate(const std::vector<net::NodeId>& peers,
                  const InvalidateRequest& req,
                  std::function<void(size_t, Status)> ack) override;
  void Validate(const std::vector<net::NodeId>& peers,
                const ValidateNotice& notice) override;
  Result<std::vector<InvalidateRequest>> FetchInvalid(
      const net::NodeId& peer, uint64_t epoch) override;
  bool Suspect(const net::NodeId& peer) override;

 private:
  World* const world_;
  const int self_;
};

struct Member {
  Member(World* world, int self, ReplicaOptions options, Clock* clock)
      : maintainer(MaintainerOpts()),
        dedup(DedupWindow::Options{}),
        net(world, self),
        stripe(&maintainer, &dedup, &net, std::move(options), clock) {
    EXPECT_TRUE(maintainer.Open().ok());
    EXPECT_TRUE(dedup.Open().ok());
  }
  static MaintainerOptions MaintainerOpts() {
    MaintainerOptions o;
    o.journal = EpochJournal(1, 1000);
    o.store.mode = storage::SyncMode::kMemoryOnly;
    return o;
  }
  /// Stored positions with their bytes and validity, and the floor.
  std::string Fingerprint() const {
    std::string out;
    for (LId lid : maintainer.StoredLids()) {
      Result<LogRecord> record = maintainer.Read(lid);
      out += std::to_string(lid) + (maintainer.IsInvalid(lid) ? "i" : "v") +
             (record.ok() ? EncodeLogRecord(*record) : "?") + ";";
    }
    return out + "f" + std::to_string(stripe.replicated_floor());
  }

  LogMaintainer maintainer;
  DedupWindow dedup;
  PoolNet net;
  HermesStripe stripe;
  std::string history;  ///< every input, in order
  int sends = 0;
};

/// Three members, the pool, the client and the scripted control events.
/// Events are named by strings, so a schedule replays on a fresh world.
class World {
 public:
  explicit World(const Shape& shape) : shape_(shape) {
    for (int i = 0; i < kMembers; ++i) {
      ReplicaOptions options;
      options.role = i == 0 ? ReplicaRole::kCoordinator : ReplicaRole::kReplica;
      if (i == 0) options.peers = {kNames[1], kNames[2]};
      members_.push_back(
          std::make_unique<Member>(this, i, std::move(options), &clock_));
      live_.insert(i);
    }
  }

  /// The events enabled here, in a fixed order.
  std::vector<std::string> Enabled() const {
    std::vector<std::string> events;
    for (const Message& m : pool_) {
      events.push_back("d" + m.label);
      if (drops_ < shape_.drops) events.push_back("x" + m.label);
    }
    for (int t = 1; t <= shape_.writes; ++t) {
      if (!submits_.count(t)) events.push_back("w" + std::to_string(t));
    }
    if (shape_.promote && !promoted_) events.push_back("p");
    if (!suspects_.empty() && !evicted_ && !promoted_) events.push_back("e");
    if (shape_.retry) {
      for (const auto& [t, replies] : replies_) {
        // At most two retries: each needs a fresh failure to be answered
        // with an error, and the shapes allow few.
        if (replies.size() == submits_.at(t) && submits_.at(t) < 3 &&
            !replies.back().ok()) {
          events.push_back("r" + std::to_string(t));
        }
      }
    }
    return events;
  }

  /// The state key after `event`: every member's inputs, and the losses.
  std::string KeyAfter(const std::string& event) const {
    std::string key;
    for (int i = 0; i < kMembers; ++i) {
      key += members_[i]->history;
      for (const auto& [member, input] : Inputs(event)) {
        if (member == i) key += input + ",";
      }
      key += "|";
    }
    key += losses_;
    if (event[0] == 'x') key += event + ",";
    return key;
  }

  void Apply(const std::string& event) {
    for (const auto& [member, input] : Inputs(event)) {
      members_[member]->history += input + ",";
    }
    const std::string rest = event.substr(1);
    switch (event[0]) {
      case 'd': Deliver(Take(rest)); break;
      case 'x': Drop(Take(rest)); break;
      case 'w':
      case 'r': Submit(std::stoi(rest), coordinator_); break;
      case 'p': Promote(); break;
      case 'e': Evict(); break;
    }
  }

  bool Quiescent() const { return Enabled().empty(); }

  /// The first property this state breaks, or "".
  std::string Check() const {
    if (!violation_.empty()) return violation_;
    // 1 and 4: acked tokens are held, with their bytes, by every live member.
    for (const auto& [token, replies] : replies_) {
      for (const Result<std::string>& reply : replies) {
        if (!reply.ok()) continue;
        BinaryReader r(*reply);
        LId lid = 0;
        if (!r.GetU64(&lid).ok()) return "undecodable ack";
        for (int m : live_) {
          Result<LogRecord> held = members_[m]->maintainer.Read(lid);
          if (!held.ok() || held->body != WriteRecord(token).body) {
            return "w" + std::to_string(token) + " acked at " +
                   std::to_string(lid) + " before " + kNames[m] + " held it";
          }
        }
      }
    }
    std::map<LId, std::string> valid_bytes;
    std::set<LId> open;  // landed somewhere, valid nowhere
    std::set<LId> landed;
    for (int m = 0; m < kMembers; ++m) {
      const LogMaintainer& lm = members_[m]->maintainer;
      std::set<std::string> bodies;
      for (LId lid : lm.StoredLids()) {
        Result<LogRecord> record = lm.Read(lid);
        if (!record.ok()) continue;
        landed.insert(lid);
        if (!bodies.insert(record->body).second && !IsJunkRecord(*record)) {
          return std::string(kNames[m]) + " holds " + record->body + " twice";
        }
        if (lm.IsInvalid(lid)) continue;
        auto [it, fresh] = valid_bytes.emplace(lid, record->body);
        if (!fresh && it->second != record->body) {
          return "position " + std::to_string(lid) + " valid as " +
                 it->second + " and " + record->body;
        }
      }
    }
    // 2: every live member holding a valid position holds its bytes.
    for (const auto& [lid, body] : valid_bytes) {
      for (int m : live_) {
        Result<LogRecord> held = members_[m]->maintainer.Read(lid);
        if (held.ok() && held->body != body) {
          return std::string(kNames[m]) + " holds " + held->body + " at " +
                 std::to_string(lid) + ", valid elsewhere as " + body;
        }
      }
    }
    // 3: the floor never passes an open round.
    for (LId lid : landed) {
      if (valid_bytes.count(lid)) continue;
      for (int m = 0; m < kMembers; ++m) {
        if (members_[m]->stripe.replicated_floor() > lid) {
          return std::string(kNames[m]) + "'s floor " +
                 std::to_string(members_[m]->stripe.replicated_floor()) +
                 " passes open position " + std::to_string(lid);
        }
      }
    }
    if (shape_.all_acked && Quiescent()) {
      for (int t = 1; t <= shape_.writes; ++t) {
        auto it = replies_.find(t);
        if (it == replies_.end() ||
            std::none_of(it->second.begin(), it->second.end(),
                         [](const Result<std::string>& r) { return r.ok(); })) {
          std::string got;
          if (it != replies_.end()) {
            for (const auto& r : it->second) got += r.status().ToString() + "; ";
          }
          return "w" + std::to_string(t) + " never acked: " + got;
        }
      }
    }
    return "";
  }

  // For PoolNet.
  void Send(Message m) {
    m.label = kNames[m.from] + std::to_string(members_[m.from]->sends++) +
              kNames[m.to];
    pool_.push_back(std::move(m));
  }
  Member& member(int i) { return *members_[i]; }
  void NoteSuspect(int peer) { suspects_.push_back(peer); }

 private:
  /// The inputs `event` appends to each member's history.
  std::vector<std::pair<int, std::string>> Inputs(
      const std::string& event) const {
    const std::string rest = event.substr(1);
    switch (event[0]) {
      case 'd':
        for (const Message& m : pool_) {
          if (m.label == rest) return {{m.to, rest}};
        }
        return {};
      case 'w':
      case 'r': return {{coordinator_, event}};
      case 'p': {
        // The candidate, and every survivor it fetches from.
        std::vector<std::pair<int, std::string>> inputs = {{replicas_[0], "p"}};
        for (size_t i = 1; i < replicas_.size(); ++i) {
          inputs.emplace_back(replicas_[i], "f");
        }
        return inputs;
      }
      case 'e': return {{0, "e"}};
      default: return {};  // a loss is no member's input
    }
  }

  Message Take(const std::string& label) {
    auto it = std::find_if(pool_.begin(), pool_.end(),
                           [&](const Message& m) { return m.label == label; });
    Message m = std::move(*it);
    pool_.erase(it);
    return m;
  }

  void Deliver(Message m) {
    Member& to = *members_[m.to];
    const uint64_t epoch =
        m.kind == Message::kInv ? m.inv.epoch : m.val.epoch;
    const bool stale = m.kind != Message::kAck && epoch < to.stripe.epoch();
    const std::string before = stale ? to.Fingerprint() : "";
    switch (m.kind) {
      case Message::kInv: {
        Message ack;
        ack.kind = Message::kAck;
        ack.from = m.to;
        ack.to = m.from;
        ack.status = to.stripe.OnInvalidate(m.inv);
        ack.ack = std::move(m.ack);
        Send(std::move(ack));
        break;
      }
      case Message::kAck: m.ack(m.status); break;
      case Message::kVal: to.stripe.OnValidate(m.val); break;
    }
    // 5: an older epoch's message changes nothing on its receiver.
    if (stale && to.Fingerprint() != before && violation_.empty()) {
      violation_ = std::string("an epoch-") + std::to_string(epoch) +
                   " message changed " + kNames[m.to] + " at epoch " +
                   std::to_string(to.stripe.epoch());
    }
  }

  void Drop(Message m) {
    ++drops_;
    losses_ += "x" + m.label + ",";
    // A lost INV or ack reaches the sender as a transport failure; a lost
    // VAL is just gone.
    if (m.kind == Message::kVal) return;
    Message failed;
    failed.kind = Message::kAck;
    failed.from = m.kind == Message::kInv ? m.to : m.from;
    failed.to = m.kind == Message::kInv ? m.from : m.to;
    failed.label = m.label + "x";
    failed.status = Status::TimedOut("lost");
    failed.ack = std::move(m.ack);
    pool_.push_back(std::move(failed));
  }

  void Submit(int token, int at) {
    ++submits_[token];
    const LogRecord record = WriteRecord(token);
    LogMaintainer& maintainer = members_[at]->maintainer;
    members_[at]->stripe.Write(
        {"client", static_cast<uint64_t>(token)},
        [&](const Landing& landing) -> Result<std::string> {
          CHARIOTS_ASSIGN_OR_RETURN(LId lid,
                                    maintainer.Append(record, landing));
          BinaryWriter w;
          w.PutU64(lid);
          return std::move(w).data();
        },
        [this, token](Result<std::string> result) {
          replies_[token].push_back(std::move(result));
        });
  }

  // The controller's two moves, with its epochs: each bumps the stripe's
  // fence epoch.

  /// Fails a over to the first replica; the others survive as its peers.
  void Promote() {
    promoted_ = true;
    coordinator_ = replicas_[0];
    live_ = {replicas_.begin(), replicas_.end()};
    std::vector<net::NodeId> peers;
    for (size_t i = 1; i < replicas_.size(); ++i) {
      peers.push_back(kNames[replicas_[i]]);
    }
    members_[coordinator_]->stripe.Promote(++fence_epoch_, std::move(peers),
                                           [](Result<std::vector<LId>>) {});
  }

  /// Evicts the first reported suspect from a's replica set.
  void Evict() {
    evicted_ = true;
    live_.erase(suspects_.front());
    replicas_.erase(
        std::find(replicas_.begin(), replicas_.end(), suspects_.front()));
    std::vector<net::NodeId> peers;
    for (int m : replicas_) peers.push_back(kNames[m]);
    Member& a = *members_[0];
    if (a.stripe.Reconfigure(++fence_epoch_, std::move(peers)).ok()) {
      a.stripe.ReplayParked([](Status) {});
    }
  }

  const Shape shape_;
  ManualClock clock_;
  std::vector<std::unique_ptr<Member>> members_;
  std::vector<Message> pool_;
  std::set<int> live_;
  /// The controller's view: a's replicas, and the stripe's fence epoch.
  std::vector<int> replicas_ = {1, 2};
  uint64_t fence_epoch_ = 1;
  std::map<int, size_t> submits_;
  std::map<int, std::vector<Result<std::string>>> replies_;
  std::vector<int> suspects_;
  std::string losses_;
  std::string violation_;
  int drops_ = 0;
  int coordinator_ = 0;
  bool promoted_ = false;
  bool evicted_ = false;
};

void PoolNet::Invalidate(const std::vector<net::NodeId>& peers,
                         const InvalidateRequest& req,
                         std::function<void(size_t, Status)> ack) {
  for (size_t i = 0; i < peers.size(); ++i) {
    Message m;
    m.kind = Message::kInv;
    m.from = self_;
    m.to = IndexOf(peers[i]);
    m.inv = req;
    m.ack = [ack, i](Status status) { ack(i, std::move(status)); };
    world_->Send(std::move(m));
  }
}

void PoolNet::Validate(const std::vector<net::NodeId>& peers,
                       const ValidateNotice& notice) {
  for (const net::NodeId& peer : peers) {
    Message m;
    m.kind = Message::kVal;
    m.from = self_;
    m.to = IndexOf(peer);
    m.val = notice;
    world_->Send(std::move(m));
  }
}

Result<std::vector<InvalidateRequest>> PoolNet::FetchInvalid(
    const net::NodeId& peer, uint64_t epoch) {
  return world_->member(IndexOf(peer)).stripe.OnFetchInvalid(epoch);
}

bool PoolNet::Suspect(const net::NodeId& peer) {
  world_->NoteSuspect(IndexOf(peer));
  return true;
}

/// What one exploration found.
struct Outcome {
  size_t states = 0;
  size_t schedules = 0;  ///< complete schedules (random walks) run
  std::string violation;
  std::vector<std::string> schedule;  ///< the one that broke a property
};

std::string Join(const std::vector<std::string>& events) {
  std::string out;
  for (const std::string& e : events) out += e + " ";
  return out;
}

/// Depth-first search over every delivery order, one visit per state.
class Explorer {
 public:
  explicit Explorer(const Shape& shape) : shape_(shape) {}

  Outcome Run() {
    world_ = std::make_unique<World>(shape_);
    visited_.insert(world_->KeyAfter(" "));
    outcome_.states = 1;
    Visit();
    return outcome_;
  }

 private:
  void Visit() {
    std::vector<std::pair<std::string, std::string>> children;
    for (const std::string& event : world_->Enabled()) {
      children.emplace_back(event, world_->KeyAfter(event));
    }
    bool fresh = true;  // world_ is at path_
    for (const auto& [event, key] : children) {
      if (!outcome_.violation.empty()) return;
      if (!visited_.insert(key).second) continue;
      if (!fresh) Replay();
      ++outcome_.states;
      path_.push_back(event);
      world_->Apply(event);
      fresh = false;
      std::string violation = world_->Check();
      if (!violation.empty()) {
        outcome_.violation = violation;
        outcome_.schedule = path_;
        return;
      }
      Visit();
      path_.pop_back();
    }
  }

  void Replay() {
    world_ = std::make_unique<World>(shape_);
    for (const std::string& event : path_) world_->Apply(event);
  }

  const Shape shape_;
  std::unique_ptr<World> world_;
  std::vector<std::string> path_;
  std::unordered_set<std::string> visited_;
  Outcome outcome_;
};

/// `walks` random complete schedules of `shape`.
Outcome RandomWalks(const Shape& shape, uint64_t seed, int walks) {
  Random rng(seed);
  Outcome outcome;
  for (int walk = 0; walk < walks && outcome.violation.empty(); ++walk) {
    World world(shape);
    std::vector<std::string> path;
    for (std::vector<std::string> enabled = world.Enabled(); !enabled.empty();
         enabled = world.Enabled()) {
      path.push_back(enabled[rng.Uniform(enabled.size())]);
      world.Apply(path.back());
      ++outcome.states;
      std::string violation = world.Check();
      if (!violation.empty()) {
        outcome.violation = violation;
        outcome.schedule = path;
        break;
      }
    }
    ++outcome.schedules;
  }
  return outcome;
}

void ExpectHolds(const Outcome& outcome, const char* shape) {
  std::cerr << "[ " << shape << ": " << outcome.states << " states ]\n";
  EXPECT_EQ(outcome.violation, "")
      << "schedule: " << Join(outcome.schedule);
}

TEST(HermesExplorer, TwoWritesOnThreeMembers) {
  ExpectHolds(Explorer(Shape{.writes = 2}).Run(), "two writes");
}

TEST(HermesExplorer, OneWriteRacingAPromotion) {
  // The write may fail when a deposes b; its retries go to b. A write the
  // INV reached only c must still land once: b learns its token from c.
  ExpectHolds(Explorer(Shape{.writes = 1, .promote = true, .retry = true})
                  .Run(),
              "write racing a promotion");
}

TEST(HermesExplorer, OneWriteWithOneLostMessage) {
  ExpectHolds(Explorer(Shape{.writes = 1, .drops = 1, .retry = true}).Run(),
              "write with one loss");
}

// Shapes past the exhaustive bound: random complete schedules in a seeded
// order. A failure prints the seed that replays it.
TEST(HermesExplorer, SeededSchedulesPastTheExhaustiveBound) {
  uint64_t seed = 1;
  if (const char* env = std::getenv("CHARIOTS_FAULT_SEED")) {
    seed += std::strtoull(env, nullptr, 10);
  }
  std::cerr << "[ scenario seed " << seed << " ]\n";
  ExpectHolds(RandomWalks(Shape{.writes = 3, .drops = 1, .retry = true},
                          seed, 300),
              "three writes, one loss");
  ExpectHolds(RandomWalks(Shape{.writes = 2,
                                .promote = true,
                                .drops = 1,
                                .all_acked = false},
                          seed, 300),
              "two writes, a promotion, one loss");
}

}  // namespace
}  // namespace chariots::flstore
