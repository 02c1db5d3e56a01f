// Durable, replicated control plane tests (DESIGN.md §13): meta-WAL
// recovery (byte-identical state, resumed two-phase plans), lease-based
// leader election on virtual time, controller-epoch fencing of maintainer
// commands, partition invariants — a minority-partitioned leader cannot
// promote, a healed partition converges to one leader and one layout — the
// gray-failure probe (slow != dead), the kCtrlStatus dump, and client
// controller failover.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/codec.h"
#include "common/executor.h"
#include "common/metrics.h"
#include "flstore/client.h"
#include "flstore/controller.h"
#include "flstore/hermes.h"
#include "flstore/service.h"
#include "net/fault_schedule.h"
#include "net/inproc_transport.h"

namespace chariots::flstore {
namespace {

using namespace std::chrono_literals;
namespace fs = std::filesystem;

/// Seed for a scenario: the test's base seed offset by CHARIOTS_FAULT_SEED
/// (tools/run_crash_matrix.sh sweeps it). Printed so a failure replays by
/// exporting the same value.
uint64_t ScenarioSeed(uint64_t base) {
  uint64_t offset = 0;
  if (const char* env = std::getenv("CHARIOTS_FAULT_SEED")) {
    offset = std::strtoull(env, nullptr, 10);
  }
  uint64_t seed = base + offset;
  std::cerr << "[ scenario seed " << seed << " ]\n";
  return seed;
}

constexpr char kCtrlA[] = "dc0/ctrl/a";
constexpr char kCtrlB[] = "dc0/ctrl/b";
constexpr char kCtrlC[] = "dc0/ctrl/c";
constexpr char kPrimary[] = "dc0/maintainer/0";
constexpr char kBackup[] = "dc0/maintainer/0-backup";

uint64_t CounterValue(const char* name) {
  return metrics::Registry::Default().GetCounter(name)->Value();
}

/// Advances virtual time in small steps, draining the worker lane between
/// steps: timers fire inline, but the message deliveries they trigger run
/// on worker threads, and a follower's lease check must not outrun a beat
/// that is still in a queue. Deterministic, zero real sleeps.
void Step(Executor& exec, int64_t total_nanos,
          int64_t step_nanos = 20'000'000) {
  for (int64_t left = total_nanos; left > 0; left -= step_nanos) {
    exec.AdvanceBy(std::min(step_nanos, left));
    exec.WaitIdle();
  }
}

/// Wiring knobs for a three-replica control plane over one replicated
/// stripe.
struct HaConfig {
  Clock* clock = nullptr;
  Executor* executor = nullptr;
  int64_t lease_nanos = 150'000'000;         // stripe coordinator lease
  int64_t leader_lease_nanos = 300'000'000;  // controller leader lease
  /// 0 = no monitor (tests drive TickControl()/Campaign() by hand).
  int64_t monitor_interval_nanos = 0;
  bool heartbeats = false;
  int64_t heartbeat_interval_nanos = 5'000'000;
  /// Non-empty: each controller replica journals to <wal_dir>/ctrl<i>.wal.
  std::string wal_dir;
};

/// Three controller replicas plus one replicated stripe (coordinator +
/// one replica), wired over the in-process transport.
class HaCluster {
 public:
  explicit HaCluster(HaConfig config = HaConfig())
      : config_(config), transport_(config.clock, config.executor) {
    const std::vector<net::NodeId> all = {kCtrlA, kCtrlB, kCtrlC};
    ClusterInfo info;
    info.journal = EpochJournal(1, 4);
    info.maintainers = {kPrimary};
    info.replicas = {{kBackup}};
    info.fence_epochs = {1};
    for (uint32_t i = 0; i < 3; ++i) {
      ControllerServerOptions cso;
      cso.controller.clock = config.clock;
      cso.controller.lease_nanos = config.lease_nanos;
      if (!config.wal_dir.empty()) {
        cso.controller.meta_wal_path =
            config.wal_dir + "/ctrl" + std::to_string(i) + ".wal";
      }
      cso.monitor_interval_nanos = config.monitor_interval_nanos;
      cso.executor = config.executor;
      cso.replica_index = i;
      cso.leader_lease_nanos = config.leader_lease_nanos;
      cso.probe_before_failover = true;
      for (uint32_t j = 0; j < 3; ++j) {
        if (j != i) cso.peers.push_back(all[j]);
      }
      controllers_[i] = std::make_unique<ControllerServer>(
          &transport_, all[i], info, cso);
      EXPECT_TRUE(controllers_[i]->Start().ok());
    }
    backup_ = std::make_unique<MaintainerServer>(
        &transport_, MaintainerOpts(), ServerOpts(kBackup,
                                                  ReplicaRole::kReplica));
    EXPECT_TRUE(backup_->Start().ok());
    primary_ = std::make_unique<MaintainerServer>(
        &transport_, MaintainerOpts(),
        ServerOpts(kPrimary, ReplicaRole::kCoordinator));
    EXPECT_TRUE(primary_->Start().ok());
  }

  int LeaderCount() const {
    int n = 0;
    for (const auto& c : controllers_) {
      if (c != nullptr && c->IsLeader()) ++n;
    }
    return n;
  }

  ControllerServer* Leader() {
    for (auto& c : controllers_) {
      if (c != nullptr && c->IsLeader()) return c.get();
    }
    return nullptr;
  }

  net::NodeId NodeOf(const ControllerServer* server) const {
    const net::NodeId ids[3] = {kCtrlA, kCtrlB, kCtrlC};
    for (int i = 0; i < 3; ++i) {
      if (controllers_[i].get() == server) return ids[i];
    }
    return "";
  }

  /// Every live replica must name kPrimary as stripe 0's coordinator at
  /// fence epoch 1 — the "never two coordinators" safety assertion.
  void ExpectLayoutUntouched() {
    for (const auto& c : controllers_) {
      if (c == nullptr) continue;
      ClusterInfo info = c->controller().GetInfo();
      ASSERT_EQ(info.maintainers.size(), 1u);
      EXPECT_EQ(info.maintainers[0], kPrimary);
      EXPECT_EQ(info.fence_epochs[0], 1u);
    }
    EXPECT_EQ(backup_->replica().epoch(), 1u)
        << "replica must never have been promoted";
  }

  std::unique_ptr<FLStoreClient> NewClient(const std::string& name) {
    ClientOptions options;
    options.controllers = {kCtrlA, kCtrlB, kCtrlC};
    auto client = std::make_unique<FLStoreClient>(
        &transport_, "dc0/client/" + name, kCtrlA, options);
    EXPECT_TRUE(client->Start().ok());
    return client;
  }

  HaConfig config_;
  net::InProcTransport transport_;
  std::unique_ptr<ControllerServer> controllers_[3];
  std::unique_ptr<MaintainerServer> primary_;
  std::unique_ptr<MaintainerServer> backup_;

 private:
  MaintainerOptions MaintainerOpts() const {
    MaintainerOptions mo;
    mo.index = 0;
    mo.journal = EpochJournal(1, 4);
    mo.store.mode = storage::SyncMode::kMemoryOnly;
    return mo;
  }

  MaintainerServer::Options ServerOpts(net::NodeId node,
                                       ReplicaRole role) const {
    MaintainerServer::Options so;
    so.node = std::move(node);
    so.executor = config_.executor;
    so.peers = {kPrimary};
    so.replica.role = role;
    so.replica.epoch = 1;
    if (role == ReplicaRole::kCoordinator) so.replica.peers = {kBackup};
    if (config_.heartbeats) {
      so.controllers = {kCtrlA, kCtrlB, kCtrlC};
      so.heartbeat_interval_nanos = config_.heartbeat_interval_nanos;
    }
    return so;
  }
};

// ---------------------------------------------------------- durability

TEST(ControllerDurabilityTest, MetaWalRecoveryIsByteIdentical) {
  ManualClock clock;
  fs::path dir = fs::temp_directory_path() / "chariots_ctrl_wal_ident";
  fs::remove_all(dir);
  fs::create_directories(dir);
  ControllerOptions opts;
  opts.clock = &clock;
  opts.meta_wal_path = (dir / "meta.wal").string();

  ClusterInfo initial;
  initial.journal = EpochJournal(2, 4);
  initial.maintainers = {"m0", "m1"};
  initial.indexers = {"idx0"};
  initial.replicas = {{"m0-b"}, {}};
  initial.fence_epochs = {1, 1};

  std::string before;
  {
    Controller ctl(initial, opts);
    ASSERT_TRUE(ctl.Open().ok());
    ASSERT_TRUE(ctl.AddReplica(1, "m1-b").ok());
    ASSERT_TRUE(ctl.AdoptCtrlEpoch(4).ok());
    auto vote = ctl.GrantVote(7);
    ASSERT_TRUE(vote.ok()) << vote.status();
    EXPECT_TRUE(*vote);
    // Leave a failover plan in flight: planned (persisted) but neither
    // committed nor aborted — the crash point recovery must resume from.
    ctl.Heartbeat(0, "m0");
    clock.Advance(200'000'000);
    ASSERT_EQ(ctl.ExpiredLeases().size(), 1u);
    before = EncodeClusterInfo(ctl.GetInfo());
    ASSERT_TRUE(ctl.Close().ok());
  }

  // Restart with a deliberately wrong constructor layout: recovery must
  // replace it with the exact pre-crash state, byte for byte.
  ClusterInfo bogus;
  bogus.maintainers = {"bogus"};
  Controller again(bogus, opts);
  ASSERT_TRUE(again.Open().ok());
  EXPECT_EQ(EncodeClusterInfo(again.GetInfo()), before);
  EXPECT_EQ(again.ctrl_epoch(), 4u);
  EXPECT_EQ(again.max_granted_epoch(), 7u);
  // A restart must not double-grant an epoch it already granted.
  auto regrant = again.GrantVote(7);
  ASSERT_TRUE(regrant.ok());
  EXPECT_FALSE(*regrant);
  auto inflight = again.InflightFailovers();
  ASSERT_EQ(inflight.size(), 1u);
  EXPECT_EQ(inflight[0].index, 0u);
  EXPECT_EQ(inflight[0].candidate, "m0-b");
  EXPECT_EQ(inflight[0].failed_primary, "m0");
  fs::remove_all(dir);
}

TEST(ControllerDurabilityTest, RestartCompletesInterruptedFailover) {
  ManualClock clock;
  fs::path dir = fs::temp_directory_path() / "chariots_ctrl_wal_resume";
  fs::remove_all(dir);
  fs::create_directories(dir);

  net::InProcTransport transport(&clock);
  MaintainerOptions mo;
  mo.index = 0;
  mo.journal = EpochJournal(1, 4);
  mo.store.mode = storage::SyncMode::kMemoryOnly;
  MaintainerServer::Options bo;
  bo.node = kBackup;
  bo.peers = {kPrimary};
  bo.replica.role = ReplicaRole::kReplica;
  bo.replica.epoch = 1;
  MaintainerServer backup(&transport, mo, bo);
  ASSERT_TRUE(backup.Start().ok());

  ClusterInfo info;
  info.journal = EpochJournal(1, 4);
  info.maintainers = {kPrimary};
  info.replicas = {{kBackup}};
  info.fence_epochs = {1};
  ControllerServerOptions cso;
  cso.controller.clock = &clock;
  cso.controller.lease_nanos = 100'000'000;
  cso.controller.meta_wal_path = (dir / "meta.wal").string();

  // First incarnation: plans a failover (persisting it) and "crashes"
  // before delivering the promotion.
  auto ctrl = std::make_unique<ControllerServer>(&transport, kCtrlA, info,
                                                 cso);
  ASSERT_TRUE(ctrl->Start().ok());
  ctrl->controller().Heartbeat(0, kPrimary);
  clock.Advance(150'000'000);
  ASSERT_EQ(ctrl->controller().ExpiredLeases().size(), 1u);
  ctrl->Stop();
  ctrl.reset();

  uint64_t replays_before = CounterValue("chariots.flstore.ctrl.plan_replays");

  // Second incarnation recovers the plan from the WAL and completes it at
  // startup: the backup is promoted, exactly as if the crash never
  // happened.
  ctrl = std::make_unique<ControllerServer>(&transport, kCtrlA, info, cso);
  ASSERT_TRUE(ctrl->Start().ok());
  ClusterInfo after = ctrl->controller().GetInfo();
  EXPECT_EQ(after.maintainers[0], kBackup);
  EXPECT_EQ(after.fence_epochs[0], 2u);
  EXPECT_EQ(backup.replica().epoch(), 2u);
  EXPECT_TRUE(ctrl->controller().InflightFailovers().empty());
  EXPECT_GE(CounterValue("chariots.flstore.ctrl.plan_replays"),
            replays_before + 1);
  ctrl->Stop();
  backup.Stop();
  fs::remove_all(dir);
}

// ------------------------------------------------------ leader election

// The whole election pipeline — leader leases, campaign timers, votes,
// beats — on a virtual-time executor: zero real sleeps (DESIGN.md §10).
TEST(ControllerHaTest, VirtualTimeLeaderElectionRunsWithZeroRealSleeps) {
  ManualClock clock;
  Executor exec({.num_threads = 2, .name = "vt-ha", .manual_clock = &clock});

  HaConfig config;
  config.clock = &clock;
  config.executor = &exec;
  config.monitor_interval_nanos = 25'000'000;   // 25 ms virtual
  config.leader_lease_nanos = 300'000'000;      // 300 ms virtual
  HaCluster cluster(config);

  // Nobody leads at start; the first replica whose leader lease lapses
  // campaigns and wins (epoch striping keeps candidates collision-free).
  EXPECT_EQ(cluster.LeaderCount(), 0);
  Step(exec, 400'000'000);
  ASSERT_EQ(cluster.LeaderCount(), 1);
  ControllerServer* first = cluster.Leader();
  uint64_t first_epoch = first->controller().ctrl_epoch();
  EXPECT_GT(first_epoch, 1u);

  // Followers stay followers while the leader beats.
  Step(exec, 500'000'000);
  EXPECT_EQ(cluster.Leader(), first);

  // Kill the leader: a survivor's leader lease lapses, it campaigns, and
  // the two remaining votes are a majority of three.
  for (auto& c : cluster.controllers_) {
    if (c.get() == first) {
      c->Stop();
      c.reset();
    }
  }
  Step(exec, 600'000'000);
  ASSERT_EQ(cluster.LeaderCount(), 1);
  EXPECT_GT(cluster.Leader()->controller().ctrl_epoch(), first_epoch);
}

// ------------------------------------------------------------ fencing

TEST(ControllerHaTest, MaintainerRejectsStaleControllerEpochCommands) {
  HaCluster cluster;
  net::RpcEndpoint probe(&cluster.transport_, "dc0/probe");
  ASSERT_TRUE(probe.Start().ok());

  // The coordinator learns controller epoch 5 (one-way layout update; the
  // inbox is FIFO, so it lands before the stale command below).
  {
    BinaryWriter w;
    w.PutU64(5);           // ctrl_epoch
    w.PutU32(0);           // stripe index
    w.PutBytes(kPrimary);  // (unchanged) coordinator
    ASSERT_TRUE(probe.Notify(kPrimary, kPeerUpdate, std::move(w).data()).ok());
  }
  // A deposed leader (epoch 1 < 5) tries to reconfigure the stripe: the
  // maintainer must refuse without touching its replica set.
  BinaryWriter w;
  w.PutU64(1);  // stale ctrl_epoch
  w.PutU64(9);  // would-be fencing epoch
  w.PutU32(0);  // no peers
  auto stale = probe.Call(kPrimary, kReconfigure, std::move(w).data(), 500ms);
  ASSERT_FALSE(stale.ok());
  EXPECT_EQ(stale.status().code(), StatusCode::kUnavailable);
  EXPECT_NE(stale.status().ToString().find("STALE_CTRL_EPOCH"),
            std::string::npos)
      << stale.status();
  EXPECT_EQ(cluster.primary_->replica().epoch(), 1u);
}

// ----------------------------------------------------------- partitions

// A leader cut off from everything (symmetric partition) must not commit:
// its stripe leases lapse, it plans failovers, but every commit requires a
// majority leadership confirmation it cannot get. Meanwhile the majority
// side elects a fresh leader whose stripe leases never lapse (heartbeats
// keep flowing), so NO failover happens anywhere — one coordinator, always.
// Healing converges to a single leader and one agreed layout.
TEST(ControllerHaTest, MinorityPartitionedLeaderCannotPromote) {
  uint64_t seed = ScenarioSeed(4242);
  ManualClock clock;
  Executor exec({.num_threads = 2, .name = "vt-part",
                 .manual_clock = &clock});

  HaConfig config;
  config.clock = &clock;
  config.executor = &exec;
  config.monitor_interval_nanos = 25'000'000;
  config.leader_lease_nanos = 300'000'000;
  config.lease_nanos = 150'000'000;
  config.heartbeats = true;
  HaCluster cluster(config);
  cluster.transport_.Seed(seed);

  Step(exec, 400'000'000);
  ASSERT_EQ(cluster.LeaderCount(), 1);
  ControllerServer* old_leader = cluster.Leader();
  uint64_t old_epoch = old_leader->controller().ctrl_epoch();

  // Cut the leader off from the other controllers AND the data plane.
  const net::NodeId leader_node = cluster.NodeOf(old_leader);
  std::vector<std::string> others;
  for (const char* node : {kCtrlA, kCtrlB, kCtrlC}) {
    if (leader_node != node) others.push_back(node);
  }
  others.push_back("dc0/maintainer");  // prefix: both stripe members
  const int64_t window =
      700'000'000 + static_cast<int64_t>(seed % 5) * 50'000'000;
  const int64_t t0 = clock.NowNanos();
  cluster.transport_.faults().PartitionWindow({leader_node}, others, t0,
                                              t0 + window);

  // Mid-window: the minority leader has expired stripe leases and has
  // tried to fail over — every attempt must have aborted on the missing
  // majority confirmation.
  Step(exec, window / 2);
  cluster.ExpectLayoutUntouched();

  // Ride out the window plus a few beat periods for convergence.
  Step(exec, window / 2 + 100'000'000);
  Step(exec, 100'000'000);
  cluster.ExpectLayoutUntouched();
  ASSERT_EQ(cluster.LeaderCount(), 1)
      << "healed partition must converge to exactly one leader";
  EXPECT_GT(cluster.Leader()->controller().ctrl_epoch(), old_epoch);
  // Every replica agrees on the layout (ctrl_epoch catches up via beats).
  ClusterInfo agreed = cluster.Leader()->controller().GetInfo();
  for (auto& c : cluster.controllers_) {
    EXPECT_EQ(c->controller().GetInfo().maintainers, agreed.maintainers);
    EXPECT_EQ(c->controller().GetInfo().fence_epochs, agreed.fence_epochs);
  }
}

// Asymmetric (one-way) partition: the leader's messages still reach
// everyone, but nothing reaches the leader. Its stripe leases lapse and it
// plans failovers — and because the majority confirmation runs BEFORE the
// promotion RPC, the unreachable acks abort the plan before any replica is
// told to promote. The followers keep hearing beats, so nobody else
// campaigns either: no second coordinator, no second leader, ever.
TEST(ControllerHaTest, AsymmetricPartitionNeverYieldsTwoCoordinators) {
  uint64_t seed = ScenarioSeed(5151);
  ManualClock clock;
  Executor exec({.num_threads = 2, .name = "vt-asym",
                 .manual_clock = &clock});

  HaConfig config;
  config.clock = &clock;
  config.executor = &exec;
  config.monitor_interval_nanos = 25'000'000;
  config.leader_lease_nanos = 300'000'000;
  config.lease_nanos = 150'000'000;
  config.heartbeats = true;
  HaCluster cluster(config);
  cluster.transport_.Seed(seed);

  Step(exec, 400'000'000);
  ASSERT_EQ(cluster.LeaderCount(), 1);
  ControllerServer* leader = cluster.Leader();
  uint64_t epoch = leader->controller().ctrl_epoch();

  const net::NodeId leader_node = cluster.NodeOf(leader);
  std::vector<std::string> others;
  for (const char* node : {kCtrlA, kCtrlB, kCtrlC}) {
    if (leader_node != node) others.push_back(node);
  }
  others.push_back("dc0/maintainer");
  const int64_t window =
      500'000'000 + static_cast<int64_t>(seed % 4) * 50'000'000;
  const int64_t t0 = clock.NowNanos();
  cluster.transport_.faults().AsymmetricPartitionWindow(
      others, {leader_node}, t0, t0 + window);

  Step(exec, window + 100'000'000);
  Step(exec, 100'000'000);
  cluster.ExpectLayoutUntouched();
  // The one-way cut deposed nobody: beats kept flowing outward.
  ASSERT_EQ(cluster.LeaderCount(), 1);
  EXPECT_EQ(cluster.Leader(), leader);
  EXPECT_EQ(leader->controller().ctrl_epoch(), epoch);
}

// --------------------------------------------------------- gray failure

// A pathologically slow node still answers the probe, so a suspect report
// must never evict it (gray failure != death). Wall clock: the slow-node
// delay has to race a real probe timeout.
TEST(ControllerHaTest, SlowButReachableCoordinatorIsNeverEvicted) {
  HaConfig config;  // system clock, shared executor
  HaCluster cluster(config);
  ASSERT_TRUE(cluster.controllers_[0]->Campaign().ok());
  ASSERT_TRUE(cluster.controllers_[0]->IsLeader());

  // Everything to/from the primary takes an extra 20 ms — far slower than
  // a healthy node, still well inside the 100 ms probe timeout.
  cluster.transport_.faults().SlowNodeWindow(
      kPrimary, 20'000'000, 0, std::numeric_limits<int64_t>::max());
  uint64_t false_before =
      CounterValue("chariots.flstore.ctrl.false_suspects");

  net::RpcEndpoint probe(&cluster.transport_, "dc0/probe");
  ASSERT_TRUE(probe.Start().ok());
  BinaryWriter w;
  w.PutU32(0);
  w.PutBytes(kPrimary);
  auto verdict = probe.Call(kCtrlA, kSuspect, std::move(w).data(), 2000ms);
  ASSERT_TRUE(verdict.ok()) << verdict.status();
  EXPECT_EQ(*verdict, std::string(1, '\x00'));  // nothing changed
  cluster.ExpectLayoutUntouched();
  EXPECT_GE(CounterValue("chariots.flstore.ctrl.false_suspects"),
            false_before + 1);
}

// ------------------------------------------------- status & client HA

TEST(ControllerHaTest, StatusRpcAndClientControllerFailover) {
  HaCluster cluster;
  ASSERT_TRUE(cluster.controllers_[0]->Campaign().ok());
  ASSERT_TRUE(cluster.controllers_[0]->IsLeader());
  uint64_t epoch = cluster.controllers_[0]->controller().ctrl_epoch();

  auto client = cluster.NewClient("x");
  auto status = client->ControllerStatus();
  ASSERT_TRUE(status.ok()) << status.status();
  EXPECT_EQ(status->ctrl_epoch, epoch);
  EXPECT_TRUE(status->is_leader);  // the sticky replica is the leader
  EXPECT_EQ(status->leader, kCtrlA);
  ASSERT_EQ(status->stripes.size(), 1u);
  EXPECT_EQ(status->stripes[0].coordinator, kPrimary);
  EXPECT_EQ(status->stripes[0].fence_epoch, 1u);
  // No heartbeat ever arrived, so the stripe lease is unarmed.
  EXPECT_EQ(status->stripes[0].lease_nanos, ControlPlaneStatus::kNoLease);
  ASSERT_EQ(status->stripes[0].replicas.size(), 1u);
  EXPECT_EQ(status->stripes[0].replicas[0], kBackup);

  // Kill the replica the client is sticky to: the next status call (and a
  // layout refresh) must rotate to a surviving replica, not fail.
  cluster.controllers_[0]->Stop();
  cluster.controllers_[0].reset();
  auto from_follower = client->ControllerStatus();
  ASSERT_TRUE(from_follower.ok()) << from_follower.status();
  EXPECT_FALSE(from_follower->is_leader);
  EXPECT_EQ(from_follower->ctrl_epoch, epoch);
  EXPECT_TRUE(client->RefreshClusterInfo().ok());
}

}  // namespace
}  // namespace chariots::flstore
