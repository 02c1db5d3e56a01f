// Replication & failover tests: Hermes-style invalidate/validate broadcast
// per stripe, linearizable reads from every replica, epoch fencing, the
// suspect fast path (sub-lease failover), replica-driven replay of in-flight
// writes at promotion, and exactly-once appends across failover
// (DESIGN.md §8, §12).

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "common/codec.h"
#include "common/executor.h"
#include "common/flight_recorder.h"
#include "common/metrics.h"
#include "common/random.h"
#include "flstore/client.h"
#include "flstore/hermes.h"
#include "flstore/service.h"
#include "net/fault_schedule.h"
#include "net/inproc_transport.h"

namespace chariots::flstore {
namespace {

using namespace std::chrono_literals;
using net::FaultSchedule;

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

/// MTTR budget for the suspect fast path: ISSUE 7 demands at least a 10x
/// improvement over the ~86 ms lease-expiry baseline. Sanitizer builds get a
/// wall-clock allowance instead — instrumentation makes timing assertions
/// meaningless there.
#if defined(__SANITIZE_THREAD__) || defined(__SANITIZE_ADDRESS__)
constexpr int64_t kMttrDeadlineNanos = 5'000'000'000;
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer) || __has_feature(address_sanitizer)
constexpr int64_t kMttrDeadlineNanos = 5'000'000'000;
#else
constexpr int64_t kMttrDeadlineNanos = 8'600'000;  // 8.6 ms
#endif
#else
constexpr int64_t kMttrDeadlineNanos = 8'600'000;  // 8.6 ms
#endif

constexpr char kController[] = "dc0/controller";
constexpr char kPrimary[] = "dc0/maintainer/0";
constexpr char kBackup[] = "dc0/maintainer/0-backup";
constexpr char kBackup2[] = "dc0/maintainer/0-backup2";

/// Wiring knobs for a ReplicatedCluster.
struct ClusterConfig {
  /// Lease clock (null = system). Tests that drive failover by hand use a
  /// ManualClock and TickLeases(); the end-to-end kill test uses wall
  /// time with heartbeats and the monitor thread.
  Clock* clock = nullptr;
  int64_t lease_nanos = 100'000'000;  // 100 ms
  /// 0 = no monitor thread (drive via TickLeases()).
  int64_t monitor_interval_nanos = 0;
  /// Wire maintainer heartbeat threads to the controller.
  bool heartbeats = false;
  int64_t heartbeat_interval_nanos = 5'000'000;  // 5 ms
  uint64_t batch = 4;
  /// Executor for the transport and every server loop (null = the shared
  /// default). A virtual-time executor makes the whole cluster — transport,
  /// heartbeats, monitor sweeps — run on AdvanceBy with zero real sleeps.
  Executor* executor = nullptr;
  /// Maintainer tail-cache bounds (read path, DESIGN.md §11).
  uint64_t tail_cache_bytes = 4ull << 20;
  uint64_t tail_cache_records = 4096;
  /// Replication factor: 2 (coordinator + kBackup) or 3 (+ kBackup2).
  int rf = 2;
};

/// One replicated stripe (coordinator + one replica, or two at rf 3) plus a
/// controller, wired over the in-process transport.
class ReplicatedCluster {
 public:
  using Config = ClusterConfig;

  explicit ReplicatedCluster(Config config = Config())
      : transport_(config.clock, config.executor) {
    ClusterInfo info;
    info.journal = EpochJournal(1, config.batch);
    info.maintainers = {kPrimary};
    info.replicas = {Replicas(config)};
    info.fence_epochs = {1};
    ControllerServerOptions cso;
    cso.controller.clock = config.clock;
    cso.controller.lease_nanos = config.lease_nanos;
    cso.monitor_interval_nanos = config.monitor_interval_nanos;
    cso.executor = config.executor;
    controller_ = std::make_unique<ControllerServer>(&transport_, kController,
                                                     info, cso);
    EXPECT_TRUE(controller_->Start().ok());

    backup_ = std::make_unique<MaintainerServer>(
        &transport_, MaintainerOpts(config),
        ServerOpts(config, kBackup, ReplicaRole::kReplica));
    EXPECT_TRUE(backup_->Start().ok());
    if (config.rf > 2) {
      backup2_ = std::make_unique<MaintainerServer>(
          &transport_, MaintainerOpts(config),
          ServerOpts(config, kBackup2, ReplicaRole::kReplica));
      EXPECT_TRUE(backup2_->Start().ok());
    }
    primary_ = std::make_unique<MaintainerServer>(
        &transport_, MaintainerOpts(config),
        ServerOpts(config, kPrimary, ReplicaRole::kCoordinator));
    EXPECT_TRUE(primary_->Start().ok());
  }

  std::unique_ptr<FLStoreClient> NewClient(const std::string& name,
                                           ClientOptions options = {}) {
    auto client = std::make_unique<FLStoreClient>(
        &transport_, "dc0/client/" + name, kController, options);
    EXPECT_TRUE(client->Start().ok());
    return client;
  }

  net::InProcTransport transport_;
  std::unique_ptr<ControllerServer> controller_;
  std::unique_ptr<MaintainerServer> primary_;
  std::unique_ptr<MaintainerServer> backup_;
  std::unique_ptr<MaintainerServer> backup2_;  ///< rf 3 only

 private:
  static std::vector<net::NodeId> Replicas(const Config& config) {
    if (config.rf > 2) return {kBackup, kBackup2};
    return {kBackup};
  }

  static MaintainerOptions MaintainerOpts(const Config& config) {
    MaintainerOptions mo;
    mo.index = 0;
    mo.journal = EpochJournal(1, config.batch);
    mo.store.mode = storage::SyncMode::kMemoryOnly;
    mo.tail_cache_bytes = config.tail_cache_bytes;
    mo.tail_cache_records = config.tail_cache_records;
    return mo;
  }

  static MaintainerServer::Options ServerOpts(const Config& config,
                                              net::NodeId node,
                                              ReplicaRole role) {
    MaintainerServer::Options so;
    so.node = std::move(node);
    so.executor = config.executor;
    so.peers = {kPrimary};
    so.replica.role = role;
    so.replica.epoch = 1;
    // The coordinator drives the INV/VAL broadcast to its peers; replicas
    // learn the membership only if promoted.
    if (role == ReplicaRole::kCoordinator) so.replica.peers = Replicas(config);
    if (config.heartbeats) {
      so.controller = kController;
      so.heartbeat_interval_nanos = config.heartbeat_interval_nanos;
    }
    return so;
  }
};

/// Encodes a kAppend payload: (client_id, seq) token + record.
std::string AppendPayload(const std::string& client_id, uint64_t seq,
                          const LogRecord& record) {
  BinaryWriter w;
  w.PutBytes(client_id);
  w.PutU64(seq);
  w.PutBytes(EncodeLogRecord(record));
  return std::move(w).data();
}

LogRecord Rec(const std::string& body) {
  LogRecord rec;
  rec.body = body;
  return rec;
}

/// kRead payload for one lid.
std::string LidPayload(LId lid) {
  BinaryWriter w;
  w.PutU64(lid);
  return std::move(w).data();
}

TEST(ReplicationTest, AppendAcksOnlyAfterReplicaHoldsTheRecord) {
  ReplicatedCluster cluster;
  auto client = cluster.NewClient("a");
  for (int i = 0; i < 10; ++i) {
    auto lid = client->Append(Rec("r" + std::to_string(i)));
    ASSERT_TRUE(lid.ok()) << lid.status();
    // The ack means every replica already framed the record (the INV ack is
    // applied + durable) — no wait needed.
    auto mirrored = cluster.backup_->maintainer().Read(*lid);
    ASSERT_TRUE(mirrored.ok()) << mirrored.status();
    EXPECT_EQ(mirrored->body, "r" + std::to_string(i));
  }
  EXPECT_EQ(cluster.backup_->maintainer().count(), 10u);
}

TEST(ReplicationTest, ReplicaRejectsAppendsButServesValidatedReads) {
  ReplicatedCluster cluster;
  auto client = cluster.NewClient("a");
  ASSERT_TRUE(client->Append(Rec("r0")).ok());  // lid 0, validated everywhere

  net::RpcEndpoint probe(&cluster.transport_, "dc0/probe");
  ASSERT_TRUE(probe.Start().ok());
  // Appends are the coordinator's job.
  auto direct = probe.Call(kBackup, kAppend,
                           AppendPayload("dc0/probe", 1, Rec("sneak")), 500ms);
  ASSERT_FALSE(direct.ok());
  EXPECT_EQ(direct.status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(cluster.backup_->maintainer().count(), 1u);
  // But a validated position reads from the replica directly — that is the
  // tentpole: linearizable reads from every replica.
  auto read = probe.Call(kBackup, kRead, LidPayload(0), 500ms);
  ASSERT_TRUE(read.ok()) << read.status();
  BinaryReader r(*read);
  uint64_t epoch = 0, hl = 0;
  std::string rec_bytes;
  ASSERT_TRUE(r.GetU64(&epoch).ok());
  ASSERT_TRUE(r.GetU64(&hl).ok());
  ASSERT_TRUE(r.GetBytes(&rec_bytes).ok());
  EXPECT_EQ(epoch, 1u);
  EXPECT_GE(hl, 1u) << "validated position must be cacheable-permanent";
  auto rec = DecodeLogRecord(0, rec_bytes);
  ASSERT_TRUE(rec.ok());
  EXPECT_EQ(rec->body, "r0");
}

TEST(ReplicationTest, ReplicaRejectsStaleEpochInvalidate) {
  ReplicatedCluster cluster;
  net::RpcEndpoint probe(&cluster.transport_, "dc0/probe");
  ASSERT_TRUE(probe.Start().ok());
  InvalidateRequest req;
  req.epoch = 0;  // below the replica's epoch 1
  req.entries.push_back(ReplicatedEntry{0, EncodeLogRecord(Rec("stale"))});
  auto result = probe.Call(kBackup, kInvalidate, EncodeInvalidateRequest(req),
                           500ms);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(cluster.backup_->maintainer().count(), 0u);
}

TEST(ReplicationTest, ReadsSpreadAcrossCoordinatorAndReplica) {
  ReplicatedCluster cluster;
  ClientOptions copts;
  copts.read_cache_bytes = 0;  // every read goes remote
  auto client = cluster.NewClient("a", copts);
  const int n = 8;
  for (int i = 0; i < n; ++i) {
    ASSERT_TRUE(client->Append(Rec("r" + std::to_string(i))).ok());
  }
  for (LId lid = 0; lid < n; ++lid) {
    auto rec = client->Read(lid);
    ASSERT_TRUE(rec.ok()) << rec.status();
    EXPECT_EQ(rec->body, "r" + std::to_string(lid));
  }
  std::map<net::NodeId, uint64_t> shares = client->reads_by_node();
  EXPECT_GT(shares[kPrimary], 0u) << "coordinator served no reads";
  EXPECT_GT(shares[kBackup], 0u) << "replica served no reads";
  EXPECT_EQ(shares[kPrimary] + shares[kBackup], static_cast<uint64_t>(n));
}

// The point of the tentpole: when the coordinator dies, reads keep flowing
// from the surviving replica immediately — no failover, no layout change,
// no lease wait.
TEST(ReplicationTest, ReadsSurviveCoordinatorLossWithoutFailover) {
  ReplicatedCluster cluster;
  auto writer = cluster.NewClient("w");
  const int n = 5;
  for (int i = 0; i < n; ++i) {
    ASSERT_TRUE(writer->Append(Rec("r" + std::to_string(i))).ok());
  }

  cluster.primary_->Stop();  // no heartbeats configured: nothing fails over

  ClientOptions copts;
  copts.read_cache_bytes = 0;
  auto reader = cluster.NewClient("r", copts);
  for (LId lid = 0; lid < n; ++lid) {
    auto rec = reader->Read(lid);
    ASSERT_TRUE(rec.ok()) << "read " << lid << " after coordinator loss: "
                          << rec.status();
    EXPECT_EQ(rec->body, "r" + std::to_string(lid));
  }
  std::map<net::NodeId, uint64_t> shares = reader->reads_by_node();
  EXPECT_EQ(shares[kBackup], static_cast<uint64_t>(n));
  // The layout never changed — the replica served, it was not promoted.
  EXPECT_EQ(cluster.controller_->controller().GetInfo().maintainers[0],
            kPrimary);
  EXPECT_EQ(cluster.backup_->replica().role(), ReplicaRole::kReplica);
}

// A position whose VAL was lost is applied-but-invalid on the replica: it
// must refuse to serve it (the coordinator still does), because an invalid
// position could still be junk-filled by a failover.
TEST(ReplicationTest, ReplicaRefusesUnvalidatedPosition) {
  ReplicatedCluster cluster;
  cluster.transport_.faults().DropNth(FaultSchedule::TypeIs(kValidate),
                                      /*nth=*/1);
  auto client = cluster.NewClient("a");
  ASSERT_TRUE(client->Append(Rec("r0")).ok());  // acked; VAL to replica lost

  net::RpcEndpoint probe(&cluster.transport_, "dc0/probe");
  ASSERT_TRUE(probe.Start().ok());
  // The replica holds the record (INV applied) but it is not valid there.
  ASSERT_TRUE(cluster.backup_->maintainer().Read(0).ok());
  auto replica_read = probe.Call(kBackup, kRead, LidPayload(0), 500ms);
  ASSERT_FALSE(replica_read.ok());
  EXPECT_EQ(replica_read.status().code(), StatusCode::kUnavailable);
  // The coordinator validated locally once every peer acked — it serves.
  auto coord_read = probe.Call(kPrimary, kRead, LidPayload(0), 500ms);
  EXPECT_TRUE(coord_read.ok()) << coord_read.status();
  // And the client read path cycles off the replica onto the coordinator.
  ClientOptions copts;
  copts.read_cache_bytes = 0;
  auto reader = cluster.NewClient("r", copts);
  auto rec = reader->Read(0);
  ASSERT_TRUE(rec.ok()) << rec.status();
  EXPECT_EQ(rec->body, "r0");
}

TEST(ReplicationTest, LeaseExpiryPromotesReplicaDeterministically) {
  ManualClock clock;
  ReplicatedCluster::Config config;
  config.clock = &clock;
  config.lease_nanos = 100'000'000;
  ReplicatedCluster cluster(config);
  Controller& ctl = cluster.controller_->controller();

  // The coordinator heartbeats once, arming its lease; then goes silent.
  ctl.Heartbeat(0, kPrimary);
  EXPECT_TRUE(ctl.LeaseHeld(0));
  EXPECT_EQ(cluster.controller_->TickLeases(), 0);  // lease still live

  clock.Advance(150'000'000);
  EXPECT_FALSE(ctl.LeaseHeld(0));
  EXPECT_EQ(cluster.controller_->TickLeases(), 1);

  // Layout: the replica is the stripe's coordinator under the bumped epoch.
  ClusterInfo info = ctl.GetInfo();
  EXPECT_EQ(info.maintainers[0], kBackup);
  EXPECT_TRUE(info.replicas[0].empty());
  EXPECT_EQ(info.fence_epochs[0], 2u);
  EXPECT_EQ(cluster.backup_->replica().role(), ReplicaRole::kCoordinator);
  EXPECT_EQ(cluster.backup_->replica().epoch(), 2u);

  // A second sweep is a no-op (the plan was consumed, the lease removed).
  EXPECT_EQ(cluster.controller_->TickLeases(), 0);

  // The promoted node serves appends.
  auto client = cluster.NewClient("a");
  auto lid = client->Append(Rec("served-by-replica"));
  ASSERT_TRUE(lid.ok()) << lid.status();
  EXPECT_EQ(cluster.backup_->maintainer().Read(*lid)->body,
            "served-by-replica")
      << "promoted replica must hold the record";
}

TEST(ReplicationTest, NeverHeartbeatingStripeIsNeverSuspected) {
  ManualClock clock;
  ReplicatedCluster::Config config;
  config.clock = &clock;
  ReplicatedCluster cluster(config);
  // No heartbeat ever arrives: the lease never arms, so no amount of time
  // triggers failover (backward compatibility with unmonitored clusters).
  clock.Advance(3'600'000'000'000);
  EXPECT_EQ(cluster.controller_->TickLeases(), 0);
  EXPECT_EQ(cluster.controller_->controller().GetInfo().maintainers[0],
            kPrimary);
}

TEST(ReplicationTest, PromotionJunkFillsOrphanedPositions) {
  ManualClock clock;
  ReplicatedCluster::Config config;
  config.clock = &clock;
  ReplicatedCluster cluster(config);
  auto client = cluster.NewClient("a");
  ASSERT_TRUE(client->Append(Rec("r0")).ok());  // lid 0, replicated
  // The coordinator lands lid 1 locally but "crashes" before replicating it
  // — a direct maintainer append models the unreplicated tail.
  ASSERT_TRUE(cluster.primary_->maintainer().Append(Rec("orphan")).ok());
  // A later record does replicate, so the replica has a hole at lid 1.
  ASSERT_TRUE(client->Append(Rec("r2")).ok());  // lid 2
  EXPECT_EQ(cluster.backup_->maintainer().StoredLids(),
            (std::vector<LId>{0, 2}));

  cluster.primary_->Stop();
  cluster.controller_->controller().Heartbeat(0, kPrimary);
  clock.Advance(150'000'000);
  ASSERT_EQ(cluster.controller_->TickLeases(), 1);

  // The hole is junk-filled; the Head of the Log can pass it.
  auto filled = cluster.backup_->maintainer().Read(1);
  ASSERT_TRUE(filled.ok()) << filled.status();
  EXPECT_TRUE(IsJunkRecord(*filled));
  EXPECT_EQ(cluster.backup_->maintainer().FirstUnfilledGlobal(), 3u);
  EXPECT_EQ(cluster.backup_->maintainer().HeadOfLog(), 3u);
}

TEST(ReplicationTest, DeposedCoordinatorSelfFencesOnStaleEpoch) {
  ManualClock clock;
  ReplicatedCluster::Config config;
  config.clock = &clock;
  ReplicatedCluster cluster(config);
  auto client = cluster.NewClient("a");
  ASSERT_TRUE(client->Append(Rec("r0")).ok());

  // Failover happens while the old coordinator is still alive (a partition
  // the controller read as death).
  cluster.controller_->controller().Heartbeat(0, kPrimary);
  clock.Advance(150'000'000);
  ASSERT_EQ(cluster.controller_->TickLeases(), 1);
  ASSERT_EQ(cluster.backup_->replica().epoch(), 2u);

  // A client with a stale layout still hits the old coordinator. Its INV
  // carries epoch 1, the promoted replica rejects it, and the old
  // coordinator fences itself — split-brain cannot ack.
  net::RpcEndpoint probe(&cluster.transport_, "dc0/probe");
  ASSERT_TRUE(probe.Start().ok());
  auto stale = probe.Call(kPrimary, kAppend,
                          AppendPayload("dc0/probe", 1, Rec("split")), 500ms);
  ASSERT_FALSE(stale.ok());
  EXPECT_EQ(stale.status().code(), StatusCode::kUnavailable);
  EXPECT_TRUE(cluster.primary_->replica().fenced());
  // Fenced is sticky: the node rejects everything from now on.
  auto again = probe.Call(kPrimary, kRead, std::string(8, '\0'), 500ms);
  EXPECT_EQ(again.status().code(), StatusCode::kUnavailable);
  // The promoted node never saw the split append.
  for (LId lid : cluster.backup_->maintainer().StoredLids()) {
    EXPECT_NE(cluster.backup_->maintainer().Read(lid)->body, "split");
  }
}

TEST(ReplicationTest, DedupStateSurvivesFailoverExactlyOnce) {
  ManualClock clock;
  ReplicatedCluster::Config config;
  config.clock = &clock;
  ReplicatedCluster cluster(config);
  net::RpcEndpoint probe(&cluster.transport_, "dc0/probe");
  ASSERT_TRUE(probe.Start().ok());

  // First attempt executes on the coordinator; the INV mirrors the records
  // AND the dedup token onto the replica.
  std::string payload = AppendPayload("dc0/probe", 7, Rec("once"));
  auto first = probe.Call(kPrimary, kAppend, payload, 500ms);
  ASSERT_TRUE(first.ok()) << first.status();

  cluster.primary_->Stop();
  cluster.controller_->controller().Heartbeat(0, kPrimary);
  clock.Advance(150'000'000);
  ASSERT_EQ(cluster.controller_->TickLeases(), 1);

  // The retry (same token, response was "lost") lands on the promoted
  // replica and replays the cached response — byte-identical, no new record.
  uint64_t count_before = cluster.backup_->maintainer().count();
  auto retry = probe.Call(kBackup, kAppend, payload, 500ms);
  ASSERT_TRUE(retry.ok()) << retry.status();
  EXPECT_EQ(*retry, *first);
  EXPECT_EQ(cluster.backup_->maintainer().count(), count_before);
  EXPECT_GE(cluster.backup_->dedup().hits(), 1u);
}

TEST(ReplicationTest, AddMaintainerCasRejectsConcurrentFailover) {
  // Regression for the elasticity/failover interleaving: an installer reads
  // the layout, a failover commits, then the install must abort instead of
  // clobbering the promotion.
  ManualClock clock;
  ReplicatedCluster::Config config;
  config.clock = &clock;
  ReplicatedCluster cluster(config);
  Controller& ctl = cluster.controller_->controller();

  uint64_t read_version = ctl.version();
  StripeEpoch epoch{100, 2, 4};

  // Failover commits between the read and the install.
  ctl.Heartbeat(0, kPrimary);
  clock.Advance(150'000'000);
  ASSERT_EQ(cluster.controller_->TickLeases(), 1);
  ASSERT_GT(ctl.version(), read_version);

  Status stale = ctl.AddMaintainer("dc0/maintainer/1", epoch, read_version);
  ASSERT_FALSE(stale.ok());
  EXPECT_EQ(stale.code(), StatusCode::kAborted);

  // Re-read and retry succeeds, and the committed failover is intact.
  Status fresh = ctl.AddMaintainer("dc0/maintainer/1", epoch, ctl.version());
  ASSERT_TRUE(fresh.ok()) << fresh;
  ClusterInfo info = ctl.GetInfo();
  ASSERT_EQ(info.maintainers.size(), 2u);
  EXPECT_EQ(info.maintainers[0], kBackup);  // failover survived
  EXPECT_EQ(info.maintainers[1], "dc0/maintainer/1");
  EXPECT_EQ(info.fence_epochs[1], 1u);
}

TEST(ReplicationTest, ClusterInfoRoundTripsReplicaFields) {
  ClusterInfo info;
  info.journal = EpochJournal(2, 8);
  info.maintainers = {"m0", "m1"};
  info.indexers = {"i0"};
  info.approx_records = 42;
  info.version = 7;
  info.replicas = {{"r0a", "r0b"}, {}};
  info.fence_epochs = {3, 1};
  auto decoded = DecodeClusterInfo(EncodeClusterInfo(info));
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(decoded->maintainers, info.maintainers);
  EXPECT_EQ(decoded->version, 7u);
  EXPECT_EQ(decoded->replicas, info.replicas);
  EXPECT_EQ(decoded->fence_epochs, info.fence_epochs);
}

// The lease-failover pipeline — heartbeat timers, monitor sweeps, and the
// transport itself — on a virtual-time executor: the whole kill-and-promote
// scenario runs on AdvanceBy with zero real sleeps (DESIGN.md §10).
TEST(ReplicationTest, VirtualTimeFailoverRunsWithZeroRealSleeps) {
  ManualClock clock;
  Executor exec({.num_threads = 2, .name = "vt-repl", .manual_clock = &clock});

  ReplicatedCluster::Config config;
  config.clock = &clock;
  config.executor = &exec;
  config.heartbeats = true;
  config.lease_nanos = 60'000'000;             // 60 ms virtual
  config.monitor_interval_nanos = 10'000'000;  // 10 ms virtual sweeps
  ReplicatedCluster cluster(config);

  // Client startup round-trips through the controller's inbox strand, which
  // is FIFO — so the coordinator's initial heartbeat (sent inline in
  // Start()) has been processed by the time Append returns, and the lease
  // is armed.
  auto client = cluster.NewClient("a");
  auto pre = client->Append(Rec("pre"));
  ASSERT_TRUE(pre.ok()) << pre.status();

  // Nothing ages while the coordinator heartbeats: 50 ms of virtual time
  // (five monitor sweeps, ten heartbeats) changes no layout.
  exec.AdvanceBy(50'000'000);
  EXPECT_EQ(cluster.controller_->controller().GetInfo().maintainers[0],
            kPrimary);

  // Kill the coordinator (its heartbeat timer dies with it) and advance
  // past lease expiry: a monitor sweep fires inline and promotes the
  // replica.
  cluster.primary_->Stop();
  exec.AdvanceBy(200'000'000);
  EXPECT_EQ(cluster.controller_->controller().GetInfo().maintainers[0],
            kBackup);
  EXPECT_EQ(cluster.backup_->replica().role(), ReplicaRole::kCoordinator);

  // A fresh client picks up the new layout and appends through the
  // promoted replica — still without a single real sleep.
  auto client2 = cluster.NewClient("b");
  auto post = client2->Append(Rec("post"));
  ASSERT_TRUE(post.ok()) << post.status();
  EXPECT_EQ(cluster.backup_->maintainer().Read(*post)->body, "post");

  cluster.backup_->Stop();
  cluster.controller_->Stop();
  exec.Shutdown();
}

// ----------------------------------------------- read path across failover

// A promoted replica serves the whole post-fence log through the normal
// client read path: surviving records byte-identical, orphaned positions as
// junk — and once fetched, the committed tail reads from the client cache
// even with every server gone.
TEST(ReplicationTest, PromotedReplicaServesPostFenceReads) {
  ManualClock clock;
  ReplicatedCluster::Config config;
  config.clock = &clock;
  ReplicatedCluster cluster(config);
  auto writer = cluster.NewClient("w");
  ASSERT_TRUE(writer->Append(Rec("r0")).ok());  // lid 0, replicated
  // Orphan: landed on the coordinator, never replicated (crash mid-append).
  ASSERT_TRUE(cluster.primary_->maintainer().Append(Rec("orphan")).ok());
  ASSERT_TRUE(writer->Append(Rec("r2")).ok());  // lid 2 -> replica hole at 1

  cluster.primary_->Stop();
  cluster.controller_->controller().Heartbeat(0, kPrimary);
  clock.Advance(150'000'000);
  ASSERT_EQ(cluster.controller_->TickLeases(), 1);

  // A fresh client resolves the promoted replica and reads everything.
  auto reader = cluster.NewClient("r");
  EXPECT_EQ(reader->Read(0)->body, "r0");
  auto filled = reader->Read(1);
  ASSERT_TRUE(filled.ok()) << filled.status();
  EXPECT_TRUE(IsJunkRecord(*filled)) << "orphaned hole must read as junk";
  EXPECT_EQ(reader->Read(2)->body, "r2");

  // All three are below the promoted log's HL, so they were cached as
  // permanent — the committed tail outlives the servers.
  cluster.backup_->Stop();
  EXPECT_EQ(reader->Read(0)->body, "r0");
  EXPECT_EQ(reader->Read(2)->body, "r2");
}

// A fenced ex-coordinator rejects reads even though its tail cache still
// holds the records — a warm cache must never bypass the fence.
TEST(ReplicationTest, FencedExCoordinatorRejectsReadsDespiteWarmTailCache) {
  ManualClock clock;
  ReplicatedCluster::Config config;
  config.clock = &clock;
  ReplicatedCluster cluster(config);
  auto client = cluster.NewClient("a");
  ASSERT_TRUE(client->Append(Rec("r0")).ok());
  ASSERT_GT(cluster.primary_->maintainer().TailCacheEntries(), 0u);

  net::RpcEndpoint probe(&cluster.transport_, "dc0/probe");
  ASSERT_TRUE(probe.Start().ok());
  // The warm cache serves the pre-failover read.
  ASSERT_TRUE(probe.Call(kPrimary, kRead, LidPayload(0), 500ms).ok());

  // Failover while the old coordinator is alive and unaware.
  cluster.controller_->controller().Heartbeat(0, kPrimary);
  clock.Advance(150'000'000);
  ASSERT_EQ(cluster.controller_->TickLeases(), 1);

  // Its next INV self-fences it...
  auto stale = probe.Call(kPrimary, kAppend,
                          AppendPayload("dc0/probe", 1, Rec("split")), 500ms);
  EXPECT_EQ(stale.status().code(), StatusCode::kUnavailable);
  ASSERT_TRUE(cluster.primary_->replica().fenced());
  // ...and the still-cached record is no longer served.
  ASSERT_GT(cluster.primary_->maintainer().TailCacheEntries(), 0u);
  auto read = probe.Call(kPrimary, kRead, LidPayload(0), 500ms);
  EXPECT_EQ(read.status().code(), StatusCode::kUnavailable);
}

// Client read-cache coherence across failover: a record read from the
// coordinator before its replication was acked must not be cached as
// permanent — after failover junk-fills its position, the epoch bump
// piggybacked on the next response purges it, and a re-read returns the
// junk fill, not the stale orphan body.
TEST(ReplicationTest, ClientCachePurgedOnEpochBumpAcrossFailover) {
  ManualClock clock;
  ReplicatedCluster::Config config;
  config.clock = &clock;
  ReplicatedCluster cluster(config);
  ClientOptions copts;
  copts.retry.attempt_timeout = 200ms;
  copts.failover_attempts = 30;
  auto client = cluster.NewClient("a", copts);

  ASSERT_TRUE(client->Append(Rec("r0")).ok());  // lid 0, replicated
  // The orphan lands locally but is never replicated; a concurrent reader
  // can still observe it on the coordinator.
  ASSERT_TRUE(cluster.primary_->maintainer().Append(Rec("orphan")).ok());
  auto stale = client->Read(1);
  ASSERT_TRUE(stale.ok()) << stale.status();
  EXPECT_EQ(stale->body, "orphan");
  EXPECT_EQ(client->read_cache_entries(), 1u);
  // A later replicated append leaves the replica with a hole at lid 1.
  ASSERT_TRUE(client->Append(Rec("r2")).ok());

  cluster.primary_->Stop();
  cluster.controller_->controller().Heartbeat(0, kPrimary);
  clock.Advance(150'000'000);
  ASSERT_EQ(cluster.controller_->TickLeases(), 1);

  // The next read fails over to the promoted replica; its epoch-2 response
  // purges the stripe's cached tail (the piggybacked HL had marked lid 1
  // non-permanent precisely because its replication was never acked).
  EXPECT_EQ(client->Read(0)->body, "r0");
  auto filled = client->Read(1);
  ASSERT_TRUE(filled.ok()) << filled.status();
  EXPECT_TRUE(IsJunkRecord(*filled))
      << "stale cached orphan served after failover";
  EXPECT_NE(filled->body, "orphan");
}

// Tail-cache eviction respects its byte/record bounds while the whole
// replicated cluster — appends, replication, gossip, heartbeats — runs on
// virtual time with zero real sleeps.
TEST(ReplicationTest, VirtualTimeTailCacheRespectsByteBound) {
  ManualClock clock;
  Executor exec({.num_threads = 2, .name = "vt-tail", .manual_clock = &clock});

  ReplicatedCluster::Config config;
  config.clock = &clock;
  config.executor = &exec;
  config.heartbeats = true;
  config.lease_nanos = 60'000'000;
  config.monitor_interval_nanos = 10'000'000;
  config.tail_cache_bytes = 512;
  config.tail_cache_records = 16;
  ReplicatedCluster cluster(config);

  auto client = cluster.NewClient("a");
  for (int i = 0; i < 60; ++i) {
    ASSERT_TRUE(client->Append(Rec("payload-" + std::to_string(i))).ok());
    EXPECT_LE(cluster.primary_->maintainer().TailCacheBytes(), 512u);
    EXPECT_LE(cluster.primary_->maintainer().TailCacheEntries(), 16u);
    EXPECT_LE(cluster.backup_->maintainer().TailCacheBytes(), 512u);
    EXPECT_LE(cluster.backup_->maintainer().TailCacheEntries(), 16u);
    if (i % 20 == 0) exec.AdvanceBy(10'000'000);
  }
  EXPECT_GT(cluster.primary_->maintainer().TailCacheEntries(), 0u);
  // The newest record is in cache on both replicas; the oldest was evicted
  // but still reads through the store.
  EXPECT_EQ(cluster.primary_->maintainer().Read(59)->body, "payload-59");
  EXPECT_EQ(cluster.primary_->maintainer().Read(0)->body, "payload-0");

  cluster.primary_->Stop();
  cluster.backup_->Stop();
  cluster.controller_->Stop();
  exec.Shutdown();
}

// The acceptance scenario: the coordinator dies mid-append under a seeded
// schedule; the client's very next append completes through the promoted
// replica via the suspect fast path — within the sub-lease MTTR budget; the
// surviving log holds every acked record exactly once, byte-identical to a
// no-fault run, with orphaned positions filled as junk; and no
// (client_id, seq) executed twice.
TEST(ReplicationTest, KillPrimaryMidAppendFailsOverExactlyOnce) {
  uint64_t seed = ScenarioSeed(9000);
  Random rng(seed);
  const int n_pre = 1 + static_cast<int>(rng.Uniform(6));
  const int n_orphans = 1 + static_cast<int>(rng.Uniform(3));
  const bool hole = rng.OneIn(0.5);  // orphan below a replicated record?
  const int n_post = 2 + static_cast<int>(rng.Uniform(5));

  ReplicatedCluster::Config config;
  config.heartbeats = true;
  config.lease_nanos = 60'000'000;             // 60 ms backstop
  config.monitor_interval_nanos = 10'000'000;  // 10 ms sweeps
  ReplicatedCluster cluster(config);

  ClientOptions copts;
  copts.retry.seed = seed;
  copts.retry.attempt_timeout = 200ms;
  copts.failover_attempts = 30;
  auto client = cluster.NewClient("a", copts);

  std::vector<std::string> acked;  // bodies the client got an LId for
  std::map<LId, std::string> acked_at;
  for (int i = 0; i < n_pre; ++i) {
    std::string body = "pre-" + std::to_string(i);
    auto lid = client->Append(Rec(body));
    ASSERT_TRUE(lid.ok()) << lid.status();
    acked.push_back(body);
    acked_at[*lid] = body;
  }

  // The crash: the coordinator lands `n_orphans` records it never
  // replicates (the mid-append moment), optionally followed by one
  // replicated record (making the orphans true holes), then goes dark —
  // RPC and heartbeats.
  std::set<LId> orphan_lids;
  for (int i = 0; i < n_orphans; ++i) {
    auto lid = cluster.primary_->maintainer().Append(Rec("orphan"));
    ASSERT_TRUE(lid.ok());
    orphan_lids.insert(*lid);
  }
  if (hole) {
    std::string body = "pre-hole";
    auto lid = client->Append(Rec(body));
    ASSERT_TRUE(lid.ok()) << lid.status();
    acked.push_back(body);
    acked_at[*lid] = body;
  }
  int64_t killed_at = SystemClock::Default()->NowNanos();
  cluster.primary_->Stop();

  // The client, unaware, keeps appending. Its first post-crash attempt
  // fails fast, its synchronous suspect report runs the failover inside the
  // call, and the retry lands on the promoted replica — MTTR is the gap
  // from kill to first completed append, and must beat the lease-expiry
  // baseline (~86 ms) by >= 10x.
  for (int i = 0; i < n_post; ++i) {
    std::string body = "post-" + std::to_string(i);
    auto lid = client->Append(Rec(body));
    ASSERT_TRUE(lid.ok()) << "post-crash append " << i << ": "
                          << lid.status();
    if (i == 0) {
      int64_t gap = SystemClock::Default()->NowNanos() - killed_at;
      std::cerr << "[ append availability gap " << gap / 1'000'000.0
                << " ms ]\n";
      EXPECT_LT(gap, kMttrDeadlineNanos)
          << "suspect fast path missed the sub-lease MTTR budget";
    }
    acked.push_back(body);
    acked_at[*lid] = body;
  }
  EXPECT_EQ(cluster.controller_->controller().GetInfo().maintainers[0],
            kBackup);

  // Survivor's log: every acked record at its acked position with its
  // original payload (byte-identical via LogRecord equality), junk at
  // orphaned holes, nothing else — i.e. the no-fault log with holes filled
  // as junk, and no (client_id, seq) landed twice.
  LogMaintainer& survivor = cluster.backup_->maintainer();
  std::multiset<std::string> stored_bodies;
  for (LId lid : survivor.StoredLids()) {
    auto rec = survivor.Read(lid);
    ASSERT_TRUE(rec.ok()) << rec.status();
    if (IsJunkRecord(*rec)) {
      EXPECT_TRUE(acked_at.find(lid) == acked_at.end())
          << "junk overwrote acked lid " << lid;
      continue;
    }
    auto expected = acked_at.find(lid);
    if (expected != acked_at.end()) {
      // Byte-identical payloads: the stored frame re-encodes to exactly the
      // bytes the client submitted.
      EXPECT_EQ(EncodeLogRecord(*rec), EncodeLogRecord(Rec(expected->second)))
          << "payload diverged at " << lid;
    }
    stored_bodies.insert(rec->body);
  }
  for (const std::string& body : acked) {
    EXPECT_EQ(stored_bodies.count(body), 1u)
        << "acked record '" << body << "' must land exactly once";
  }
  // Any junk sits only where the dead coordinator orphaned positions.
  for (LId lid : survivor.StoredLids()) {
    auto rec = survivor.Read(lid);
    if (IsJunkRecord(*rec)) {
      EXPECT_TRUE(orphan_lids.count(lid) > 0 ||
                  acked_at.find(lid) == acked_at.end());
    }
  }
}

// The replay drill (tools/run_fault_matrix.sh): the coordinator dies right
// after a write's INV round — the client was acked but the VAL never
// reached the replica, so the position sits applied-but-invalid there. The
// promotion must replay it (keep it, validate it), never junk-fill it: an
// acked write survives its coordinator.
TEST(ReplicationTest, KillCoordinatorMidInvalidateReplaysAckedWrites) {
  uint64_t seed = ScenarioSeed(9100);
  Random rng(seed);
  const int n_writes = 2 + static_cast<int>(rng.Uniform(5));
  // Which write loses its VAL (1-based among the kValidate notifies).
  const uint64_t drop_nth = 1 + rng.Uniform(static_cast<uint64_t>(n_writes));

  ReplicatedCluster::Config config;
  config.heartbeats = true;
  config.lease_nanos = 60'000'000;
  config.monitor_interval_nanos = 10'000'000;
  ReplicatedCluster cluster(config);
  cluster.transport_.faults().DropNth(FaultSchedule::TypeIs(kValidate),
                                      drop_nth);

  ClientOptions copts;
  copts.retry.seed = seed;
  copts.retry.attempt_timeout = 200ms;
  copts.failover_attempts = 30;
  auto writer = cluster.NewClient("w", copts);

  std::map<LId, std::string> acked_at;
  for (int i = 0; i < n_writes; ++i) {
    std::string body = "acked-" + std::to_string(i);
    auto lid = writer->Append(Rec(body));
    ASSERT_TRUE(lid.ok()) << lid.status();
    acked_at[*lid] = body;
  }
  // The dropped VAL left exactly one position applied-but-invalid on the
  // replica. VALs are one-way and the replica applies them asynchronously,
  // so the last write's VAL can still be in flight when the appends return
  // — give it a bounded moment to drain before sampling.
  for (int spin = 0;
       cluster.backup_->maintainer().InvalidCount() > 1 && spin < 2000;
       ++spin) {
    std::this_thread::sleep_for(1ms);
  }
  ASSERT_EQ(cluster.backup_->maintainer().InvalidCount(), 1u);

  cluster.primary_->Stop();

  // Reads of every acked record must succeed: the first one trips the
  // suspect fast path (the failover — promotion + replay — runs inside it),
  // after which the promoted replica serves the full acked log.
  ClientOptions ropts;
  ropts.retry.seed = seed + 1;
  ropts.retry.attempt_timeout = 200ms;
  ropts.failover_attempts = 30;
  ropts.read_cache_bytes = 0;
  auto reader = cluster.NewClient("r", ropts);
  for (const auto& [lid, body] : acked_at) {
    auto rec = reader->Read(lid);
    ASSERT_TRUE(rec.ok()) << "acked lid " << lid
                          << " lost after replay: " << rec.status();
    EXPECT_EQ(rec->body, body) << "acked record replaced at lid " << lid;
    EXPECT_FALSE(IsJunkRecord(*rec))
        << "promotion junk-filled an acked write at lid " << lid;
  }
  EXPECT_EQ(cluster.controller_->controller().GetInfo().maintainers[0],
            kBackup);
  EXPECT_EQ(cluster.backup_->maintainer().InvalidCount(), 0u)
      << "promotion must leave no invalid positions behind";
  // Exactly once: each acked body appears exactly once in the survivor.
  std::multiset<std::string> stored;
  for (LId lid : cluster.backup_->maintainer().StoredLids()) {
    stored.insert(cluster.backup_->maintainer().Read(lid)->body);
  }
  for (const auto& [lid, body] : acked_at) {
    EXPECT_EQ(stored.count(body), 1u) << body;
  }
}

// Dead-replica eviction: when a replica dies mid-append, the coordinator's
// write parks (not acked), the suspect report evicts the dead peer under a
// bumped epoch, and the client's retry completes the write via replay —
// exactly once, no fencing of the healthy coordinator.
TEST(ReplicationTest, DeadReplicaIsEvictedAndParkedWriteReplays) {
  ReplicatedCluster::Config config;
  config.heartbeats = true;
  config.lease_nanos = 60'000'000;
  config.monitor_interval_nanos = 10'000'000;
  ReplicatedCluster cluster(config);

  ClientOptions copts;
  copts.retry.attempt_timeout = 200ms;
  copts.failover_attempts = 30;
  auto client = cluster.NewClient("a", copts);
  ASSERT_TRUE(client->Append(Rec("r0")).ok());

  cluster.backup_->Stop();  // the REPLICA dies, not the coordinator

  // The append parks on the first attempt (INV unreachable), the suspect
  // report evicts the dead replica, and the retry acks via replay.
  auto lid = client->Append(Rec("r1"));
  ASSERT_TRUE(lid.ok()) << lid.status();
  EXPECT_EQ(cluster.primary_->maintainer().Read(*lid)->body, "r1");
  EXPECT_FALSE(cluster.primary_->replica().fenced())
      << "a dead replica must not fence the coordinator";

  // Layout: coordinator unchanged, replica set empty, epoch bumped.
  ClusterInfo info = cluster.controller_->controller().GetInfo();
  EXPECT_EQ(info.maintainers[0], kPrimary);
  EXPECT_TRUE(info.replicas[0].empty());
  EXPECT_EQ(info.fence_epochs[0], 2u);
  EXPECT_EQ(cluster.primary_->replica().epoch(), 2u);
  EXPECT_EQ(cluster.primary_->maintainer().InvalidCount(), 0u);

  // Exactly once despite the park-and-retry.
  std::multiset<std::string> stored;
  for (LId l : cluster.primary_->maintainer().StoredLids()) {
    stored.insert(cluster.primary_->maintainer().Read(l)->body);
  }
  EXPECT_EQ(stored.count("r1"), 1u);
}

// ------------------------------------------------ completion-driven rounds

/// Outcome of one CallAsync, captured for tests that drive virtual time.
struct AsyncResult {
  std::atomic<bool> done{false};
  Result<std::string> result = Status::Aborted("pending");
  int64_t at_nanos = 0;  ///< virtual time of completion
};

/// Sends a kAppend through `probe` without blocking; `out` fills in when
/// the reply lands.
void AppendAsync(net::RpcEndpoint& probe, const std::string& client_id,
                 uint64_t seq, const std::string& body, const Clock& clock,
                 AsyncResult* out) {
  net::CallOptions options;
  options.timeout = 5s;
  probe.CallAsync(kPrimary, kAppend, AppendPayload(client_id, seq, Rec(body)),
                  options, [out, &clock](Result<std::string> result) {
                    out->result = std::move(result);
                    out->at_nanos = clock.NowNanos();
                    out->done.store(true);
                  });
}

/// Steps virtual time in `step` increments (draining the workers after
/// each) until every result is in or `limit` passes.
void AdvanceUntilDone(Executor& exec, std::vector<AsyncResult*> results,
                      int64_t step, int64_t limit) {
  exec.WaitIdle();
  for (int64_t elapsed = 0; elapsed < limit; elapsed += step) {
    bool all = true;
    for (AsyncResult* r : results) all = all && r->done.load();
    if (all) return;
    exec.AdvanceBy(step);
    exec.WaitIdle();
  }
}

/// The cacheable HL a read response piggybacks (DESIGN.md §11).
LId CacheableHlVia(net::RpcEndpoint& probe, Executor& exec, LId lid) {
  AsyncResult read;
  net::CallOptions options;
  options.timeout = 5s;
  probe.CallAsync(kPrimary, kRead, LidPayload(lid), options,
                  [&read](Result<std::string> result) {
                    read.result = std::move(result);
                    read.done.store(true);
                  });
  AdvanceUntilDone(exec, {&read}, 1'000'000, 10'000'000);
  EXPECT_TRUE(read.result.ok()) << read.result.status();
  if (!read.result.ok()) return kInvalidLId;
  BinaryReader r(*read.result);
  uint64_t epoch = 0;
  LId hl = 0;
  EXPECT_TRUE(r.GetU64(&epoch).ok());
  EXPECT_TRUE(r.GetU64(&hl).ok());
  return hl;
}

LId DecodeLidResponse(const Result<std::string>& response) {
  BinaryReader r(*response);
  LId lid = kInvalidLId;
  EXPECT_TRUE(r.GetU64(&lid).ok());
  return lid;
}

// Hermes acks when the LAST INV ack is in: with 5 ms each way to each of
// two replicas, an append acks after one round trip (10 ms virtual), not
// one per replica (20 ms) — and two clients' appends overlap instead of
// queueing behind each other's round.
TEST(ReplicationTest, InvRoundCostsOneRoundTripNotOnePerReplica) {
  ManualClock clock;
  Executor exec({.num_threads = 2, .name = "vt-inv", .manual_clock = &clock});
  {
    ReplicatedCluster::Config config;
    config.clock = &clock;
    config.executor = &exec;
    config.rf = 3;
    ReplicatedCluster cluster(config);
    constexpr int64_t kLink = 5'000'000;
    net::LinkOptions slow;
    slow.latency_nanos = kLink;
    // Coordinator <-> replicas only; clients reach the coordinator at once.
    cluster.transport_.SetLink(std::string(kPrimary) + "#repl", kBackup, slow);
    cluster.transport_.SetLink(kBackup, std::string(kPrimary) + "#repl", slow);
    net::RpcEndpoint probe_a(&cluster.transport_, "dc0/probe-a");
    net::RpcEndpoint probe_b(&cluster.transport_, "dc0/probe-b");
    ASSERT_TRUE(probe_a.Start().ok());
    ASSERT_TRUE(probe_b.Start().ok());

    AsyncResult one;
    int64_t t0 = clock.NowNanos();
    AppendAsync(probe_a, "dc0/probe-a", 1, "one", clock, &one);
    AdvanceUntilDone(exec, {&one}, 1'000'000, 100'000'000);
    ASSERT_TRUE(one.done.load());
    ASSERT_TRUE(one.result.ok()) << one.result.status();
    EXPECT_EQ(one.at_nanos - t0, 2 * kLink)
        << "one INV round = one round trip to the slowest replica";

    AsyncResult a, b;
    t0 = clock.NowNanos();
    AppendAsync(probe_a, "dc0/probe-a", 2, "a", clock, &a);
    AppendAsync(probe_b, "dc0/probe-b", 1, "b", clock, &b);
    AdvanceUntilDone(exec, {&a, &b}, 1'000'000, 100'000'000);
    ASSERT_TRUE(a.result.ok()) << a.result.status();
    ASSERT_TRUE(b.result.ok()) << b.result.status();
    EXPECT_EQ(a.at_nanos - t0, 2 * kLink);
    EXPECT_EQ(b.at_nanos - t0, 2 * kLink);
    EXPECT_LT(std::abs(a.at_nanos - b.at_nanos), 2 * kLink)
        << "the second client's round must overlap the first's";
    EXPECT_NE(DecodeLidResponse(a.result), DecodeLidResponse(b.result));
    EXPECT_EQ(cluster.backup2_->maintainer().count(), 3u);

    probe_a.Stop();
    probe_b.Stop();
    cluster.primary_->Stop();
    cluster.backup_->Stop();
    cluster.backup2_->Stop();
    cluster.controller_->Stop();
  }
  exec.Shutdown();
}

// Overlapping rounds and the contiguous floor: round A's INV is held back,
// round B (a higher LId) acks first. The cacheable HL must not pass A while
// A is open, and passes both once A completes.
TEST(ReplicationTest, AckedRoundAboveOpenRoundDoesNotLiftTheFloor) {
  ManualClock clock;
  Executor exec({.num_threads = 2, .name = "vt-floor", .manual_clock = &clock});
  {
    ReplicatedCluster::Config config;
    config.clock = &clock;
    config.executor = &exec;
    ReplicatedCluster cluster(config);
    net::RpcEndpoint probe(&cluster.transport_, "dc0/probe");
    ASSERT_TRUE(probe.Start().ok());
    constexpr int64_t kHold = 50'000'000;
    cluster.transport_.faults().DelayNth(
        FaultSchedule::Both(FaultSchedule::TypeIs(kInvalidate),
                            FaultSchedule::ToPrefix(kBackup)),
        /*nth=*/1, kHold);

    AsyncResult a, b;
    AppendAsync(probe, "dc0/probe", 1, "a", clock, &a);
    exec.WaitIdle();
    AppendAsync(probe, "dc0/probe", 2, "b", clock, &b);
    AdvanceUntilDone(exec, {&b}, 1'000'000, 10'000'000);
    ASSERT_TRUE(b.done.load()) << "round B must not wait behind round A";
    ASSERT_TRUE(b.result.ok()) << b.result.status();
    EXPECT_FALSE(a.done.load());
    const LId lid_a = cluster.primary_->maintainer().FirstInvalid();
    const LId lid_b = DecodeLidResponse(b.result);
    ASSERT_LT(lid_a, lid_b);
    EXPECT_LE(CacheableHlVia(probe, exec, lid_b), lid_a)
        << "an acked round above an open one lifted the cacheable HL";

    AdvanceUntilDone(exec, {&a}, 1'000'000, 2 * kHold);
    ASSERT_TRUE(a.result.ok()) << a.result.status();
    EXPECT_EQ(DecodeLidResponse(a.result), lid_a);
    EXPECT_GT(CacheableHlVia(probe, exec, lid_b), lid_b);
    EXPECT_EQ(cluster.primary_->maintainer().InvalidCount(), 0u);

    probe.Stop();
    cluster.primary_->Stop();
    cluster.backup_->Stop();
    cluster.controller_->Stop();
  }
  exec.Shutdown();
}

// A retry of a token whose round is still open joins that round: the same
// LId comes back to both, and the record lands once.
TEST(ReplicationTest, RetryWhileRoundOpenReturnsSameLidOnce) {
  ManualClock clock;
  Executor exec({.num_threads = 2, .name = "vt-retry", .manual_clock = &clock});
  {
    ReplicatedCluster::Config config;
    config.clock = &clock;
    config.executor = &exec;
    ReplicatedCluster cluster(config);
    net::RpcEndpoint probe(&cluster.transport_, "dc0/probe");
    ASSERT_TRUE(probe.Start().ok());
    constexpr int64_t kHold = 50'000'000;
    cluster.transport_.faults().DelayNth(FaultSchedule::TypeIs(kInvalidate),
                                         /*nth=*/1, kHold);

    AsyncResult first, retry;
    AppendAsync(probe, "dc0/probe", 7, "once", clock, &first);
    exec.WaitIdle();
    AppendAsync(probe, "dc0/probe", 7, "once", clock, &retry);
    exec.WaitIdle();
    EXPECT_FALSE(first.done.load());
    EXPECT_FALSE(retry.done.load()) << "the retry must wait for the open round";
    AdvanceUntilDone(exec, {&first, &retry}, 1'000'000, 2 * kHold);
    ASSERT_TRUE(first.result.ok()) << first.result.status();
    ASSERT_TRUE(retry.result.ok()) << retry.result.status();
    EXPECT_EQ(*retry.result, *first.result);
    EXPECT_EQ(cluster.primary_->maintainer().count(), 1u);
    EXPECT_EQ(cluster.backup_->maintainer().count(), 1u);

    probe.Stop();
    cluster.primary_->Stop();
    cluster.backup_->Stop();
    cluster.controller_->Stop();
  }
  exec.Shutdown();
}

// Mixed outcomes in one round: one peer unreachable, the other rejecting
// our epoch. The rejection wins — the coordinator fences instead of parking
// the write behind a suspect report.
TEST(ReplicationTest, EpochRejectionFencesEvenWithAnUnreachablePeer) {
  ReplicatedCluster::Config config;
  config.rf = 3;
  ReplicatedCluster cluster(config);
  cluster.backup_->Stop();  // first peer: unreachable
  ASSERT_TRUE(cluster.backup2_->replica().AcceptRemoteEpoch(2).ok());

  net::RpcEndpoint probe(&cluster.transport_, "dc0/probe");
  ASSERT_TRUE(probe.Start().ok());
  auto result = probe.Call(kPrimary, kAppend,
                           AppendPayload("dc0/probe", 1, Rec("split")), 1s);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kUnavailable);
  EXPECT_NE(result.status().message().find("NOT_COORDINATOR"),
            std::string::npos)
      << result.status();
  EXPECT_TRUE(cluster.primary_->replica().fenced());
  auto parked = cluster.primary_->dedup().Lookup("dc0/probe", 1);
  ASSERT_TRUE(parked.ok());
  EXPECT_FALSE(parked->has_value()) << "a fenced round must not park";
}

// The "no parked worker" gate: steady RF=3 appends from two clients never
// block an executor worker on the network — the INV round completes from
// its last ack, not from a waiting handler.
TEST(ReplicationTest, SteadyAppendsNeverParkAWorker) {
  ReplicatedCluster::Config config;
  config.rf = 3;
  ReplicatedCluster cluster(config);
  auto a = cluster.NewClient("a");
  auto b = cluster.NewClient("b");
  metrics::Counter* waits = metrics::Registry::Default().GetCounter(
      "net.rpc.blocking_waits_on_worker");
  const uint64_t before = waits->Value();
  std::atomic<int> acked{0};
  auto run = [&](FLStoreClient* client, const std::string& name) {
    for (int i = 0; i < 500; ++i) {
      if (client->Append(Rec(name + std::to_string(i))).ok()) ++acked;
    }
  };
  std::thread ta(run, a.get(), "a");
  std::thread tb(run, b.get(), "b");
  ta.join();
  tb.join();
  EXPECT_EQ(acked.load(), 1000);
  EXPECT_EQ(waits->Value() - before, 0u);
  EXPECT_EQ(cluster.backup2_->maintainer().count(), 1000u);
}

// The hand-off gate: on an idle RF=3 stripe, a client thread's appends and
// reads run to completion on that thread — kAppend, both INVs and acks,
// both VALs, kRead — and no data-path request waits for an executor
// worker.
TEST(ReplicationTest, DataPathRequestsRunOnTheCallersThread) {
  ReplicatedCluster::Config config;
  config.rf = 3;
  ReplicatedCluster cluster(config);
  ClientOptions copts;
  copts.read_cache_bytes = 0;  // every read is an RPC
  auto client = cluster.NewClient("a", copts);
  metrics::Counter* queued = metrics::Registry::Default().GetCounter(
      "net.transport.requests_queued");
  metrics::Counter* in_line = metrics::Registry::Default().GetCounter(
      "net.transport.requests_inline");
  constexpr int kOps = 200;
  const uint64_t queued_before = queued->Value();
  const uint64_t inline_before = in_line->Value();
  std::vector<LId> lids;
  for (int i = 0; i < kOps; ++i) {
    auto lid = client->Append(Rec("r" + std::to_string(i)));
    ASSERT_TRUE(lid.ok()) << lid.status();
    lids.push_back(*lid);
  }
  for (int i = 0; i < kOps; ++i) {
    auto record = client->Read(lids[i]);
    ASSERT_TRUE(record.ok()) << record.status();
    EXPECT_EQ(record->body, "r" + std::to_string(i));
  }
  const uint64_t queued_requests = queued->Value() - queued_before;
  EXPECT_EQ(queued_requests, 0u)
      << static_cast<double>(queued_requests) / (2 * kOps)
      << " queued requests per op";
  // kAppend + 2 INVs + 2 VALs per append, one kRead per read.
  EXPECT_GE(in_line->Value() - inline_before, 6u * kOps);
  EXPECT_EQ(cluster.backup2_->maintainer().count(), static_cast<size_t>(kOps));
}

// The convoy gate: two clients, each on its own thread, append and read
// concurrently on one RF=3 stripe. Every request runs on the thread that
// sent it, beside the other client's requests to the same node, so neither
// thread runs the other's requests (`requests_migrated` names what the
// transport no longer does at all), and none waits for a worker
// (`requests_queued`). The flight recorder shows the same from the
// threads: every landing of a client's record (coordinator and both
// replicas) is recorded on that client's thread.
TEST(ReplicationTest, ConcurrentClientsEachRunTheirOwnRequests) {
  ReplicatedCluster::Config config;
  config.rf = 3;
  ReplicatedCluster cluster(config);
  ClientOptions copts;
  copts.read_cache_bytes = 0;  // every read is an RPC
  std::unique_ptr<FLStoreClient> clients[2] = {cluster.NewClient("a", copts),
                                               cluster.NewClient("b", copts)};
  metrics::Counter* queued = metrics::Registry::Default().GetCounter(
      "net.transport.requests_queued");
  metrics::Counter* migrated = metrics::Registry::Default().GetCounter(
      "net.transport.requests_migrated");
  constexpr int kOps = 150;
  const uint64_t queued_before = queued->Value();
  const uint64_t migrated_before = migrated->Value();
  // The flight recorder's default clock.
  const int64_t start_nanos =
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count();
  std::vector<LId> lids[2];
  std::atomic<int> failures{0};
  std::atomic<int> ready{0};
  auto run = [&](int c) {
    const std::string name = c == 0 ? "a" : "b";
    ready.fetch_add(1);
    while (ready.load() < 2) std::this_thread::yield();
    for (int i = 0; i < kOps; ++i) {
      auto lid = clients[c]->Append(Rec(name + std::to_string(i)));
      if (!lid.ok()) {
        ++failures;
        return;
      }
      lids[c].push_back(*lid);
      const int back = i / 2;
      auto record = clients[c]->Read(lids[c][back]);
      if (!record.ok() || record->body != name + std::to_string(back)) {
        ++failures;
      }
    }
  };
  std::thread ta(run, 0);
  std::thread tb(run, 1);
  ta.join();
  tb.join();
  ASSERT_EQ(failures.load(), 0);
  EXPECT_EQ(queued->Value() - queued_before, 0u);
  EXPECT_EQ(migrated->Value() - migrated_before, 0u);

  for (int c = 0; c < 2; ++c) {
    ASSERT_EQ(lids[c].size(), static_cast<size_t>(kOps));
    for (int i = 0; i < kOps; ++i) {
      auto record = clients[c]->Read(lids[c][i]);
      ASSERT_TRUE(record.ok()) << record.status();
      EXPECT_EQ(record->body, (c == 0 ? "a" : "b") + std::to_string(i));
    }
  }
  EXPECT_EQ(cluster.backup2_->maintainer().count(), 2u * kOps);

#if CHARIOTS_FLIGHTREC_ENABLED
  // Thread rings that recorded a landing of each client's records.
  flightrec::DecodedDump dump;
  ASSERT_TRUE(flightrec::Recorder::Decode(
                  flightrec::Recorder::Default().Dump(), &dump)
                  .ok());
  const std::set<LId> owned[2] = {{lids[0].begin(), lids[0].end()},
                                  {lids[1].begin(), lids[1].end()}};
  std::set<uint32_t> rings[2];
  for (const flightrec::Event& e : dump.events) {
    if (e.type != flightrec::EventType::kAppend || e.nanos < start_nanos) {
      continue;
    }
    for (int c = 0; c < 2; ++c) {
      if (owned[c].count(e.a) != 0) rings[c].insert(e.ring);
    }
  }
  ASSERT_EQ(rings[0].size(), 1u) << "client a's records landed on "
                                 << rings[0].size() << " threads";
  ASSERT_EQ(rings[1].size(), 1u) << "client b's records landed on "
                                 << rings[1].size() << " threads";
  EXPECT_NE(*rings[0].begin(), *rings[1].begin());
#endif
}

// A retried append whose token the dedup window holds replays the parked
// write and replies from the replay round's completion: the handler
// returns while the round is open, and no thread blocks on it. (A blocking
// replay would park a worker until virtual time advanced, and the
// WaitIdle below would never return.)
TEST(ReplicationTest, DedupRetryReplaysParkedWriteWithoutWaiting) {
  ManualClock clock;
  Executor exec(
      {.num_threads = 2, .name = "vt-replay", .manual_clock = &clock});
  {
    ReplicatedCluster::Config config;
    config.clock = &clock;
    config.executor = &exec;
    config.rf = 3;
    ReplicatedCluster cluster(config);
    net::RpcEndpoint probe(&cluster.transport_, "dc0/probe");
    ASSERT_TRUE(probe.Start().ok());

    // Park: one replica is down, so the round fails and the write stays
    // applied-but-invalid with its dedup entry recorded.
    cluster.backup_->Stop();
    AsyncResult parked;
    AppendAsync(probe, "dc0/probe", 1, "parked", clock, &parked);
    AdvanceUntilDone(exec, {&parked}, 1'000'000, 10'000'000);
    ASSERT_TRUE(parked.done.load());
    ASSERT_FALSE(parked.result.ok());
    ASSERT_EQ(cluster.primary_->maintainer().InvalidCount(), 1u);
    const LId lid = cluster.primary_->maintainer().FirstInvalid();

    // Reconfigure under a new epoch while the replica is still down: its
    // replay fails too, and the write stays parked.
    BinaryWriter w;
    w.PutU64(1);  // ctrl_epoch
    w.PutU64(2);  // fencing epoch
    w.PutU32(2);
    w.PutBytes(kBackup);
    w.PutBytes(kBackup2);
    AsyncResult reconfigured;
    net::CallOptions options;
    options.timeout = 5s;
    probe.CallAsync(kPrimary, kReconfigure, std::move(w).data(), options,
                    [&reconfigured](Result<std::string> result) {
                      reconfigured.result = std::move(result);
                      reconfigured.done.store(true);
                    });
    AdvanceUntilDone(exec, {&reconfigured}, 1'000'000, 10'000'000);
    ASSERT_TRUE(reconfigured.result.ok()) << reconfigured.result.status();
    ASSERT_EQ(cluster.primary_->replica().epoch(), 2u);
    ASSERT_EQ(cluster.primary_->maintainer().InvalidCount(), 1u);

    // The replica comes back behind a slow link; retry the same token.
    ASSERT_TRUE(cluster.backup_->Restart().ok());
    constexpr int64_t kLink = 5'000'000;
    net::LinkOptions slow;
    slow.latency_nanos = kLink;
    cluster.transport_.SetLink(std::string(kPrimary) + "#repl",
                               "dc0/maintainer/0-", slow);
    metrics::Counter* waits = metrics::Registry::Default().GetCounter(
        "chariots.flstore.repl.blocking_waits");
    const uint64_t waits_before = waits->Value();
    AsyncResult retry;
    const int64_t t0 = clock.NowNanos();
    AppendAsync(probe, "dc0/probe", 1, "parked", clock, &retry);
    exec.WaitIdle();
    EXPECT_FALSE(retry.done.load()) << "the replay round is still open";
    AdvanceUntilDone(exec, {&retry}, 1'000'000, 100'000'000);
    ASSERT_TRUE(retry.result.ok()) << retry.result.status();
    EXPECT_EQ(DecodeLidResponse(retry.result), lid);
    EXPECT_EQ(retry.at_nanos - t0, kLink)
        << "one INV leg; acks are not delayed";
    EXPECT_EQ(waits->Value(), waits_before);
    EXPECT_EQ(cluster.primary_->maintainer().InvalidCount(), 0u);
    EXPECT_EQ(cluster.primary_->maintainer().count(), 1u);
    EXPECT_EQ(cluster.backup_->maintainer().Read(lid)->body, "parked");

    probe.Stop();
    cluster.primary_->Stop();
    cluster.backup_->Stop();
    cluster.backup2_->Stop();
    cluster.controller_->Stop();
  }
  exec.Shutdown();
}

// Crash matrix (tools/run_crash_matrix.sh): the coordinator dies with two
// clients' rounds open at once. Per seed, each round is held either before
// its INV reaches the replica or after (the replica applied it, its ack is
// late). Failover must lose no acked record and land each write exactly
// once: a replayed write answers its retry from the mirrored dedup entry,
// a never-delivered one is appended fresh.
TEST(ReplicationTest, KillCoordinatorWithOverlappingRoundsReplaysExactlyOnce) {
  uint64_t seed = ScenarioSeed(9200);
  Random rng(seed);
  const int n_pre = 1 + static_cast<int>(rng.Uniform(4));
  // 0: both INVs held; 1: both acks held; 2: one of each.
  const int mode = static_cast<int>(rng.Uniform(3));

  ReplicatedCluster::Config config;
  config.heartbeats = true;
  config.lease_nanos = 60'000'000;
  config.monitor_interval_nanos = 10'000'000;
  ReplicatedCluster cluster(config);

  ClientOptions copts;
  copts.retry.seed = seed;
  copts.retry.attempt_timeout = 200ms;
  copts.failover_attempts = 30;
  auto w1 = cluster.NewClient("w1", copts);
  copts.retry.seed = seed + 1;
  auto w2 = cluster.NewClient("w2", copts);

  std::map<LId, std::string> acked_at;
  for (int i = 0; i < n_pre; ++i) {
    std::string body = "pre-" + std::to_string(i);
    auto lid = w1->Append(Rec(body));
    ASSERT_TRUE(lid.ok()) << lid.status();
    acked_at[*lid] = body;
  }

  // Rules count only messages sent after they are installed, so the next
  // matching message is the first open round's.
  constexpr int64_t kHold = 2'000'000'000;  // outlives the failover
  constexpr uint64_t first_open = 1;
  auto inv_to_replica = FaultSchedule::Both(FaultSchedule::TypeIs(kInvalidate),
                                            FaultSchedule::ToPrefix(kBackup));
  auto inv_ack = [](const net::Message& m) {
    return m.type == kInvalidate && m.is_response;
  };
  size_t applied_on_replica = 0;  // open rounds whose INV got through
  if (mode == 0) {
    cluster.transport_.faults().DelayNth(inv_to_replica, first_open, kHold, 2);
  } else if (mode == 1) {
    cluster.transport_.faults().DelayNth(inv_ack, first_open, kHold, 2);
    applied_on_replica = 2;
  } else {
    cluster.transport_.faults().DelayNth(inv_to_replica, first_open, kHold);
    cluster.transport_.faults().DelayNth(inv_ack, first_open, kHold);
    applied_on_replica = 1;
  }

  std::mutex mu;
  Result<LId> r1 = Status::Aborted("pending"), r2 = Status::Aborted("pending");
  std::thread t1([&] {
    auto lid = w1->Append(Rec("open-1"));
    std::lock_guard<std::mutex> lock(mu);
    r1 = lid;
  });
  std::thread t2([&] {
    auto lid = w2->Append(Rec("open-2"));
    std::lock_guard<std::mutex> lock(mu);
    r2 = lid;
  });
  // Both rounds open: two landed-invalid positions on the coordinator, and
  // the replica holding the ones whose INV was let through (after the pre
  // writes' VALs drain).
  auto settled = [&] {
    return cluster.primary_->maintainer().InvalidCount() == 2 &&
           cluster.backup_->maintainer().InvalidCount() == applied_on_replica;
  };
  for (int spin = 0; !settled() && spin < 2000; ++spin) {
    std::this_thread::sleep_for(1ms);
  }
  const bool open = settled();
  EXPECT_TRUE(open) << "coordinator invalid "
                    << cluster.primary_->maintainer().InvalidCount()
                    << ", replica invalid "
                    << cluster.backup_->maintainer().InvalidCount();
  cluster.primary_->Stop();
  t1.join();
  t2.join();
  if (!open) return;

  ASSERT_TRUE(r1.ok()) << r1.status();
  ASSERT_TRUE(r2.ok()) << r2.status();
  acked_at[*r1] = "open-1";
  acked_at[*r2] = "open-2";
  EXPECT_EQ(cluster.controller_->controller().GetInfo().maintainers[0],
            kBackup);

  LogMaintainer& survivor = cluster.backup_->maintainer();
  std::multiset<std::string> stored;
  for (LId lid : survivor.StoredLids()) stored.insert(survivor.Read(lid)->body);
  for (const auto& [lid, body] : acked_at) {
    auto rec = survivor.Read(lid);
    ASSERT_TRUE(rec.ok()) << "acked lid " << lid << " lost: " << rec.status();
    EXPECT_EQ(rec->body, body) << "acked record replaced at lid " << lid;
    EXPECT_EQ(stored.count(body), 1u) << body << " must land exactly once";
  }
  EXPECT_EQ(survivor.InvalidCount(), 0u);
  // Each write the replica had applied was replayed, and its retry was
  // answered from the dedup entry its INV mirrored.
  EXPECT_GE(cluster.backup_->dedup().hits(), applied_on_replica);
}


// ------------------------------------- inline handlers side by side (§12)

/// Runs `body(round, 0)` and `body(round, 1)` on two threads, `rounds`
/// times, starting both sides of a round together. The threads live for
/// every round and wait for each other by spinning, so they keep a core
/// each instead of handing one core back and forth.
void RaceTwo(int rounds, const std::function<void(int, int)>& body) {
  std::atomic<int> arrived{0};
  auto run = [&](int side) {
    for (int round = 0; round < rounds; ++round) {
      arrived.fetch_add(1);
      while (arrived.load() < 2 * (round + 1)) {
      }
      body(round, side);
    }
  };
  std::thread a(run, 0);
  std::thread b(run, 1);
  a.join();
  b.join();
}

/// Two started probe endpoints, "dc0/<name>0" and "dc0/<name>1".
std::vector<std::unique_ptr<net::RpcEndpoint>> TwoProbes(
    ReplicatedCluster& cluster, const std::string& name) {
  std::vector<std::unique_ptr<net::RpcEndpoint>> probes;
  for (int i = 0; i < 2; ++i) {
    probes.push_back(std::make_unique<net::RpcEndpoint>(
        &cluster.transport_, "dc0/" + name + std::to_string(i)));
    EXPECT_TRUE(probes.back()->Start().ok());
  }
  return probes;
}

// Two copies of one client write (a retry racing its original) run side by
// side on the coordinator: the first to claim the (client_id, seq) token
// lands the record and the other joins its reply. Both get the same LId,
// and every member stores each record once.
TEST(ReplicationTest, ConcurrentAppendsWithOneTokenLandOnce) {
  ReplicatedCluster::Config config;
  config.rf = 3;
  ReplicatedCluster cluster(config);
  auto probes = TwoProbes(cluster, "dup");
  constexpr int kWrites = 100;
  std::vector<Result<std::string>> results[2];
  for (auto& side : results) side.assign(kWrites, Status::Aborted("unsent"));
  RaceTwo(kWrites, [&](int round, int side) {
    results[side][round] = probes[side]->Call(
        kPrimary, kAppend,
        AppendPayload("dc0/dup", round + 1, Rec("w" + std::to_string(round))),
        5s);
  });
  for (int round = 0; round < kWrites; ++round) {
    ASSERT_TRUE(results[0][round].ok()) << results[0][round].status();
    ASSERT_TRUE(results[1][round].ok()) << results[1][round].status();
    EXPECT_EQ(DecodeLidResponse(results[0][round]),
              DecodeLidResponse(results[1][round]))
        << "write " << round + 1 << " landed twice";
  }
  EXPECT_EQ(cluster.primary_->maintainer().count(), kWrites);
  EXPECT_EQ(cluster.backup_->maintainer().count(), kWrites);
  EXPECT_EQ(cluster.backup2_->maintainer().count(), kWrites);
}

// A replicated position is unreadable until its round validates it, on the
// coordinator and on a replica alike, also while its landing runs beside
// the read. Every INV to one replica is dropped, so no round here ever
// validates: readers polling each position while it lands must never get
// its bytes.
TEST(ReplicationTest, ReadersNeverSeeAPositionBeforeItsRoundValidatesIt) {
  ReplicatedCluster::Config config;
  config.rf = 3;
  ReplicatedCluster cluster(config);
  cluster.transport_.faults().DropWithProbability(
      [](const net::Message& m) {
        return !m.is_response && m.type == kInvalidate && m.to == kBackup;
      },
      1.0);
  auto readers = TwoProbes(cluster, "reader");
  net::RpcEndpoint writer(&cluster.transport_, "dc0/writer");
  ASSERT_TRUE(writer.Start().ok());
  constexpr int kWrites = 100;
  // Reader r polls `target` on the coordinator (r = 0) or a replica (r = 1)
  // until `stop`, counting its polls of each target in `polls[r]`.
  std::atomic<LId> target{0};
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> polls[2] = {0, 0};
  std::atomic<int> served{0};
  std::vector<std::thread> pollers;
  for (int r = 0; r < 2; ++r) {
    pollers.emplace_back([&, r] {
      const net::NodeId node = r == 0 ? kPrimary : kBackup2;
      while (!stop.load()) {
        const LId lid = target.load();
        if (readers[r]->Call(node, kRead, LidPayload(lid), 5s).ok()) ++served;
        polls[r].fetch_add(1);
      }
    });
  }
  net::CallOptions options;
  options.timeout = 30s;
  for (int i = 0; i < kWrites; ++i) {
    const LId lid = static_cast<LId>(i);  // one stripe: positions in order
    target = lid;
    // Both readers are polling the position before it lands.
    const uint64_t seen[2] = {polls[0].load(), polls[1].load()};
    while (polls[0].load() < seen[0] + 2 || polls[1].load() < seen[1] + 2) {
      std::this_thread::yield();
    }
    // The round never completes here; its reply is of no interest.
    writer.CallAsync(kPrimary, kAppend,
                     AppendPayload("dc0/writer", i + 1, Rec("w")), options,
                     [](Result<std::string>) {});
    while (cluster.primary_->maintainer().count() <= lid ||
           cluster.backup2_->maintainer().count() <= lid) {
      std::this_thread::yield();
    }
  }
  stop = true;
  for (auto& poller : pollers) poller.join();
  EXPECT_EQ(served.load(), 0) << "a position was read before validation";
  EXPECT_TRUE(cluster.primary_->maintainer().IsInvalid(kWrites - 1));
  EXPECT_TRUE(cluster.backup2_->maintainer().IsInvalid(kWrites - 1));
}

// The batched and gap-safe reads follow the same rule as kRead: a position
// whose landing runs beside the read is never served before its round
// validates it. As above, no round here ever validates; four readers poll
// kReadRange and kReadCommitted on the coordinator and on a replica.
TEST(ReplicationTest, RangeAndCommittedReadsNeverSeeAnUnvalidatedPosition) {
  ReplicatedCluster::Config config;
  config.rf = 3;
  ReplicatedCluster cluster(config);
  cluster.transport_.faults().DropWithProbability(
      [](const net::Message& m) {
        return !m.is_response && m.type == kInvalidate && m.to == kBackup;
      },
      1.0);
  constexpr int kReaders = 4;
  std::vector<std::unique_ptr<net::RpcEndpoint>> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.push_back(std::make_unique<net::RpcEndpoint>(
        &cluster.transport_, "dc0/reader" + std::to_string(r)));
    ASSERT_TRUE(readers.back()->Start().ok());
  }
  net::RpcEndpoint writer(&cluster.transport_, "dc0/writer");
  ASSERT_TRUE(writer.Start().ok());
  constexpr int kWrites = 100;
  std::atomic<LId> target{0};
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> polls[kReaders] = {0, 0, 0, 0};
  std::atomic<int> served{0};
  std::vector<std::thread> pollers;
  for (int r = 0; r < kReaders; ++r) {
    pollers.emplace_back([&, r] {
      // Reader r: kReadRange (r < 2) or kReadCommitted, on the coordinator
      // (even r) or a replica.
      const net::NodeId node = r % 2 == 0 ? kPrimary : kBackup2;
      while (!stop.load()) {
        const LId lid = target.load();
        if (r < 2) {
          BinaryWriter w;
          w.PutU32(1);
          w.PutU64(lid);
          Result<std::string> got =
              readers[r]->Call(node, kReadRange, std::move(w).data(), 5s);
          if (got.ok()) {
            BinaryReader rd(*got);
            uint64_t epoch = 0, hl = 0, at = 0;
            uint32_t n = 0;
            uint8_t found = 0;
            if (rd.GetU64(&epoch).ok() && rd.GetU64(&hl).ok() &&
                rd.GetU32(&n).ok() && rd.GetU64(&at).ok() &&
                rd.GetU8(&found).ok() && found == 1) {
              ++served;
            }
          }
        } else if (readers[r]
                       ->Call(node, kReadCommitted, LidPayload(lid), 5s)
                       .ok()) {
          ++served;
        }
        polls[r].fetch_add(1);
      }
    });
  }
  net::CallOptions options;
  options.timeout = 30s;
  for (int i = 0; i < kWrites; ++i) {
    const LId lid = static_cast<LId>(i);  // one stripe: positions in order
    target = lid;
    // Every reader is polling the position before it lands.
    uint64_t seen[kReaders];
    for (int r = 0; r < kReaders; ++r) seen[r] = polls[r].load();
    for (int r = 0; r < kReaders; ++r) {
      while (polls[r].load() < seen[r] + 2) std::this_thread::yield();
    }
    writer.CallAsync(kPrimary, kAppend,
                     AppendPayload("dc0/writer", i + 1, Rec("w")), options,
                     [](Result<std::string>) {});
    while (cluster.primary_->maintainer().count() <= lid ||
           cluster.backup2_->maintainer().count() <= lid) {
      std::this_thread::yield();
    }
  }
  stop = true;
  for (auto& poller : pollers) poller.join();
  EXPECT_EQ(served.load(), 0) << "a position was read before validation";
}

// A stale kValidate racing the replica's adoption of a newer epoch
// validates nothing: the position the newer epoch's INV re-invalidates stays
// invalid whichever of the two acts first. Each VAL lists a run of other
// invalid positions ahead of the raced one, and the replay is sent once
// the VAL has passed its epoch check and begun validating that run.
TEST(ReplicationTest, StaleValidateRacingAnEpochAdoptionValidatesNothing) {
  ReplicatedCluster cluster;
  auto probes = TwoProbes(cluster, "coord");
  constexpr int kRounds = 20;
  constexpr LId kRun = 2'000;
  constexpr LId kFiller = 1'000'000;  // round i's run starts at kFiller + i*kRun
  auto entry = [](LId lid) {
    return ReplicatedEntry{lid, EncodeLogRecord(Rec(std::to_string(lid)))};
  };
  // Every position lands invalid at the replica's first epoch.
  InvalidateRequest landing;
  landing.epoch = 1;
  for (int i = 0; i < kRounds; ++i) {
    landing.entries.push_back(entry(i));
    for (LId lid = kFiller + i * kRun; lid < kFiller + (i + 1) * kRun; ++lid) {
      landing.entries.push_back(entry(lid));
    }
  }
  ASSERT_TRUE(probes[0]
                  ->Call(kBackup, kInvalidate,
                         EncodeInvalidateRequest(landing), 30s)
                  .ok());
  const LogMaintainer& replica = cluster.backup_->maintainer();
  // Round i: the replica is at epoch i + 1. A VAL of position i at that
  // epoch races a replay of it at epoch i + 2.
  RaceTwo(kRounds, [&](int i, int side) {
    const uint64_t epoch = static_cast<uint64_t>(i) + 1;
    const LId run = kFiller + i * kRun;
    if (side == 0) {
      ValidateNotice stale;
      stale.epoch = epoch;
      for (LId lid = run; lid < run + kRun; ++lid) stale.lids.push_back(lid);
      stale.lids.push_back(static_cast<LId>(i));
      stale.floor = static_cast<LId>(i) + 1;
      EXPECT_TRUE(probes[0]
                      ->Notify(kBackup, kValidate, EncodeValidateNotice(stale))
                      .ok());
    } else {
      // Polls with a pause: a reader spinning on the maintainer's lock
      // could keep the VAL's writes out.
      while (replica.IsInvalid(run)) std::this_thread::sleep_for(20us);
      InvalidateRequest replay;
      replay.epoch = epoch + 1;
      replay.entries.push_back(entry(i));
      EXPECT_TRUE(probes[1]
                      ->Call(kBackup, kInvalidate,
                             EncodeInvalidateRequest(replay), 5s)
                      .ok());
    }
  });
  for (int i = 0; i < kRounds; ++i) {
    EXPECT_TRUE(replica.IsInvalid(i))
        << "a stale VAL validated " << i << " after epoch " << i + 2;
  }
  EXPECT_EQ(cluster.backup_->replica().epoch(),
            static_cast<uint64_t>(kRounds) + 1);
}

}  // namespace
}  // namespace chariots::flstore
