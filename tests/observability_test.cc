// Observability tests (ISSUE 9): the always-on flight recorder (ring wrap /
// drop accounting, dump round-trip, damage rejection), the health watchdog
// (all four probe kinds, trip-tick debounce, breach-hook rate limiting,
// executor-timer ticking in virtual time), parent-linked trace spans
// (span-tree wire round-trip and critical-path attribution across two
// datacenters), and the end-to-end drill the issue demands: a SlowNodeWindow
// on a replica trips the replication-round SLO within two watchdog ticks,
// the kHealth report names the slow stripe, and the breach snapshot served
// by kFlightRec decodes and covers the breach window — all with ZERO real
// sleeps (virtual clock + AdvanceBy).

#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "common/executor.h"
#include "common/flight_recorder.h"
#include "common/metrics.h"
#include "common/trace.h"
#include "common/watchdog.h"
#include "flstore/client.h"
#include "flstore/service.h"
#include "net/fault_schedule.h"
#include "net/inproc_transport.h"
#include "net/metrics_http.h"
#include "net/rpc.h"
#include "storage/log_store.h"

namespace chariots::flstore {
namespace {

using namespace std::chrono_literals;

/// Watchdog options with just the node label set (the common unit-test
/// shape; designated initializers would warn on the untouched hook field).
Watchdog::Options NodeOpts(const char* node) {
  Watchdog::Options opts;
  opts.node = node;
  return opts;
}

// ------------------------------------------------------- watchdog probes

TEST(WatchdogTest, ProgressProbeDetectsStallWithinTripTicks) {
  Watchdog wd(NodeOpts("test/node"));
  std::atomic<uint64_t> counter{0};
  std::atomic<bool> active{true};
  wd.AddProgressProbe(
      "test/node.worker", [&] { return counter.load(); },
      [&] { return active.load(); });

  counter = 1;
  EXPECT_TRUE(wd.TickOnce().healthy);  // baseline tick
  counter = 2;
  EXPECT_TRUE(wd.TickOnce().healthy);  // advancing
  // Stall: the first bad tick is debounced, the second reports.
  EXPECT_TRUE(wd.TickOnce().healthy);
  HealthReport report = wd.TickOnce();
  EXPECT_FALSE(report.healthy);
  ASSERT_EQ(report.probes.size(), 1u);
  EXPECT_TRUE(report.probes[0].breached);
  EXPECT_EQ(report.probes[0].kind, "progress");
  EXPECT_EQ(report.probes[0].name, "test/node.worker");
  EXPECT_GE(wd.breaches(), 1u);

  // An inactive subsystem may stall freely.
  active = false;
  EXPECT_TRUE(wd.TickOnce().healthy);
  // Progress resumes: healthy, and the trip counter reset.
  active = true;
  counter = 3;
  EXPECT_TRUE(wd.TickOnce().healthy);
}

TEST(WatchdogTest, QueueProbeFiresOnSaturation) {
  Watchdog wd(NodeOpts("test/node"));
  std::atomic<uint64_t> depth{0};
  wd.AddQueueProbe(
      "test/node.inbox", [&] { return depth.load(); }, 10, 0.9);
  EXPECT_TRUE(wd.TickOnce().healthy);
  depth = 9;  // exactly the 90% fill threshold
  EXPECT_TRUE(wd.TickOnce().healthy);   // debounced
  EXPECT_FALSE(wd.TickOnce().healthy);  // two consecutive -> breach
  depth = 3;
  EXPECT_TRUE(wd.TickOnce().healthy);
}

TEST(WatchdogTest, LatencyProbeUsesWindowedMeanAndIgnoresEmptyTicks) {
  Watchdog wd(NodeOpts("test/node"));
  metrics::Histogram hist;
  wd.AddLatencyProbe("test/node.op", &hist, 1'000'000);  // 1 ms SLO

  hist.Record(10'000'000);
  EXPECT_TRUE(wd.TickOnce().healthy);  // slow tick #1, debounced
  hist.Record(10'000'000);
  HealthReport report = wd.TickOnce();  // slow tick #2 -> breach
  EXPECT_FALSE(report.healthy);
  ASSERT_EQ(report.probes.size(), 1u);
  EXPECT_EQ(report.probes[0].kind, "latency");
  EXPECT_GT(report.probes[0].value, report.probes[0].threshold);

  // Ticks with no new samples are healthy (and reset the trip count) —
  // an idle stripe is not a slow stripe.
  EXPECT_TRUE(wd.TickOnce().healthy);
  // The window is the delta since the last tick, not the cumulative mean:
  // fast fresh samples read healthy even after a slow history.
  hist.Record(1'000);
  EXPECT_TRUE(wd.TickOnce().healthy);
}

TEST(WatchdogTest, RateProbeCatchesElectionChurn) {
  Watchdog wd(NodeOpts("test/node"));
  std::atomic<uint64_t> elections{0};
  wd.AddRateProbe(
      "test/node.elections", [&] { return elections.load(); }, 1);
  EXPECT_TRUE(wd.TickOnce().healthy);  // baseline
  elections += 5;
  EXPECT_TRUE(wd.TickOnce().healthy);  // churn tick #1, debounced
  elections += 5;
  EXPECT_FALSE(wd.TickOnce().healthy);  // churn tick #2 -> breach
  elections += 1;                       // within budget again
  EXPECT_TRUE(wd.TickOnce().healthy);
}

TEST(WatchdogTest, ReRegisteringAProbeReplacesItInsteadOfDuplicating) {
  Watchdog wd(NodeOpts("test/node"));
  std::atomic<uint64_t> c{0};
  // A server Restart() re-registers its probes; a duplicate would
  // double-count every breach.
  wd.AddProgressProbe("test/node.p", [&] { return c.load(); });
  wd.AddProgressProbe("test/node.p", [&] { return c.load(); });
  EXPECT_EQ(wd.TickOnce().probes.size(), 1u);
  wd.RemoveProbe("test/node.p");
  EXPECT_TRUE(wd.TickOnce().probes.empty());
}

TEST(WatchdogTest, BreachHookIsRateLimited) {
  ManualClock clock;
  int fired = 0;
  Watchdog::Options opts;
  opts.node = "test/node";
  opts.clock = &clock;
  opts.on_breach = [&](const HealthReport& report) {
    EXPECT_FALSE(report.healthy);
    ++fired;
  };
  opts.breach_hook_min_interval_nanos = 1'000'000'000;
  Watchdog wd(std::move(opts));
  std::atomic<uint64_t> c{1};
  wd.AddProgressProbe("test/node.p", [&] { return c.load(); });

  wd.TickOnce();  // baseline
  wd.TickOnce();  // stall tick #1, debounced
  wd.TickOnce();  // breach -> hook
  EXPECT_EQ(fired, 1);
  clock.Advance(100'000'000);
  wd.TickOnce();  // still breached, hook suppressed inside the interval
  EXPECT_EQ(fired, 1);
  clock.Advance(1'000'000'000);
  wd.TickOnce();
  EXPECT_EQ(fired, 2);
}

TEST(WatchdogTest, PeriodicTickRidesTheExecutorTimerInVirtualTime) {
  ManualClock clock;
  Executor exec({.num_threads = 2, .name = "wd-vt", .manual_clock = &clock});
  Watchdog::Options opts;
  opts.node = "test/node";
  opts.clock = &clock;
  opts.tick_interval_nanos = 10'000'000;  // 10 ms virtual
  Watchdog wd(std::move(opts));
  std::atomic<uint64_t> c{1};
  wd.AddProgressProbe("test/node.p", [&] { return c.load(); });

  wd.Start(&exec);
  // Three tick deadlines pass in virtual time; the counter never advances
  // after the baseline, so the stall reports by the third tick.
  exec.AdvanceBy(35'000'000);
  exec.WaitIdle();
  wd.Stop();
  EXPECT_GE(wd.LastReport().ticks, 3u);
  EXPECT_GE(wd.breaches(), 1u);
  exec.Shutdown();
}

TEST(WatchdogTest, HealthJsonNamesEveryProbe) {
  Watchdog wd(NodeOpts("dc0/maintainer/0"));
  metrics::Histogram hist;
  hist.Record(10'000'000);
  wd.AddLatencyProbe("dc0/maintainer/0.repl_round", &hist, 1'000'000);
  wd.TickOnce();
  std::string json = RenderHealthJson(wd.TickOnce());
  EXPECT_NE(json.find("\"node\":\"dc0/maintainer/0\""), std::string::npos)
      << json;
  EXPECT_NE(json.find("\"name\":\"dc0/maintainer/0.repl_round\""),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"kind\":\"latency\""), std::string::npos) << json;
}

// -------------------------------------------------------- flight recorder

TEST(FlightRecorderTest, DumpDecodesEventsInTimestampOrder) {
  ManualClock clock;
  flightrec::Recorder rec(64);
  rec.SetClock(&clock);
  clock.Set(100);
  rec.Record(flightrec::EventType::kAppend, 0, 7, 42, 512);
  clock.Set(200);
  rec.Record(flightrec::EventType::kFsync, 0, 0, 1'000'000, 4096);
  clock.Set(300);
  rec.Record(flightrec::EventType::kRpcEnd, 12, 0, 99, 5'000);

  flightrec::DecodedDump dump;
  ASSERT_TRUE(flightrec::Recorder::Decode(rec.Dump(), &dump).ok());
  EXPECT_EQ(dump.rings, 1u);
  EXPECT_EQ(dump.recorded, 3u);
  EXPECT_EQ(dump.dropped, 0u);
  ASSERT_EQ(dump.events.size(), 3u);
  EXPECT_EQ(dump.events[0].type, flightrec::EventType::kAppend);
  EXPECT_EQ(dump.events[0].nanos, 100);
  EXPECT_EQ(dump.events[0].arg, 7u);
  EXPECT_EQ(dump.events[0].a, 42u);
  EXPECT_EQ(dump.events[0].b, 512u);
  EXPECT_EQ(dump.events[2].type, flightrec::EventType::kRpcEnd);
  EXPECT_EQ(dump.events[2].code, 12);

  std::string text = flightrec::RenderDumpText(dump);
  EXPECT_NE(text.find("append"), std::string::npos) << text;
  EXPECT_NE(text.find("fsync"), std::string::npos) << text;
  EXPECT_NE(text.find("rpc_end"), std::string::npos) << text;
}

TEST(FlightRecorderTest, RingWrapCountsDropsAndKeepsNewestEvents) {
  ManualClock clock;
  flightrec::Recorder rec(8);  // tiny ring: 100 events lap it 12 times
  rec.SetClock(&clock);
  for (uint64_t i = 0; i < 100; ++i) {
    clock.Set(static_cast<int64_t>(i));
    rec.Record(flightrec::EventType::kAppend, 0, 0, i, 0);
  }
  EXPECT_EQ(rec.recorded(), 100u);
  EXPECT_EQ(rec.dropped(), 92u);

  flightrec::DecodedDump dump;
  ASSERT_TRUE(flightrec::Recorder::Decode(rec.Dump(), &dump).ok());
  EXPECT_EQ(dump.recorded, 100u);
  EXPECT_EQ(dump.dropped, 92u);
  ASSERT_EQ(dump.events.size(), 8u);
  // The ring keeps the newest window, oldest-first after the merge.
  EXPECT_EQ(dump.events.front().a, 92u);
  EXPECT_EQ(dump.events.back().a, 99u);
}

TEST(FlightRecorderTest, DisabledRecorderIsANoOp) {
  flightrec::Recorder rec(16);
  rec.SetEnabled(false);
  rec.Record(flightrec::EventType::kAppend, 0, 0, 1, 0);
  EXPECT_EQ(rec.recorded(), 0u);
  rec.SetEnabled(true);
  rec.Record(flightrec::EventType::kAppend, 0, 0, 2, 0);
  EXPECT_EQ(rec.recorded(), 1u);
}

TEST(FlightRecorderTest, DecodeRejectsDamageWithStatusNotACrash) {
  flightrec::Recorder rec(8);
  rec.Record(flightrec::EventType::kAppend, 0, 0, 1, 0);
  std::string good = rec.Dump();
  flightrec::DecodedDump dump;
  ASSERT_TRUE(flightrec::Recorder::Decode(good, &dump).ok());

  EXPECT_FALSE(flightrec::Recorder::Decode("", &dump).ok());
  EXPECT_FALSE(flightrec::Recorder::Decode("not a dump", &dump).ok());
  // Truncation anywhere must surface as a Status.
  for (size_t cut : {size_t{1}, good.size() / 2, good.size() - 1}) {
    EXPECT_FALSE(
        flightrec::Recorder::Decode(good.substr(0, cut), &dump).ok())
        << "cut at " << cut;
  }
  // A flipped payload byte trips the CRC frame.
  std::string flipped = good;
  flipped.back() = static_cast<char>(flipped.back() ^ 0xff);
  EXPECT_FALSE(flightrec::Recorder::Decode(flipped, &dump).ok());
}

// ------------------------------------------------------------ trace spans

TEST(TraceSpanTest, SpanTreeRoundTripsAndAttributesTheCriticalPath) {
  ManualClock clock;
  trace::SetClockForTest(&clock);

  // One record's life across two datacenters, with exact virtual stamps:
  // client 100ns, batcher 150, filter 50, queue 100, maintainer 100 (with a
  // 40ns fsync sub-span inside), WAN 400, incorporation lands in dc1.
  trace::TraceContext ctx;
  ctx.trace_id = trace::MakeTraceId(0, 1);
  clock.Set(0);
  ctx.AddHop("client", 0);
  clock.Set(100);
  ctx.AddHop("batcher", 0);
  clock.Set(250);
  ctx.AddHop("filter", 0);
  clock.Set(300);
  ctx.AddHop("queue", 0);
  clock.Set(400);
  ctx.AddHop("maintainer", 0);
  clock.Set(420);
  uint32_t fsync = ctx.BeginSpan("fsync", 0);
  EXPECT_NE(fsync, 0u);
  clock.Set(460);
  ctx.EndSpan(fsync);
  clock.Set(500);
  ctx.AddHop("wan", 0);
  clock.Set(900);
  ctx.AddHop("incorporation", 1);
  clock.Set(1000);
  ctx.AddHop("atable", 1);
  trace::SetClockForTest(nullptr);

  // Wire round trip preserves the whole tree.
  BinaryWriter w;
  trace::EncodeTrace(ctx, &w);
  std::string wire = std::move(w).data();
  EXPECT_EQ(wire.size(), trace::EncodedTraceSize(ctx));
  BinaryReader r(wire);
  trace::TraceContext back;
  ASSERT_TRUE(trace::DecodeTrace(&r, &back));
  EXPECT_EQ(back.trace_id, ctx.trace_id);
  EXPECT_EQ(back.hops, ctx.hops);
  EXPECT_EQ(back.spans, ctx.spans);
  EXPECT_EQ(back.chain, ctx.chain);

  // The fsync span hangs off the maintainer stage, not the chain.
  const trace::TraceSpan* fsync_span = nullptr;
  const trace::TraceSpan* maintainer_span = nullptr;
  for (const trace::TraceSpan& span : back.spans) {
    if (span.stage == "fsync") fsync_span = &span;
    if (span.stage == "maintainer") maintainer_span = &span;
  }
  ASSERT_NE(fsync_span, nullptr);
  ASSERT_NE(maintainer_span, nullptr);
  EXPECT_EQ(fsync_span->parent, maintainer_span->id);
  EXPECT_EQ(fsync_span->start_nanos, 420);
  EXPECT_EQ(fsync_span->end_nanos, 460);

  // Critical path: chronological chain with per-stage share; the WAN stage
  // dominates at 400 of the 1000ns end-to-end.
  std::vector<trace::CriticalPathEntry> path = trace::CriticalPath(back);
  ASSERT_GE(path.size(), 7u);
  EXPECT_EQ(path.front().stage, "client");
  EXPECT_EQ(path.front().start_nanos, 0);
  double share_sum = 0;
  const trace::CriticalPathEntry* wan = nullptr;
  for (const trace::CriticalPathEntry& entry : path) {
    share_sum += entry.share;
    if (entry.stage == "wan") wan = &entry;
  }
  ASSERT_NE(wan, nullptr);
  EXPECT_EQ(wan->duration_nanos, 400);
  EXPECT_NEAR(wan->share, 0.4, 1e-9);
  EXPECT_NEAR(share_sum, 1.0, 1e-9);
  // The remote stage carries its datacenter.
  const trace::CriticalPathEntry* inc = nullptr;
  for (const trace::CriticalPathEntry& entry : path) {
    if (entry.stage == "incorporation") inc = &entry;
  }
  ASSERT_NE(inc, nullptr);
  EXPECT_EQ(inc->dc, 1u);

  std::string rendered = trace::RenderCriticalPath(back);
  EXPECT_NE(rendered.find("wan"), std::string::npos) << rendered;
  EXPECT_NE(rendered.find("fsync"), std::string::npos) << rendered;
}

TEST(TraceSpanTest, CriticalPathFallsBackToHopDeltasForSpanFreeTraces) {
  // A pre-span encoder ships hops only; attribution still works.
  trace::TraceContext ctx;
  ctx.trace_id = 7;
  ctx.hops = {{"client", 0, 0}, {"batcher", 0, 600}, {"maintainer", 0, 1000}};
  std::vector<trace::CriticalPathEntry> path = trace::CriticalPath(ctx);
  ASSERT_EQ(path.size(), 3u);
  EXPECT_EQ(path[0].stage, "client");
  EXPECT_EQ(path[0].duration_nanos, 600);
  EXPECT_NEAR(path[0].share, 0.6, 1e-9);
  EXPECT_EQ(path[1].duration_nanos, 400);
  EXPECT_EQ(path[2].duration_nanos, 0);
}

// -------------------------------------------------- registry force-exports

TEST(ObservabilityMetricsTest, HealthAndFlightRecFamiliesAreForceRegistered) {
  RegisterHealthMetrics();
  flightrec::RegisterFlightRecorderMetrics();
  std::string prom =
      metrics::RenderPrometheus(metrics::Registry::Default().Snapshot());
  for (const char* name :
       {"chariots_health_stalls", "chariots_health_slo_breaches",
        "chariots_health_dumps", "chariots_flightrec_events",
        "chariots_flightrec_drops", "chariots_flightrec_dump_bytes"}) {
    EXPECT_NE(prom.find(name), std::string::npos) << name << "\n" << prom;
  }
}

TEST(ObservabilityMetricsTest, PrometheusHistogramsExportCumulativeBuckets) {
  metrics::Histogram* hist =
      metrics::Registry::Default().GetHistogram("obs.test.latency_ns");
  hist->Record(10);
  hist->Record(10'000);
  hist->Record(10'000'000);
  std::string prom =
      metrics::RenderPrometheus(metrics::Registry::Default().Snapshot());
  EXPECT_NE(prom.find("# TYPE obs_test_latency_ns histogram"),
            std::string::npos)
      << prom;
  EXPECT_NE(prom.find("obs_test_latency_ns_bucket{le=\"+Inf\"} 3"),
            std::string::npos)
      << prom;
  // At least one finite-bound bucket precedes +Inf.
  EXPECT_NE(prom.find("obs_test_latency_ns_bucket{le=\""), std::string::npos);

  metrics::HistogramStats stats = hist->Stats();
  ASSERT_FALSE(stats.buckets.empty());
  uint64_t prev_bound = 0, prev_cum = 0;
  for (const auto& [bound, cumulative] : stats.buckets) {
    EXPECT_GT(bound, prev_bound);
    EXPECT_GE(cumulative, prev_cum);
    prev_bound = bound;
    prev_cum = cumulative;
  }
  EXPECT_EQ(stats.buckets.back().second, stats.count);
}

/// One HTTP GET against localhost:`port`; returns the whole response.
std::string HttpGet(int port, const std::string& path) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return "";
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(port));
  std::string response;
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0) {
    std::string request = "GET " + path + " HTTP/1.0\r\n\r\n";
    if (::send(fd, request.data(), request.size(), 0) ==
        static_cast<ssize_t>(request.size())) {
      char buf[4096];
      ssize_t n;
      while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0) {
        response.append(buf, static_cast<size_t>(n));
      }
    }
  }
  ::close(fd);
  return response;
}

// The segment store's index size is served on /metrics, summed over the
// process's stores.
TEST(ObservabilityMetricsTest, MetricsEndpointExportsStoreIndexBytes) {
  namespace fs = std::filesystem;
  fs::path dir = fs::temp_directory_path() / "chariots_obs_index_bytes";
  fs::remove_all(dir);
  storage::LogStoreOptions options;
  options.dir = dir.string();
  storage::LogStore store(options);
  ASSERT_TRUE(store.Open().ok());
  for (uint64_t lid = 0; lid < 100; ++lid) {
    ASSERT_TRUE(store.Append(lid, "record").ok());
  }
  ASSERT_GT(store.IndexBytes(), 0u);

  net::MetricsHttpServer server;
  ASSERT_TRUE(server.Start(0).ok());
  std::string body = HttpGet(server.port(), "/metrics");
  server.Stop();
  const std::string name = "chariots_storage_log_store_index_bytes";
  EXPECT_NE(body.find("# TYPE " + name + " gauge"), std::string::npos)
      << body;
  size_t line = body.find("\n" + name + " ");
  ASSERT_NE(line, std::string::npos) << body;
  uint64_t exported = std::stoull(body.substr(line + name.size() + 2));
  EXPECT_GE(exported, store.IndexBytes());
  ASSERT_TRUE(store.Close().ok());
  fs::remove_all(dir);
}

// --------------------------------------------------- end-to-end SLO drill

constexpr char kController[] = "dc0/controller";
constexpr char kPrimary[] = "dc0/maintainer/0";
constexpr char kBackup[] = "dc0/maintainer/0-backup";

/// Replicated stripe (coordinator + replica) plus controller on a
/// virtual-time transport, with a tight replication-round SLO so a slowed
/// replica trips the watchdog in milliseconds of virtual time.
class ObsCluster {
 public:
  ObsCluster(Clock* clock, Executor* executor, int64_t repl_round_slo_nanos)
      : transport_(clock, executor) {
    ClusterInfo info;
    info.journal = EpochJournal(1, 4);
    info.maintainers = {kPrimary};
    info.replicas = {{kBackup}};
    info.fence_epochs = {1};
    ControllerServerOptions cso;
    cso.controller.clock = clock;
    cso.executor = executor;
    controller_ = std::make_unique<ControllerServer>(&transport_, kController,
                                                     info, cso);
    EXPECT_TRUE(controller_->Start().ok());
    backup_ = std::make_unique<MaintainerServer>(
        &transport_, MaintainerOpts(),
        ServerOpts(clock, executor, repl_round_slo_nanos, kBackup,
                   ReplicaRole::kReplica));
    EXPECT_TRUE(backup_->Start().ok());
    primary_ = std::make_unique<MaintainerServer>(
        &transport_, MaintainerOpts(),
        ServerOpts(clock, executor, repl_round_slo_nanos, kPrimary,
                   ReplicaRole::kCoordinator));
    EXPECT_TRUE(primary_->Start().ok());
  }

  ~ObsCluster() {
    primary_->Stop();
    backup_->Stop();
    controller_->Stop();
  }

  std::unique_ptr<FLStoreClient> NewClient(const std::string& name) {
    auto client = std::make_unique<FLStoreClient>(
        &transport_, "dc0/client/" + name, kController, ClientOptions());
    EXPECT_TRUE(client->Start().ok());
    return client;
  }

  net::InProcTransport transport_;
  std::unique_ptr<ControllerServer> controller_;
  std::unique_ptr<MaintainerServer> primary_;
  std::unique_ptr<MaintainerServer> backup_;

 private:
  static MaintainerOptions MaintainerOpts() {
    MaintainerOptions mo;
    mo.index = 0;
    mo.journal = EpochJournal(1, 4);
    mo.store.mode = storage::SyncMode::kMemoryOnly;
    return mo;
  }

  static MaintainerServer::Options ServerOpts(Clock* clock, Executor* executor,
                                              int64_t slo, net::NodeId node,
                                              ReplicaRole role) {
    MaintainerServer::Options so;
    so.node = std::move(node);
    so.executor = executor;
    so.clock = clock;
    so.repl_round_slo_nanos = slo;
    so.peers = {kPrimary};
    so.replica.role = role;
    so.replica.epoch = 1;
    if (role == ReplicaRole::kCoordinator) so.replica.peers = {kBackup};
    return so;
  }
};

LogRecord Rec(const std::string& body) {
  LogRecord rec;
  rec.body = body;
  return rec;
}

/// Runs `fn` on a helper thread while the calling thread pumps virtual time
/// in 1 ms steps until it finishes — the zero-real-sleep way to sit out a
/// fault-delayed RPC. (WaitIdle would deadlock here: the blocked worker
/// inside the replication round counts as running.)
void PumpUntilDone(Executor* exec, const std::function<void()>& fn) {
  std::atomic<bool> done{false};
  std::thread worker([&] {
    fn();
    done.store(true, std::memory_order_release);
  });
  while (!done.load(std::memory_order_acquire)) {
    exec->AdvanceBy(1'000'000);
    std::this_thread::yield();
  }
  worker.join();
}

// The issue's acceptance drill: slow the replica with a fault-schedule
// SlowNodeWindow, drive appends through the coordinator, and watch the
// replication-round SLO probe breach within two watchdog ticks. The health
// report (the same JSON /healthz and `chariots_cli health` serve) names the
// slow stripe, and the kFlightRec breach snapshot decodes and contains the
// replication events of the breach window. Zero real sleeps throughout.
TEST(ObservabilityE2ETest, SlowReplicaTripsWatchdogAndFlightRecorderDump) {
  ManualClock clock;
  Executor exec({.num_threads = 2, .name = "obs-e2e", .manual_clock = &clock});

  // The flight recorder is process-global: pin it to virtual time so the
  // dumped events are comparable with the breach window, and rewind it so
  // this test's window starts clean.
  flightrec::Recorder& rec = flightrec::Recorder::Default();
  rec.SetClock(&clock);
  rec.ResetForTest();

  {
    ObsCluster cluster(&clock, &exec, /*repl_round_slo_nanos=*/5'000'000);
    auto client = cluster.NewClient("a");

    // Every message to/from the backup now takes 20 ms of virtual time, so
    // a replication round costs ~40 ms against the 5 ms SLO.
    cluster.transport_.faults().SlowNodeWindow(
        kBackup, 20'000'000, 0, std::numeric_limits<int64_t>::max());

    net::RpcEndpoint probe(&cluster.transport_, "dc0/probe");
    ASSERT_TRUE(probe.Start().ok());

    // Two slow appends, a watchdog tick after each (the kHealth RPC *is* a
    // tick): the first slow tick is debounced, the second reports.
    std::string health;
    for (int i = 0; i < 2; ++i) {
      PumpUntilDone(&exec, [&] {
        auto lid = client->Append(Rec("slow" + std::to_string(i)));
        EXPECT_TRUE(lid.ok()) << lid.status();
      });
      auto tick = probe.Call(kPrimary, kHealth, "", 500ms);
      ASSERT_TRUE(tick.ok()) << tick.status();
      health = *tick;
    }

    // Breach within two ticks, and the report names the slow stripe.
    EXPECT_NE(health.find("\"healthy\":false"), std::string::npos) << health;
    EXPECT_NE(health.find("\"name\":\"dc0/maintainer/0.repl_round\","
                          "\"kind\":\"latency\",\"breached\":true"),
              std::string::npos)
        << health;
    EXPECT_GE(cluster.primary_->watchdog().breaches(), 1u);

    // The breach hook snapshotted the recorder; kFlightRec mode 1 serves
    // that snapshot, it decodes, and it covers the breach window: the slow
    // replication rounds and the breach event itself, all stamped inside
    // the virtual-time window that elapsed so far.
    BinaryWriter w;
    w.PutU8(1);
    auto snap = probe.Call(kPrimary, kFlightRec, std::move(w).data(), 500ms);
    ASSERT_TRUE(snap.ok()) << snap.status();
    flightrec::DecodedDump dump;
    ASSERT_TRUE(flightrec::Recorder::Decode(*snap, &dump).ok());
    EXPECT_GT(dump.events.size(), 0u);
    bool saw_repl_inv = false, saw_breach = false;
    for (const flightrec::Event& event : dump.events) {
      EXPECT_GE(event.nanos, 0);
      EXPECT_LE(event.nanos, clock.NowNanos());
      if (event.type == flightrec::EventType::kReplInv) saw_repl_inv = true;
      if (event.type == flightrec::EventType::kWatchdogBreach)
        saw_breach = true;
    }
    EXPECT_TRUE(saw_repl_inv)
        << "breach snapshot must cover the slow replication rounds:\n"
        << flightrec::RenderDumpText(dump);
    EXPECT_TRUE(saw_breach)
        << "breach snapshot must include the watchdog breach event:\n"
        << flightrec::RenderDumpText(dump);

    // Live dump (mode 0 / empty payload) also serves and decodes.
    auto live = probe.Call(kPrimary, kFlightRec, "", 500ms);
    ASSERT_TRUE(live.ok()) << live.status();
    EXPECT_TRUE(flightrec::Recorder::Decode(*live, &dump).ok());
  }

  rec.SetClock(nullptr);
  exec.Shutdown();
}

// The healthy counterpart: same cluster, no fault — ticks stay healthy, no
// probe trips, and kFlightRec mode 1 answers NotFound because the breach
// hook never fired. Guards against a watchdog that alarms on a quiet or
// fast cluster.
TEST(ObservabilityE2ETest, HealthyClusterRaisesNoFalsePositives) {
  ManualClock clock;
  Executor exec({.num_threads = 2, .name = "obs-ok", .manual_clock = &clock});
  {
    ObsCluster cluster(&clock, &exec, /*repl_round_slo_nanos=*/5'000'000);
    auto client = cluster.NewClient("a");
    net::RpcEndpoint probe(&cluster.transport_, "dc0/probe");
    ASSERT_TRUE(probe.Start().ok());

    for (int i = 0; i < 4; ++i) {
      auto lid = client->Append(Rec("fast" + std::to_string(i)));
      ASSERT_TRUE(lid.ok()) << lid.status();
      auto tick = probe.Call(kPrimary, kHealth, "", 500ms);
      ASSERT_TRUE(tick.ok()) << tick.status();
      EXPECT_NE(tick->find("\"healthy\":true"), std::string::npos) << *tick;
      EXPECT_EQ(tick->find("\"breached\":true"), std::string::npos) << *tick;
    }
    EXPECT_EQ(cluster.primary_->watchdog().breaches(), 0u);
    EXPECT_TRUE(cluster.primary_->LastBreachDump().empty());

    auto snap = probe.Call(kPrimary, kFlightRec, std::string(1, '\x01'),
                           500ms);
    EXPECT_FALSE(snap.ok());
    EXPECT_EQ(snap.status().code(), StatusCode::kNotFound);
  }
  exec.Shutdown();
}

}  // namespace
}  // namespace chariots::flstore
