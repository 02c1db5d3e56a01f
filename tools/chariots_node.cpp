// chariots_node — runs one FLStore server role (controller, log
// maintainer, or indexer) as its own OS process, talking real TCP. A
// minimal two-maintainer deployment on one host:
//
//   ./chariots_node --role=controller --listen=7000 \
//       --maintainers=127.0.0.1:7001,127.0.0.1:7002 \
//       --indexers=127.0.0.1:7003 --batch=1000
//   ./chariots_node --role=maintainer --index=0 --listen=7001 \
//       --maintainers=127.0.0.1:7001,127.0.0.1:7002 \
//       --indexers=127.0.0.1:7003 --batch=1000 [--store-dir=/data/m0]
//   ./chariots_node --role=maintainer --index=1 --listen=7002 ...
//   ./chariots_node --role=indexer --index=0 --listen=7003 ...
//
// then drive it with chariots_cli (see that tool's header comment).
//
// Node-id convention (shared with chariots_cli): the controller is
// "ctrl/0", maintainers are "m<i>/node", indexers are "idx<i>/node";
// prefix routes are derived from the --maintainers/--indexers/--controller
// lists, so every process can reach every other.

#include <csignal>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "chariots/datacenter.h"
#include "common/executor.h"
#include "common/flight_recorder.h"
#include "common/watchdog.h"
#include "chariots/fabric.h"
#include "chariots/geo_service.h"
#include "flstore/service.h"
#include "net/metrics_http.h"
#include "net/tcp_transport.h"
#include "storage/file.h"
#include "tools/flags.h"

using namespace chariots;
using namespace chariots::flstore;
using chariots::tools::Flags;

namespace {

volatile std::sig_atomic_t g_stop = 0;
void HandleSignal(int) { g_stop = 1; }

struct Deployment {
  std::vector<std::string> maintainer_addrs;
  std::vector<std::string> indexer_addrs;
  std::string controller_addr;
  /// All controller replica addresses (--controller_replicas). Non-empty
  /// supersedes the single --controller: replica i is "ctrl<i>/node" and
  /// every process heartbeats / redirects across the whole set.
  std::vector<std::string> controller_addrs;
  uint64_t batch = 1000;

  std::vector<net::NodeId> MaintainerNodes() const {
    std::vector<net::NodeId> out;
    for (size_t i = 0; i < maintainer_addrs.size(); ++i) {
      out.push_back("m" + std::to_string(i) + "/node");
    }
    return out;
  }
  std::vector<net::NodeId> IndexerNodes() const {
    std::vector<net::NodeId> out;
    for (size_t i = 0; i < indexer_addrs.size(); ++i) {
      out.push_back("idx" + std::to_string(i) + "/node");
    }
    return out;
  }
  std::vector<net::NodeId> ControllerNodes() const {
    std::vector<net::NodeId> out;
    for (size_t i = 0; i < controller_addrs.size(); ++i) {
      out.push_back("ctrl" + std::to_string(i) + "/node");
    }
    if (out.empty() && !controller_addr.empty()) out.push_back("ctrl/0");
    return out;
  }
};

// Installs prefix routes for every known process.
bool WireRoutes(net::TcpTransport* transport, const Deployment& d) {
  std::string host;
  int port = 0;
  for (size_t i = 0; i < d.maintainer_addrs.size(); ++i) {
    if (!Flags::SplitHostPort(d.maintainer_addrs[i], &host, &port)) {
      return false;
    }
    transport->AddRoute("m" + std::to_string(i), host, port);
  }
  for (size_t i = 0; i < d.indexer_addrs.size(); ++i) {
    if (!Flags::SplitHostPort(d.indexer_addrs[i], &host, &port)) {
      return false;
    }
    transport->AddRoute("idx" + std::to_string(i), host, port);
  }
  if (!d.controller_addr.empty()) {
    if (!Flags::SplitHostPort(d.controller_addr, &host, &port)) return false;
    transport->AddRoute("ctrl", host, port);
  }
  // Replica routes ("ctrl0", "ctrl1", ...) coexist with the legacy "ctrl"
  // route: resolution is longest-prefix-wins.
  for (size_t i = 0; i < d.controller_addrs.size(); ++i) {
    if (!Flags::SplitHostPort(d.controller_addrs[i], &host, &port)) {
      return false;
    }
    transport->AddRoute("ctrl" + std::to_string(i), host, port);
  }
  return true;
}

// Starts the HTTP observability endpoint when --metrics_port is given.
// Returns false on bind failure (fatal: the operator asked for it).
bool MaybeStartMetrics(const Flags& flags, net::MetricsHttpServer* server) {
  if (!flags.Has("metrics_port")) return true;
  int port = flags.GetInt("metrics_port", 0);
  Status s = server->Start(port);
  if (!s.ok()) {
    std::fprintf(stderr, "metrics endpoint: %s\n", s.ToString().c_str());
    return false;
  }
  std::printf("metrics endpoint on port %d (/metrics, /metrics.json, "
              "/traces.json)\n",
              server->port());
  return true;
}

// Observability knobs shared by every role. --watchdog_ms arms the
// periodic health watchdog (0 keeps it on-demand only, via the kHealth RPC
// and /healthz); --breach_dump persists a flight-recorder snapshot at every
// watchdog breach; --crash_dump arms the fatal-signal flight-recorder dump.
int64_t WatchdogIntervalNanos(const Flags& flags) {
  return static_cast<int64_t>(flags.GetInt("watchdog_ms", 0)) * 1'000'000;
}

std::string BreachDumpPath(const Flags& flags) {
  return flags.Get("breach_dump");
}

void ArmCrashDump(const Flags& flags) {
  std::string path = flags.Get("crash_dump");
  if (!path.empty()) flightrec::InstallCrashDump(path);
}

// Applies the runtime-sizing flags (any role). --executor_threads sizes
// the process-wide shared executor (0 = O(cores) default); --io_threads
// sizes the TCP reactor. Must run before the first Executor::Default().
net::TcpTransport::Options RuntimeOptions(const Flags& flags) {
  if (flags.Has("executor_threads")) {
    Executor::Options eo;
    eo.num_threads =
        static_cast<size_t>(flags.GetInt("executor_threads", 0));
    Executor::ConfigureDefault(eo);
  }
  net::TcpTransport::Options to;
  to.io_threads = static_cast<size_t>(flags.GetInt("io_threads", 1));
  if (to.io_threads == 0) to.io_threads = 1;
  return to;
}

int Usage() {
  std::fprintf(
      stderr,
      "usage: chariots_node --role={controller|maintainer|indexer|"
      "datacenter}\n"
      "runtime (any role):\n"
      "  --executor_threads=N       shared executor workers (default:\n"
      "                             O(cores); see DESIGN.md §10)\n"
      "  --io_threads=N             TCP reactor threads (default 1)\n"
      "datacenter role (one whole geo replica per process):\n"
      "  --dc-id=N --datacenters=H:P,H:P,...  (this process at index N)\n"
      "  --listen=PORT --store-dir=PATH --batch=N\n"
      "  --batchers/--filters/--queues/--maintainers-per-dc=N  stage\n"
      "                             widths\n"
      "FLStore roles:\n"
      "  --listen=PORT              port to serve on\n"
      "  --metrics_port=PORT        HTTP observability endpoint (any role):\n"
      "                             /metrics (Prometheus), /metrics.json,\n"
      "                             /traces.json, /healthz,\n"
      "                             /debug/flightrecorder\n"
      "  --watchdog_ms=N            health-watchdog tick interval (any\n"
      "                             role except indexer; default 0 = tick\n"
      "                             only on demand via /healthz and\n"
      "                             `chariots_cli health`)\n"
      "  --breach_dump=PATH         write a flight-recorder snapshot here\n"
      "                             whenever the watchdog trips\n"
      "  --crash_dump=PATH          write a flight-recorder snapshot here\n"
      "                             on SIGSEGV/SIGABRT/SIGBUS\n"
      "  --maintainers=H:P,H:P,...  all maintainer addresses (ordered)\n"
      "  --indexers=H:P,...         all indexer addresses (ordered)\n"
      "  --controller=H:P           controller address (for routing)\n"
      "  --controller_replicas=H:P,...  ALL controller replicas (ordered);\n"
      "                             supersedes --controller and enables\n"
      "                             lease-based leader election\n"
      "  --ctrl_index=N             this controller's index in\n"
      "                             --controller_replicas (controller role)\n"
      "  --meta_wal_dir=PATH        controller metadata WAL directory: the\n"
      "                             layout, epochs and in-flight failover\n"
      "                             plans survive a controller restart\n"
      "                             (default: memory only)\n"
      "  --ctrl_tick_ms=N           controller lease/election monitor\n"
      "                             interval (default 50 when replicated,\n"
      "                             else 0 = suspect fast path only)\n"
      "  --index=N                  this node's index (maintainer/indexer)\n"
      "  --batch=N                  striping batch size (default 1000)\n"
      "  --store-dir=PATH           persist records durably: each write\n"
      "                             is fdatasynced before it is acked\n"
      "                             (default: memory only)\n"
      "  --gossip-ms=N              HL gossip interval (default 2)\n"
      "  --read_cache_bytes=N       maintainer tail-cache byte budget\n"
      "                             (default 4194304; 0 disables)\n"
      "  --tail_cache_records=N     maintainer tail-cache entry budget\n"
      "                             (default 4096; 0 disables)\n"
      "fault injection (maintainer role, for crash/recovery drills):\n"
      "  --disk_fault_schedule=SPEC scripted disk faults, e.g.\n"
      "                             torn_write@seg:3:10,fail_sync@dedup:?\n"
      "  --fault_seed=N             seed resolving any '?' in the spec\n");
  return 2;
}

}  // namespace

// Runs a whole geo-replicated datacenter (the §6 pipeline) as one process;
// peers are the other datacenters' chariots_node processes.
int RunDatacenter(const Flags& flags) {
  std::vector<std::string> peers = Flags::Split(flags.Get("datacenters"));
  if (peers.empty() || !flags.Has("dc-id")) return Usage();
  uint32_t dc_id = flags.GetInt("dc-id", 0);
  if (dc_id >= peers.size()) return Usage();

  net::TcpTransport transport(RuntimeOptions(flags));
  Status listen = transport.Listen(flags.GetInt("listen", 0));
  if (!listen.ok()) {
    std::fprintf(stderr, "listen: %s\n", listen.ToString().c_str());
    return 1;
  }
  std::string host;
  int port = 0;
  for (size_t i = 0; i < peers.size(); ++i) {
    if (i == dc_id) continue;
    if (!Flags::SplitHostPort(peers[i], &host, &port)) return Usage();
    transport.AddRoute("geo/dc" + std::to_string(i), host, port);
  }

  geo::TransportFabric fabric(&transport);
  geo::ChariotsConfig config;
  config.dc_id = dc_id;
  config.num_datacenters = static_cast<uint32_t>(peers.size());
  config.num_batchers = flags.GetInt("batchers", 1);
  config.num_filters = flags.GetInt("filters", 1);
  config.num_queues = flags.GetInt("queues", 1);
  config.num_maintainers = flags.GetInt("maintainers-per-dc", 1);
  config.stripe_batch = flags.GetInt("batch", 1000);
  std::string store_dir = flags.Get("store-dir");
  if (!store_dir.empty()) {
    config.store_dir = store_dir;
    config.store_mode = storage::SyncMode::kFsyncEach;
  }
  net::MetricsHttpServer metrics_http;
  if (!MaybeStartMetrics(flags, &metrics_http)) return 1;

  geo::Datacenter dc(config, &fabric);
  Status s = dc.Start();
  if (!s.ok()) {
    std::fprintf(stderr, "start: %s\n", s.ToString().c_str());
    return 1;
  }
  ArmCrashDump(flags);
  geo::GeoServerOptions go;
  go.watchdog_interval_nanos = WatchdogIntervalNanos(flags);
  go.executor = Executor::Default();
  go.breach_dump_path = BreachDumpPath(flags);
  geo::GeoServer api(&transport, "geo/dc" + std::to_string(dc_id) + "/api",
                     &dc, go);
  s = api.Start();
  if (!s.ok()) {
    std::fprintf(stderr, "api start: %s\n", s.ToString().c_str());
    return 1;
  }
  metrics_http.SetHealthSource(
      [&api] { return RenderHealthJson(api.watchdog().TickOnce()); });
  std::printf("datacenter %u serving on port %d (%zu-replica group%s)\n",
              dc_id, transport.port(), peers.size(),
              store_dir.empty() ? "" : ", persistent");

  while (!g_stop) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  std::printf("shutting down\n");
  api.Stop();
  dc.Stop();
  metrics_http.Stop();
  return 0;
}

int main(int argc, char** argv) {
  Flags flags(argc, argv,
              {"role", "executor_threads", "io_threads", "metrics_port",
               "watchdog_ms", "breach_dump", "crash_dump",
               // datacenter role
               "dc-id", "datacenters", "batchers", "filters", "queues",
               "maintainers-per-dc",
               // FLStore roles
               "maintainers", "indexers", "controller", "controller_replicas",
               "ctrl_index", "ctrl_tick_ms", "meta_wal_dir", "index",
               "gossip-ms", "read_cache_bytes", "tail_cache_records",
               "disk_fault_schedule", "fault_seed",
               // shared by the datacenter and FLStore roles
               "listen", "batch", "store-dir"});
  std::string role = flags.Get("role");
  if (role.empty()) return Usage();
  std::signal(SIGINT, HandleSignal);
  std::signal(SIGTERM, HandleSignal);
  if (role == "datacenter") return RunDatacenter(flags);

  Deployment d;
  d.maintainer_addrs = Flags::Split(flags.Get("maintainers"));
  d.indexer_addrs = Flags::Split(flags.Get("indexers"));
  d.controller_addr = flags.Get("controller");
  d.controller_addrs = Flags::Split(flags.Get("controller_replicas"));
  d.batch = flags.GetInt("batch", 1000);
  if (d.maintainer_addrs.empty()) {
    std::fprintf(stderr, "--maintainers required\n");
    return Usage();
  }

  net::TcpTransport transport(RuntimeOptions(flags));
  Status listen = transport.Listen(flags.GetInt("listen", 0));
  if (!listen.ok()) {
    std::fprintf(stderr, "listen: %s\n", listen.ToString().c_str());
    return 1;
  }
  if (!WireRoutes(&transport, d)) {
    std::fprintf(stderr, "malformed address list\n");
    return Usage();
  }
  std::signal(SIGINT, HandleSignal);
  std::signal(SIGTERM, HandleSignal);

  net::MetricsHttpServer metrics_http;
  if (!MaybeStartMetrics(flags, &metrics_http)) return 1;
  ArmCrashDump(flags);

  // Declared before the servers so it outlives them (stores keep a pointer).
  std::unique_ptr<storage::DiskFaultSchedule> disk_faults;
  std::unique_ptr<ControllerServer> controller;
  std::unique_ptr<MaintainerServer> maintainer;
  std::unique_ptr<IndexerServer> indexer;

  if (role == "controller") {
    ClusterInfo info;
    info.journal = EpochJournal(
        static_cast<uint32_t>(d.maintainer_addrs.size()), d.batch);
    info.maintainers = d.MaintainerNodes();
    info.indexers = d.IndexerNodes();

    ControllerServerOptions co;
    net::NodeId ctrl_node = "ctrl/0";
    if (!d.controller_addrs.empty()) {
      uint32_t ctrl_index =
          static_cast<uint32_t>(flags.GetInt("ctrl_index", 0));
      if (ctrl_index >= d.controller_addrs.size()) {
        std::fprintf(stderr, "--ctrl_index out of range\n");
        return Usage();
      }
      std::vector<net::NodeId> replicas = d.ControllerNodes();
      ctrl_node = replicas[ctrl_index];
      co.replica_index = ctrl_index;
      for (size_t i = 0; i < replicas.size(); ++i) {
        if (i != ctrl_index) co.peers.push_back(replicas[i]);
      }
      // The HA deployment tolerates gray failures: a coordinator that
      // still answers the liveness probe is never evicted on lease expiry
      // alone (its heartbeats may be partitioned away one-way).
      co.probe_before_failover = true;
    }
    // Replicated controllers need the monitor ticking to elect and to beat;
    // a single controller keeps the pre-HA default (suspect fast path only)
    // unless asked.
    int tick_ms =
        flags.GetInt("ctrl_tick_ms", d.controller_addrs.empty() ? 0 : 50);
    co.monitor_interval_nanos = static_cast<int64_t>(tick_ms) * 1'000'000;
    co.watchdog_interval_nanos = WatchdogIntervalNanos(flags);
    co.breach_dump_path = BreachDumpPath(flags);
    std::string meta_wal_dir = flags.Get("meta_wal_dir");
    if (!meta_wal_dir.empty()) {
      Status made = storage::CreateDirIfMissing(meta_wal_dir);
      if (!made.ok()) {
        std::fprintf(stderr, "--meta_wal_dir: %s\n",
                     made.ToString().c_str());
        return 1;
      }
      co.controller.meta_wal_path = meta_wal_dir + "/ctrl" +
                                    std::to_string(co.replica_index) +
                                    ".wal";
    }

    controller = std::make_unique<ControllerServer>(&transport, ctrl_node,
                                                    info, co);
    Status s = controller->Start();
    if (!s.ok()) {
      std::fprintf(stderr, "start: %s\n", s.ToString().c_str());
      return 1;
    }
    ControllerServer* ctrl = controller.get();
    metrics_http.SetHealthSource(
        [ctrl] { return RenderHealthJson(ctrl->watchdog().TickOnce()); });
    std::printf("controller %s serving on port %d (%zu maintainers, %zu "
                "indexers, batch %llu%s%s)\n",
                ctrl_node.c_str(), transport.port(),
                d.maintainer_addrs.size(), d.indexer_addrs.size(),
                static_cast<unsigned long long>(d.batch),
                d.controller_addrs.empty() ? "" : ", replicated",
                meta_wal_dir.empty() ? "" : ", durable");
  } else if (role == "maintainer") {
    if (!flags.Has("index")) return Usage();
    uint32_t index = flags.GetInt("index", 0);
    MaintainerOptions mo;
    mo.index = index;
    mo.journal = EpochJournal(
        static_cast<uint32_t>(d.maintainer_addrs.size()), d.batch);
    std::string store_dir = flags.Get("store-dir");
    if (store_dir.empty()) {
      mo.store.mode = storage::SyncMode::kMemoryOnly;
    } else {
      mo.store.dir = store_dir;
      mo.store.mode = storage::SyncMode::kFsyncEach;
    }
    MaintainerServer::Options so;
    so.node = "m" + std::to_string(index) + "/node";
    so.peers = d.MaintainerNodes();
    so.indexers = d.IndexerNodes();
    // Heartbeat every configured controller replica; followers track the
    // leases too, so an elected follower already knows who is alive.
    so.controllers = d.ControllerNodes();
    so.gossip_interval_nanos =
        static_cast<int64_t>(flags.GetInt("gossip-ms", 2)) * 1'000'000;
    so.watchdog_interval_nanos = WatchdogIntervalNanos(flags);
    so.breach_dump_path = BreachDumpPath(flags);
    mo.tail_cache_bytes =
        flags.GetUint64("read_cache_bytes", mo.tail_cache_bytes);
    mo.tail_cache_records =
        flags.GetUint64("tail_cache_records", mo.tail_cache_records);
    std::string fault_spec = flags.Get("disk_fault_schedule");
    if (!fault_spec.empty()) {
      uint64_t fault_seed = flags.GetUint64("fault_seed", 1);
      disk_faults = std::make_unique<storage::DiskFaultSchedule>(fault_seed);
      Status parsed = disk_faults->AddFromSpec(fault_spec);
      if (!parsed.ok()) {
        std::fprintf(stderr, "bad --disk_fault_schedule: %s\n",
                     parsed.ToString().c_str());
        return Usage();
      }
      mo.store.disk_faults = disk_faults.get();
      so.dedup_disk_faults = disk_faults.get();
      std::printf("disk fault schedule armed (seed %llu): %s\n",
                  static_cast<unsigned long long>(fault_seed),
                  fault_spec.c_str());
    }
    maintainer =
        std::make_unique<MaintainerServer>(&transport, mo, so);
    Status s = maintainer->Start();
    if (!s.ok()) {
      std::fprintf(stderr, "start: %s\n", s.ToString().c_str());
      return 1;
    }
    MaintainerServer* m = maintainer.get();
    metrics_http.SetHealthSource(
        [m] { return RenderHealthJson(m->watchdog().TickOnce()); });
    std::printf("maintainer %u serving on port %d (%s)\n", index,
                transport.port(),
                store_dir.empty() ? "memory" : store_dir.c_str());
  } else if (role == "indexer") {
    if (!flags.Has("index")) return Usage();
    uint32_t index = flags.GetInt("index", 0);
    indexer = std::make_unique<IndexerServer>(
        &transport, "idx" + std::to_string(index) + "/node");
    Status s = indexer->Start();
    if (!s.ok()) {
      std::fprintf(stderr, "start: %s\n", s.ToString().c_str());
      return 1;
    }
    std::printf("indexer %u serving on port %d\n", index, transport.port());
  } else {
    return Usage();
  }

  while (!g_stop) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  std::printf("shutting down\n");
  if (maintainer != nullptr) maintainer->Stop();
  if (indexer != nullptr) indexer->Stop();
  if (controller != nullptr) controller->Stop();
  metrics_http.Stop();
  return 0;
}
