// chariots_cli — one-shot client commands against a chariots_node
// deployment (see that tool's header for how to start one):
//
//   chariots_cli --controller=127.0.0.1:7000 append "hello" type=click
//   chariots_cli --controller=127.0.0.1:7000 read 42
//   chariots_cli --controller=127.0.0.1:7000 head
//   chariots_cli --controller=127.0.0.1:7000 lookup type click 5
//   chariots_cli --controller=127.0.0.1:7000 info
//
// The CLI also needs the maintainer/indexer address lists to route to them
// directly (the controller only serves the logical layout):
//   --maintainers=H:P,...  --indexers=H:P,...

#include <unistd.h>

#include <cstdio>
#include <string>
#include <vector>

#include "chariots/geo_service.h"
#include "common/flight_recorder.h"
#include "flstore/client.h"
#include "flstore/service.h"
#include "net/rpc.h"
#include "net/tcp_transport.h"
#include "tools/flags.h"

using namespace chariots;
using namespace chariots::flstore;
using chariots::tools::Flags;

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: chariots_cli --controller=H:P --maintainers=H:P,... "
               "[--indexers=H:P,...] COMMAND\n"
               "   or: chariots_cli --controllers=H:P,... ...   (replicated "
               "control plane;\n"
               "       rotates to the leader on NOT_LEADER redirects)\n"
               "   or: chariots_cli --geo=H:P --dc-id=N COMMAND   (against "
               "a chariots_node --role=datacenter)\n"
               "commands:\n"
               "  append BODY [k=v ...]   append a record with tags\n"
               "  read LID                read a record by position\n"
               "  toid HOST TOID          read by replication identity "
               "(geo mode)\n"
               "  head                    print the head of the log\n"
               "  lookup KEY [VALUE] [N]  most recent N records with tag\n"
               "  info                    print the cluster layout\n"
               "  status                  control-plane status: layout "
               "version,\n"
               "                          controller leader + lease age, "
               "per-stripe\n"
               "                          coordinator/replicas/fence epochs "
               "+ leases\n"
               "  metrics [PREFIX]        server metrics as JSON (geo mode);\n"
               "                          with PREFIX, prints one 'name "
               "value'\n"
               "                          line per matching family, e.g.\n"
               "                          chariots.flstore.repl. (exits 1 "
               "when\n"
               "                          no family matches)\n"
               "  trace                   per-record critical-path breakdown "
               "of\n"
               "                          sampled traces (geo mode); 'trace "
               "json'\n"
               "                          prints the raw trace JSON instead\n"
               "  health [TARGET]         one watchdog tick + health report "
               "JSON;\n"
               "                          geo mode targets the datacenter, "
               "flstore\n"
               "                          mode targets ctrl (default) or mN\n"
               "  flightrec [TARGET] [breach]\n"
               "                          decoded flight-recorder events from "
               "the\n"
               "                          server ('breach' = the snapshot "
               "taken at\n"
               "                          the last watchdog breach); "
               "--out=FILE\n"
               "                          saves the raw dump bytes, "
               "--events=N\n"
               "                          caps decoded lines (default 64)\n");
  return 2;
}

// Filters a metrics dump ({"counters":{...},"gauges":{...},
// "histograms":{...}}, see metrics::RenderJson) down to the families whose
// name starts with `prefix`, one "name value" line per match. Metric names
// are dotted identifiers — never quotes or braces — so a linear scan with a
// brace-depth counter is enough; no JSON parser needed. Histogram values
// print as their full stats object. Returns how many families matched so
// the caller can fail loudly on an unknown prefix instead of printing
// nothing.
size_t PrintFilteredMetrics(const std::string& json,
                            const std::string& prefix) {
  size_t matches = 0;
  size_t i = 0;
  int depth = 0;
  while (i < json.size()) {
    char c = json[i];
    if (c == '"') {
      size_t end = json.find('"', i + 1);
      if (end == std::string::npos) return matches;
      std::string key = json.substr(i + 1, end - i - 1);
      i = end + 1;
      if (i < json.size() && json[i] == ':' && depth == 2) {
        ++i;
        size_t start = i;
        if (json[i] == '{') {  // histogram stats object: skip balanced
          int braces = 0;
          do {
            if (json[i] == '{') ++braces;
            if (json[i] == '}') --braces;
            ++i;
          } while (i < json.size() && braces > 0);
        } else {  // counter/gauge: bare number
          while (i < json.size() && json[i] != ',' && json[i] != '}') ++i;
        }
        if (key.compare(0, prefix.size(), prefix) == 0) {
          std::printf("%s %s\n", key.c_str(),
                      json.substr(start, i - start).c_str());
          ++matches;
        }
      }
      continue;
    }
    if (c == '{') ++depth;
    if (c == '}') --depth;
    ++i;
  }
  return matches;
}

// Prints a flight-recorder dump fetched over RPC: raw bytes to --out=FILE
// when asked, decoded human-readable events otherwise. Decode failures are
// reported and exit nonzero — a truncated or corrupt dump is a finding, not
// a crash.
int PrintFlightRecorderDump(const Flags& flags, const std::string& bytes) {
  std::string out_path = flags.Get("out");
  if (!out_path.empty()) {
    FILE* f = std::fopen(out_path.c_str(), "wb");
    if (f == nullptr ||
        std::fwrite(bytes.data(), 1, bytes.size(), f) != bytes.size()) {
      std::fprintf(stderr, "flightrec: cannot write %s\n", out_path.c_str());
      if (f != nullptr) std::fclose(f);
      return 1;
    }
    std::fclose(f);
    std::printf("wrote %zu dump bytes to %s\n", bytes.size(),
                out_path.c_str());
    return 0;
  }
  flightrec::DecodedDump dump;
  Status s = flightrec::Recorder::Decode(bytes, &dump);
  if (!s.ok()) {
    std::fprintf(stderr, "flightrec decode: %s\n", s.ToString().c_str());
    return 1;
  }
  size_t max_events =
      static_cast<size_t>(flags.GetInt("events", 64));
  std::printf("%s", flightrec::RenderDumpText(dump, max_events).c_str());
  return 0;
}

void PrintGeoRecord(const chariots::geo::GeoRecord& record) {
  std::printf("lid %llu, host dc%u, toid %llu\nbody: %s\n",
              static_cast<unsigned long long>(record.lid), record.host,
              static_cast<unsigned long long>(record.toid),
              record.body.c_str());
  for (const chariots::flstore::Tag& tag : record.tags) {
    std::printf("tag:  %s=%s\n", tag.key.c_str(), tag.value.c_str());
  }
}

// Commands against a geo datacenter's API (chariots_node --role=datacenter).
int RunGeo(const Flags& flags, const std::vector<std::string>& args) {
  net::TcpTransport transport;
  if (!transport.Listen(0).ok()) {
    std::fprintf(stderr, "could not open a client port\n");
    return 1;
  }
  std::string host;
  int port = 0;
  if (!Flags::SplitHostPort(flags.Get("geo"), &host, &port)) return Usage();
  int dc_id = flags.GetInt("dc-id", 0);
  std::string prefix = "geo/dc" + std::to_string(dc_id);
  transport.AddRoute(prefix, host, port);

  geo::GeoRpcClient client(&transport,
                           "geocli/" + std::to_string(::getpid()),
                           prefix + "/api");
  Status s = client.Start();
  if (!s.ok()) {
    std::fprintf(stderr, "client start failed: %s\n", s.ToString().c_str());
    return 1;
  }

  const std::string& command = args[0];
  if (command == "append") {
    if (args.size() < 2) return Usage();
    std::vector<flstore::Tag> tags;
    for (size_t i = 2; i < args.size(); ++i) {
      size_t eq = args[i].find('=');
      if (eq == std::string::npos) return Usage();
      tags.push_back({args[i].substr(0, eq), args[i].substr(eq + 1)});
    }
    auto r = client.Append(args[1], tags);
    if (!r.ok()) {
      std::fprintf(stderr, "append: %s\n", r.status().ToString().c_str());
      return 1;
    }
    std::printf("appended: toid %llu, lid %llu\n",
                static_cast<unsigned long long>(r->first),
                static_cast<unsigned long long>(r->second));
  } else if (command == "read") {
    if (args.size() != 2) return Usage();
    auto r = client.Read(std::strtoull(args[1].c_str(), nullptr, 10));
    if (!r.ok()) {
      std::fprintf(stderr, "read: %s\n", r.status().ToString().c_str());
      return 1;
    }
    PrintGeoRecord(*r);
  } else if (command == "toid") {
    if (args.size() != 3) return Usage();
    auto r = client.ReadByToid(
        static_cast<geo::DatacenterId>(std::atoi(args[1].c_str())),
        std::strtoull(args[2].c_str(), nullptr, 10));
    if (!r.ok()) {
      std::fprintf(stderr, "toid: %s\n", r.status().ToString().c_str());
      return 1;
    }
    PrintGeoRecord(*r);
  } else if (command == "head") {
    auto r = client.Head();
    if (!r.ok()) {
      std::fprintf(stderr, "head: %s\n", r.status().ToString().c_str());
      return 1;
    }
    std::printf("head of log: %llu\n",
                static_cast<unsigned long long>(*r));
  } else if (command == "lookup") {
    if (args.size() < 2) return Usage();
    flstore::IndexQuery query;
    query.key = args[1];
    if (args.size() >= 3) query.value_equals = args[2];
    query.limit = args.size() >= 4
                      ? static_cast<uint32_t>(std::atoi(args[3].c_str()))
                      : 5;
    auto postings = client.Lookup(query);
    if (!postings.ok()) {
      std::fprintf(stderr, "lookup: %s\n",
                   postings.status().ToString().c_str());
      return 1;
    }
    for (const flstore::Posting& p : *postings) {
      std::printf("lid %llu: %s\n", static_cast<unsigned long long>(p.lid),
                  p.value.c_str());
    }
  } else if (command == "metrics") {
    if (args.size() > 2) return Usage();
    auto r = client.Metrics();
    if (!r.ok()) {
      std::fprintf(stderr, "metrics: %s\n", r.status().ToString().c_str());
      return 1;
    }
    if (args.size() == 2) {
      if (PrintFilteredMetrics(*r, args[1]) == 0) {
        std::fprintf(stderr, "no families match prefix '%s'\n",
                     args[1].c_str());
        return 1;
      }
    } else {
      std::printf("%s\n", r->c_str());
    }
  } else if (command == "trace") {
    bool raw_json = args.size() >= 2 && args[1] == "json";
    auto r = raw_json ? client.Trace() : client.TraceCriticalPath();
    if (!r.ok()) {
      std::fprintf(stderr, "trace: %s\n", r.status().ToString().c_str());
      return 1;
    }
    std::printf("%s\n", r->c_str());
  } else if (command == "health") {
    auto r = client.Health();
    if (!r.ok()) {
      std::fprintf(stderr, "health: %s\n", r.status().ToString().c_str());
      return 1;
    }
    std::printf("%s\n", r->c_str());
  } else if (command == "flightrec") {
    uint8_t mode = 0;
    for (size_t i = 1; i < args.size(); ++i) {
      if (args[i] == "breach") mode = 1;
    }
    auto r = client.FlightRec(mode);
    if (!r.ok()) {
      std::fprintf(stderr, "flightrec: %s\n",
                   r.status().ToString().c_str());
      return 1;
    }
    return PrintFlightRecorderDump(flags, *r);
  } else {
    return Usage();
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags(argc, argv,
              {"geo", "dc-id", "controller", "controllers", "maintainers",
               "indexers", "out", "events"});
  const std::vector<std::string>& args = flags.positional();
  if (args.empty()) return Usage();
  if (flags.Has("geo")) return RunGeo(flags, args);

  net::TcpTransport transport;
  if (!transport.Listen(0).ok()) {
    std::fprintf(stderr, "could not open a client port\n");
    return 1;
  }
  std::string host;
  int port = 0;
  ClientOptions copts;
  std::vector<std::string> controllers =
      Flags::Split(flags.Get("controllers"));
  if (!controllers.empty()) {
    // Replicated control plane: route every replica and let the client
    // rotate across them (followers redirect with NOT_LEADER).
    for (size_t i = 0; i < controllers.size(); ++i) {
      if (!Flags::SplitHostPort(controllers[i], &host, &port)) {
        return Usage();
      }
      transport.AddRoute("ctrl" + std::to_string(i), host, port);
      copts.controllers.push_back("ctrl" + std::to_string(i) + "/node");
    }
  } else {
    if (!Flags::SplitHostPort(flags.Get("controller"), &host, &port)) {
      return Usage();
    }
    transport.AddRoute("ctrl", host, port);
  }
  std::vector<std::string> maintainers =
      Flags::Split(flags.Get("maintainers"));
  for (size_t i = 0; i < maintainers.size(); ++i) {
    if (!Flags::SplitHostPort(maintainers[i], &host, &port)) return Usage();
    transport.AddRoute("m" + std::to_string(i), host, port);
  }
  std::vector<std::string> indexers = Flags::Split(flags.Get("indexers"));
  for (size_t i = 0; i < indexers.size(); ++i) {
    if (!Flags::SplitHostPort(indexers[i], &host, &port)) return Usage();
    transport.AddRoute("idx" + std::to_string(i), host, port);
  }

  FLStoreClient client(&transport, "cli/" + std::to_string(::getpid()),
                       "ctrl/0", copts);
  Status s = client.Start();
  if (!s.ok()) {
    std::fprintf(stderr, "session bootstrap failed: %s\n",
                 s.ToString().c_str());
    return 1;
  }

  const std::string& command = args[0];
  if (command == "append") {
    if (args.size() < 2) return Usage();
    LogRecord record;
    record.body = args[1];
    for (size_t i = 2; i < args.size(); ++i) {
      size_t eq = args[i].find('=');
      if (eq == std::string::npos) return Usage();
      record.tags.push_back(
          Tag{args[i].substr(0, eq), args[i].substr(eq + 1)});
    }
    auto lid = client.Append(record);
    if (!lid.ok()) {
      std::fprintf(stderr, "append: %s\n", lid.status().ToString().c_str());
      return 1;
    }
    std::printf("appended at LId %llu\n",
                static_cast<unsigned long long>(*lid));
  } else if (command == "read") {
    if (args.size() != 2) return Usage();
    auto record = client.Read(std::strtoull(args[1].c_str(), nullptr, 10));
    if (!record.ok()) {
      std::fprintf(stderr, "read: %s\n",
                   record.status().ToString().c_str());
      return 1;
    }
    std::printf("body: %s\n", record->body.c_str());
    for (const Tag& tag : record->tags) {
      std::printf("tag:  %s=%s\n", tag.key.c_str(), tag.value.c_str());
    }
  } else if (command == "head") {
    auto head = client.HeadOfLog();
    if (!head.ok()) {
      std::fprintf(stderr, "head: %s\n", head.status().ToString().c_str());
      return 1;
    }
    std::printf("head of log: %llu\n",
                static_cast<unsigned long long>(*head));
  } else if (command == "lookup") {
    if (args.size() < 2) return Usage();
    IndexQuery query;
    query.key = args[1];
    if (args.size() >= 3) query.value_equals = args[2];
    query.limit = args.size() >= 4
                      ? static_cast<uint32_t>(std::atoi(args[3].c_str()))
                      : 5;
    auto records = client.ReadByTag(query);
    if (!records.ok()) {
      std::fprintf(stderr, "lookup: %s\n",
                   records.status().ToString().c_str());
      return 1;
    }
    for (const LogRecord& record : *records) {
      std::printf("LId %llu: %s\n",
                  static_cast<unsigned long long>(record.lid),
                  record.body.c_str());
    }
  } else if (command == "status") {
    auto status = client.ControllerStatus();
    if (!status.ok()) {
      std::fprintf(stderr, "status: %s\n",
                   status.status().ToString().c_str());
      return 1;
    }
    std::printf("controller epoch %llu, layout version %llu\n",
                static_cast<unsigned long long>(status->ctrl_epoch),
                static_cast<unsigned long long>(status->version));
    std::printf("leader: %s (answering replica is %s)\n",
                status->leader.empty() ? "<unknown>"
                                       : status->leader.c_str(),
                status->is_leader ? "the leader" : "a follower");
    if (status->leader_lease_nanos == ControlPlaneStatus::kNoLease) {
      std::printf("leader lease: not armed\n");
    } else {
      std::printf("leader lease: %.1f ms remaining\n",
                  status->leader_lease_nanos / 1e6);
    }
    for (size_t i = 0; i < status->stripes.size(); ++i) {
      const ControlPlaneStatus::Stripe& stripe = status->stripes[i];
      std::printf("stripe %zu: coordinator %s, fence epoch %llu, ", i,
                  stripe.coordinator.c_str(),
                  static_cast<unsigned long long>(stripe.fence_epoch));
      if (stripe.lease_nanos == ControlPlaneStatus::kNoLease) {
        std::printf("lease not armed");
      } else {
        std::printf("lease %.1f ms", stripe.lease_nanos / 1e6);
      }
      if (stripe.replicas.empty()) {
        std::printf(", unreplicated\n");
      } else {
        std::printf(", replicas:");
        for (const net::NodeId& node : stripe.replicas) {
          std::printf(" %s", node.c_str());
        }
        std::printf("\n");
      }
    }
  } else if (command == "health" || command == "flightrec") {
    // Raw per-node observability calls: these bypass the data-path client
    // because health and flight-recorder state are properties of one
    // process, not of the replicated log.
    net::NodeId target = controllers.empty()
                             ? net::NodeId("ctrl/0")
                             : copts.controllers.front();
    uint8_t mode = 0;
    for (size_t i = 1; i < args.size(); ++i) {
      if (args[i] == "breach") {
        mode = 1;
      } else if (args[i] == "ctrl") {
        // default target already set above
      } else if (args[i].rfind("ctrl", 0) == 0 ||
                 args[i].rfind("m", 0) == 0 ||
                 args[i].rfind("idx", 0) == 0) {
        target = args[i] + "/node";
      } else {
        return Usage();
      }
    }
    net::RpcEndpoint raw(&transport,
                         "cliraw/" + std::to_string(::getpid()));
    Status rs = raw.Start();
    if (!rs.ok()) {
      std::fprintf(stderr, "%s: %s\n", command.c_str(),
                   rs.ToString().c_str());
      return 1;
    }
    if (command == "health") {
      auto r = raw.Call(target, kHealth, "");
      if (!r.ok()) {
        std::fprintf(stderr, "health %s: %s\n", target.c_str(),
                     r.status().ToString().c_str());
        return 1;
      }
      std::printf("%s\n", r->c_str());
    } else {
      BinaryWriter w;
      w.PutU8(mode);
      auto r = raw.Call(target, kFlightRec, std::move(w).data());
      if (!r.ok()) {
        std::fprintf(stderr, "flightrec %s: %s\n", target.c_str(),
                     r.status().ToString().c_str());
        return 1;
      }
      int rc = PrintFlightRecorderDump(flags, *r);
      if (rc != 0) return rc;
    }
  } else if (command == "info") {
    ClusterInfo info = client.cluster_info();
    std::printf("maintainers: %zu, indexers: %zu\n",
                info.maintainers.size(), info.indexers.size());
    for (const auto& epoch : info.journal.epochs()) {
      std::printf("epoch from LId %llu: %u maintainers, batch %llu\n",
                  static_cast<unsigned long long>(epoch.start_lid),
                  epoch.num_maintainers,
                  static_cast<unsigned long long>(epoch.batch_size));
    }
  } else {
    return Usage();
  }
  return 0;
}
