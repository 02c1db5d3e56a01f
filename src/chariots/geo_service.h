#ifndef CHARIOTS_CHARIOTS_GEO_SERVICE_H_
#define CHARIOTS_CHARIOTS_GEO_SERVICE_H_

#include <atomic>
#include <string>
#include <vector>

#include "chariots/datacenter.h"
#include "common/watchdog.h"
#include "net/rpc.h"

namespace chariots::geo {

/// RPC opcodes for the datacenter's client-facing service. (Replication
/// between datacenters uses the fabric directly; these opcodes are for
/// application clients running outside the datacenter process.)
enum GeoOpcode : uint16_t {
  kGeoAppend = 50,     ///< body + tags + deps -> toid + lid (waits durable)
  kGeoRead = 51,       ///< u64 lid -> encoded GeoRecord + lid
  kGeoHead = 52,       ///< () -> u64 head lid
  kGeoLookup = 53,     ///< IndexQuery -> postings
  kGeoReadByToid = 54, ///< u32 host + u64 toid -> encoded GeoRecord + lid
  kGeoMetrics = 55,    ///< () -> process metrics snapshot as JSON
  kGeoTrace = 56,      ///< optional u8 mode -> traces (0/empty = JSON,
                       ///< 1 = per-record critical-path text)
  /// Batched range read: u64 from + u32 limit -> u32 n + n × (record +
  /// lid). N sequential reads cost one round trip instead of N.
  kGeoReadRange = 57,
  /// () -> health-report JSON: one on-demand watchdog tick over the
  /// datacenter's pipeline probes (filter inboxes, pending backlog).
  kGeoHealth = 58,
  /// u8 mode -> raw flight-recorder dump (0/empty = live snapshot, 1 = the
  /// snapshot taken at the last watchdog breach; kNotFound if none).
  kGeoFlightRec = 59,
};

/// Observability knobs for GeoServer (all default-off, preserving existing
/// deployments byte for byte).
struct GeoServerOptions {
  /// Health-watchdog tick period (0 = on-demand via kGeoHealth only).
  int64_t watchdog_interval_nanos = 0;
  /// Executor for the periodic watchdog tick (null = Executor::Default()).
  Executor* executor = nullptr;
  /// Clock for health-report timestamps (null = system).
  Clock* clock = nullptr;
  /// Where the watchdog writes its breach flight-recorder snapshot ("" =
  /// keep it in memory only).
  std::string breach_dump_path;
};

/// Hosts a Datacenter's client API on the RPC fabric, so application
/// clients can run as separate processes (see tools/chariots_node
/// --role=datacenter).
class GeoServer {
 public:
  /// `node` is this server's address (e.g. "geo/dc0/api").
  GeoServer(net::Transport* transport, net::NodeId node, Datacenter* dc,
            GeoServerOptions options = {});
  ~GeoServer();

  Status Start();
  void Stop();

  Watchdog& watchdog() { return watchdog_; }

 private:
  Datacenter* const dc_;
  GeoServerOptions options_;
  net::RpcEndpoint endpoint_;
  Watchdog watchdog_;
};

/// Remote-process counterpart of ChariotsClient: the same append/read
/// interface with causal dependency tracking, over RPC.
class GeoRpcClient {
 public:
  GeoRpcClient(net::Transport* transport, net::NodeId node,
               net::NodeId server);
  ~GeoRpcClient();

  Status Start();
  void Stop();

  /// Appends and waits until durable at the datacenter; returns
  /// (toid, lid). The session's causal dependencies ride along.
  Result<std::pair<TOId, flstore::LId>> Append(
      std::string body, std::vector<flstore::Tag> tags = {});

  /// Reads by local position, absorbing causal dependencies.
  Result<GeoRecord> Read(flstore::LId lid);

  /// Reads by replication identity.
  Result<GeoRecord> ReadByToid(DatacenterId host, TOId toid);

  Result<flstore::LId> Head();

  Result<std::vector<flstore::Posting>> Lookup(
      const flstore::IndexQuery& query);

  /// Batched range read: up to `limit` records in [from, head), in one
  /// round trip, absorbing causal dependencies from every record returned.
  Result<std::vector<GeoRecord>> ReadRange(flstore::LId from, size_t limit);

  /// Most recent record with `tag_key` as of `before_lid` (kInvalidLId =
  /// current head), absorbing causal dependencies.
  Result<GeoRecord> ReadMostRecent(const std::string& tag_key,
                                   flstore::LId before_lid =
                                       flstore::kInvalidLId);

  /// The server process's metrics snapshot, rendered as JSON.
  Result<std::string> Metrics();

  /// The server process's sampled record traces, rendered as JSON.
  Result<std::string> Trace();

  /// The server process's sampled traces as per-record critical-path
  /// breakdowns (one RenderCriticalPath block per trace).
  Result<std::string> TraceCriticalPath();

  /// One on-demand watchdog tick at the server, as health-report JSON.
  Result<std::string> Health();

  /// Raw flight-recorder dump bytes from the server process (decode with
  /// flightrec::Recorder::Decode). Mode 1 asks for the snapshot taken at
  /// the last watchdog breach instead of a live one.
  Result<std::string> FlightRec(uint8_t mode = 0);

 private:
  void Absorb(const GeoRecord& record);

  net::RpcEndpoint endpoint_;
  const net::NodeId server_;
  std::mutex mu_;
  DepVector deps_;
  /// Client-side append sequence, used only to decide which appends start a
  /// sampled trace (every 1024th, plus the first).
  std::atomic<uint64_t> append_seq_{0};
};

}  // namespace chariots::geo

#endif  // CHARIOTS_CHARIOTS_GEO_SERVICE_H_
