#ifndef CHARIOTS_NET_METRICS_HTTP_H_
#define CHARIOTS_NET_METRICS_HTTP_H_

#include <atomic>
#include <functional>
#include <mutex>
#include <string>
#include <thread>

#include "common/status.h"

namespace chariots {
class Watchdog;
}  // namespace chariots

namespace chariots::net {

class RpcEndpoint;

/// Minimal blocking HTTP/1.0 server exposing the process's observability
/// surface (`chariots_node --metrics_port`). Routes:
///
///   GET /metrics               Prometheus text exposition
///   GET /metrics.json          JSON metrics snapshot
///   GET /traces.json           JSON dump of the TraceSink ring buffer
///   GET /healthz               watchdog health report as JSON (503 until a
///                              health source is installed; 200 once the
///                              hosting server calls SetHealthSource)
///   GET /debug/flightrecorder  raw flight-recorder dump (binary; decode
///                              with `chariots_cli flightrec --decode` or
///                              flightrec::Recorder::Decode)
///
/// One accept thread, one request per connection, connection closed after
/// the response — monitoring-poll traffic only, deliberately not a general
/// HTTP stack.
class MetricsHttpServer {
 public:
  MetricsHttpServer() = default;
  ~MetricsHttpServer();

  MetricsHttpServer(const MetricsHttpServer&) = delete;
  MetricsHttpServer& operator=(const MetricsHttpServer&) = delete;

  /// Binds and starts serving. Port 0 picks an ephemeral port (see port()).
  Status Start(int port);

  void Stop();

  int port() const { return port_; }

  /// Installs the /healthz provider — typically a lambda that ticks the
  /// hosting server's watchdog and renders the report
  /// (RenderHealthJson(watchdog.TickOnce())). Callable before or after
  /// Start(); the last source wins.
  void SetHealthSource(std::function<std::string()> source);

 private:
  void ServeLoop();
  void HandleConnection(int fd);

  /// Written only by Start, before the serve thread exists, and by Stop,
  /// after it has joined it.
  int listen_fd_ = -1;
  int port_ = 0;
  std::atomic<bool> stopping_{false};
  std::thread thread_;
  std::mutex health_mu_;
  std::function<std::string()> health_source_;
};

/// Registers the RPC face of /healthz and /debug/flightrecorder on
/// `endpoint`, for a server that owns `watchdog`. `health_type` answers one
/// watchdog tick as JSON (so it works where the periodic tick is unarmed).
/// `flightrec_type` answers the watchdog's last breach snapshot for mode 1
/// (NotFound before any breach), and a live flight-recorder dump for an
/// empty payload or any other mode.
Status HandleHealthRpcs(RpcEndpoint* endpoint, Watchdog* watchdog,
                        uint16_t health_type, uint16_t flightrec_type);

}  // namespace chariots::net

#endif  // CHARIOTS_NET_METRICS_HTTP_H_
