#include "net/metrics_http.h"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <string>

#include "common/codec.h"
#include "common/executor.h"
#include "common/flight_recorder.h"
#include "common/logging.h"
#include "common/metrics.h"
#include "common/trace.h"
#include "common/watchdog.h"
#include "net/rpc.h"

namespace chariots::net {

namespace {

void WriteResponse(int fd, const std::string& content_type,
                   const std::string& body) {
  std::string resp = "HTTP/1.0 200 OK\r\nContent-Type: " + content_type +
                     "\r\nContent-Length: " + std::to_string(body.size()) +
                     "\r\nConnection: close\r\n\r\n" + body;
  const char* data = resp.data();
  size_t n = resp.size();
  while (n > 0) {
    ssize_t w = ::send(fd, data, n, MSG_NOSIGNAL);
    if (w <= 0) {
      if (w < 0 && errno == EINTR) continue;
      return;
    }
    data += w;
    n -= static_cast<size_t>(w);
  }
}

void WriteNotFound(int fd) {
  static const char kResp[] =
      "HTTP/1.0 404 Not Found\r\nContent-Length: 0\r\nConnection: "
      "close\r\n\r\n";
  (void)::send(fd, kResp, sizeof(kResp) - 1, MSG_NOSIGNAL);
}

void WriteUnavailable(int fd, const std::string& body) {
  std::string resp =
      "HTTP/1.0 503 Service Unavailable\r\nContent-Type: "
      "application/json\r\nContent-Length: " +
      std::to_string(body.size()) + "\r\nConnection: close\r\n\r\n" + body;
  (void)::send(fd, resp.data(), resp.size(), MSG_NOSIGNAL);
}

}  // namespace

MetricsHttpServer::~MetricsHttpServer() { Stop(); }

Status MetricsHttpServer::Start(int port) {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    return Status::IOError(std::string("socket: ") + std::strerror(errno));
  }
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_ANY);
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    Status s =
        Status::IOError(std::string("bind metrics port: ") +
                        std::strerror(errno));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return s;
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len) ==
      0) {
    port_ = ntohs(addr.sin_port);
  }
  if (::listen(listen_fd_, 16) != 0) {
    Status s =
        Status::IOError(std::string("listen: ") + std::strerror(errno));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return s;
  }
  thread_ = std::thread([this] { ServeLoop(); });
  return Status::OK();
}

void MetricsHttpServer::Stop() {
  bool expected = false;
  if (!stopping_.compare_exchange_strong(expected, true)) return;
  // shutdown() wakes ServeLoop's poll/accept without giving up the
  // descriptor; it is closed only once the loop has exited, so the loop
  // never reads a field being written nor polls a number the process may
  // already have reused.
  if (listen_fd_ >= 0) ::shutdown(listen_fd_, SHUT_RDWR);
  if (thread_.joinable()) thread_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
}

void MetricsHttpServer::ServeLoop() {
  ScopedRuntimeThread census("metrics/http");
  while (!stopping_.load(std::memory_order_relaxed)) {
    pollfd pfd{listen_fd_, POLLIN, 0};
    int r = ::poll(&pfd, 1, 100);
    if (r < 0 && errno != EINTR) return;
    if (r <= 0) continue;
    int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // listener shut down by Stop()
    }
    HandleConnection(fd);
    ::close(fd);
  }
}

void MetricsHttpServer::HandleConnection(int fd) {
  // Read until the end of the request headers (or 4 KiB, whichever first);
  // only the request line matters.
  std::string req;
  char buf[1024];
  while (req.size() < 4096 && req.find("\r\n\r\n") == std::string::npos) {
    ssize_t r = ::recv(fd, buf, sizeof(buf), 0);
    if (r <= 0) {
      if (r < 0 && errno == EINTR) continue;
      break;
    }
    req.append(buf, static_cast<size_t>(r));
    if (req.find('\n') != std::string::npos) break;  // have the request line
  }
  size_t sp1 = req.find(' ');
  size_t sp2 = req.find(' ', sp1 + 1);
  if (sp1 == std::string::npos || sp2 == std::string::npos ||
      req.substr(0, sp1) != "GET") {
    WriteNotFound(fd);
    return;
  }
  std::string path = req.substr(sp1 + 1, sp2 - sp1 - 1);

  if (path == "/metrics" || path == "/") {
    WriteResponse(fd, "text/plain; version=0.0.4",
                  metrics::RenderPrometheus(
                      metrics::Registry::Default().Snapshot()));
  } else if (path == "/metrics.json") {
    WriteResponse(
        fd, "application/json",
        metrics::RenderJson(metrics::Registry::Default().Snapshot()));
  } else if (path == "/traces.json") {
    WriteResponse(fd, "application/json",
                  trace::RenderTracesJson(trace::TraceSink::Default().Traces()));
  } else if (path == "/healthz") {
    std::function<std::string()> source;
    {
      std::lock_guard<std::mutex> lock(health_mu_);
      source = health_source_;
    }
    if (source == nullptr) {
      WriteUnavailable(fd, "{\"error\":\"no health source installed\"}");
    } else {
      WriteResponse(fd, "application/json", source());
    }
  } else if (path == "/debug/flightrecorder") {
    WriteResponse(fd, "application/octet-stream",
                  flightrec::Recorder::Default().Dump());
  } else {
    WriteNotFound(fd);
  }
}

void MetricsHttpServer::SetHealthSource(std::function<std::string()> source) {
  std::lock_guard<std::mutex> lock(health_mu_);
  health_source_ = std::move(source);
}

Status HandleHealthRpcs(RpcEndpoint* endpoint, Watchdog* watchdog,
                        uint16_t health_type, uint16_t flightrec_type) {
  CHARIOTS_RETURN_IF_ERROR(endpoint->Handle(
      health_type,
      [watchdog](const NodeId&, const std::string&) -> Result<std::string> {
        return RenderHealthJson(watchdog->TickOnce());
      }));
  return endpoint->Handle(
      flightrec_type,
      [watchdog](const NodeId&,
                 const std::string& payload) -> Result<std::string> {
        uint8_t mode = 0;
        if (!payload.empty()) {
          BinaryReader r(payload);
          CHARIOTS_RETURN_IF_ERROR(r.GetU8(&mode));
        }
        if (mode != 1) return flightrec::Recorder::Default().Dump();
        std::string dump = watchdog->LastBreachDump();
        if (dump.empty()) {
          return Status::NotFound("no watchdog breach has fired yet");
        }
        return dump;
      });
}

}  // namespace chariots::net
