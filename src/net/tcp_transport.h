#ifndef CHARIOTS_NET_TCP_TRANSPORT_H_
#define CHARIOTS_NET_TCP_TRANSPORT_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/executor.h"
#include "common/status.h"
#include "net/transport.h"

namespace chariots::net {

/// Transport over real TCP sockets. Messages are length-prefixed frames
/// (u32 little-endian length + EncodeMessage bytes).
///
/// Execution model (DESIGN.md §10): a nonblocking epoll reactor. One or a
/// few I/O threads own every socket — the listener, all reads, and all
/// queued writes — so the thread count is a constant, not one reader per
/// connection. Inbound *requests* are dispatched to the shared executor on
/// a per-connection strand (serial, like the old reader thread delivered
/// them); inbound *responses* are delivered inline on the reactor thread,
/// so a worker blocked inside a handler waiting on a Call() is unblocked
/// even when every worker is busy. Sends try the socket inline on the
/// caller's thread and fall back to a bounded per-connection write queue
/// flushed by the reactor on EPOLLOUT.
///
/// Routing: local nodes are registered handlers; remote nodes are reached via
/// prefix routes installed with AddRoute("dc1", "127.0.0.1:7001"). Longest
/// matching prefix wins. A message whose destination resolves locally is
/// delivered without touching a socket. Additionally, the transport LEARNS
/// peers: a node id seen as the sender on an inbound connection becomes
/// reachable over that connection — so servers can answer clients they
/// have no static route to (clients connect from ephemeral addresses).
class TcpTransport : public Transport {
 public:
  struct Options {
    /// Reactor (event-loop) threads. One is right for almost everything;
    /// raise it only when a single core cannot move the bytes.
    size_t io_threads = 1;
    /// Executor that runs inbound request handlers (null =
    /// Executor::Default()).
    Executor* executor = nullptr;
  };

  TcpTransport();  // default Options
  explicit TcpTransport(Options options);
  ~TcpTransport() override;

  /// Starts accepting connections on `port` (all interfaces). Pass 0 to let
  /// the OS choose; the bound port is then available via port().
  Status Listen(int port);

  int port() const { return port_; }

  /// Routes messages for node ids starting with `prefix` to `host:port`.
  void AddRoute(const std::string& prefix, const std::string& host,
                int port);

  Status Register(const NodeId& node, MessageHandler handler) override;
  Status Unregister(const NodeId& node) override;
  Status Send(Message msg) override;

  /// Closes all sockets and joins the reactor threads.
  void Shutdown();

 private:
  struct Conn;
  struct IoThread;

  void ReactorLoop(IoThread* io);
  /// Accept-ready on the listener (reactor thread 0 only).
  void AcceptReady();
  /// Drains the socket and dispatches every complete frame (reactor only).
  void HandleReadable(IoThread* io, const std::shared_ptr<Conn>& conn);
  /// Flushes the write queue; disarms EPOLLOUT when drained (reactor only).
  void HandleWritable(IoThread* io, const std::shared_ptr<Conn>& conn);
  /// One decoded inbound message: peer-learn + response-inline /
  /// request-strand split.
  void Dispatch(const std::shared_ptr<Conn>& conn, Message msg);
  /// Per-connection strand body: delivers queued requests one at a time.
  void DrainInbox(const std::shared_ptr<Conn>& conn);
  void DeliverLocal(Message msg);
  /// Encodes into a slice chain (borrowing the payload, DESIGN.md §15) and
  /// writes it — inline via sendmsg if the queue is empty, else queued,
  /// arming EPOLLOUT. Thread-safe.
  Status WriteFrame(const std::shared_ptr<Conn>& conn, Message msg);
  /// Removes the connection from its reactor and the routing tables and
  /// closes the socket.
  void CloseConn(IoThread* io, const std::shared_ptr<Conn>& conn);
  Result<std::shared_ptr<Conn>> GetOrConnect(const std::string& addr);
  /// Registers a socket with a reactor thread (round-robin for accepted
  /// and outbound connections alike).
  void AdoptConn(const std::shared_ptr<Conn>& conn);
  Status EnsureIoThreads();

  const Options options_;
  Executor* const executor_;
  std::atomic<bool> shutdown_{false};
  std::atomic<int> listen_fd_{-1};
  int port_ = 0;
  std::atomic<uint64_t> next_io_{0};

  std::mutex io_mu_;  // guards io_threads_ creation
  std::vector<std::unique_ptr<IoThread>> io_threads_;

  std::mutex mu_;
  std::unordered_map<NodeId, MessageHandler> local_;
  std::vector<std::pair<std::string, std::string>> routes_;  // prefix -> addr
  std::unordered_map<std::string, std::shared_ptr<Conn>> conns_;
  std::vector<std::shared_ptr<Conn>> accepted_;
  /// Peer learning: sender node id -> connection it was last seen on.
  std::unordered_map<NodeId, std::weak_ptr<Conn>> learned_;
};

}  // namespace chariots::net

#endif  // CHARIOTS_NET_TCP_TRANSPORT_H_
