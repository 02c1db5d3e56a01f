#include "net/tcp_transport.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "common/logging.h"
#include "common/metrics.h"

namespace chariots::net {

namespace {

constexpr size_t kMaxFrameBytes = 64u << 20;
/// Per-connection queued-write cap: past this, Send fails Unavailable
/// instead of buffering without bound against a stuck peer.
constexpr size_t kMaxWriteBacklog = 64u << 20;

metrics::Counter* BytesSentCounter() {
  static metrics::Counter* c =
      metrics::Registry::Default().GetCounter("net.tcp.bytes_sent");
  return c;
}

metrics::Counter* BytesReceivedCounter() {
  static metrics::Counter* c =
      metrics::Registry::Default().GetCounter("net.tcp.bytes_received");
  return c;
}

metrics::Counter* FramesSentCounter() {
  static metrics::Counter* c =
      metrics::Registry::Default().GetCounter("net.tcp.frames_sent");
  return c;
}

metrics::Counter* FramesReceivedCounter() {
  static metrics::Counter* c =
      metrics::Registry::Default().GetCounter("net.tcp.frames_received");
  return c;
}

Status SetNonBlocking(int fd) {
  int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    return Status::IOError(std::string("fcntl: ") + std::strerror(errno));
  }
  return Status::OK();
}

/// A frame chain is at most header + payload + trace trailer; 8 leaves
/// headroom without touching IOV_MAX.
constexpr size_t kMaxIovPerSend = 8;

/// Fills `iov` from the chain's slices, skipping the first `skip`
/// already-sent bytes. Returns the number of entries filled.
size_t BuildIovecs(const SliceChain& chain, size_t skip, iovec* iov,
                   size_t max_iov) {
  size_t n = 0;
  for (const IoSlice& s : chain.slices()) {
    if (n == max_iov) break;
    if (skip >= s.data.size()) {
      skip -= s.data.size();
      continue;
    }
    iov[n++] = iovec{const_cast<char*>(s.data.data() + skip),
                     s.data.size() - skip};
    skip = 0;
  }
  return n;
}

/// sendmsg over the unsent tail of a frame chain (writev has no flags
/// argument, and MSG_NOSIGNAL is non-negotiable).
ssize_t SendChain(int fd, const SliceChain& chain, size_t skip) {
  iovec iov[kMaxIovPerSend];
  msghdr mh{};
  mh.msg_iov = iov;
  mh.msg_iovlen = BuildIovecs(chain, skip, iov, kMaxIovPerSend);
  return ::sendmsg(fd, &mh, MSG_NOSIGNAL);
}

}  // namespace

/// One TCP connection. The socket is owned by one reactor thread (`io`):
/// only that thread reads `rbuf`, flushes the write queue on EPOLLOUT, and
/// closes the fd. Senders on any thread append to the write queue under
/// `write_mu` (trying the socket inline first). Inbound requests queue in
/// `inbox` and are delivered one at a time by a strand task under `gate`,
/// which also fences the transport: Shutdown() closes it, after which no
/// queued task touches the transport again.
struct TcpTransport::Conn {
  int fd = -1;
  IoThread* io = nullptr;

  std::string rbuf;  // partial inbound frame (reactor thread only)

  std::mutex write_mu;
  /// Encoded frames as slice chains — large payloads are borrowed via
  /// refcounted Buffers, never copied into the queue. Front may be partly
  /// sent.
  std::deque<SliceChain> wq;
  size_t woff = 0;    // bytes of wq.front() already sent
  size_t wbytes = 0;  // unsent bytes across the whole queue
  bool want_write = false;  // EPOLLOUT armed (or will be at adoption)
  bool closed = false;

  std::mutex in_mu;
  std::deque<Message> inbox;
  bool drain_scheduled = false;
  SerialGate gate;
};

/// One reactor: an epoll instance plus the connections registered with it.
/// `conns` maps the raw pointer stored in epoll_event.data back to an
/// owning reference; erased on close, so a stale event (connection closed
/// earlier in the same batch) simply fails the lookup. `strands` remembers
/// every connection ever adopted here, closed ones included: a DrainInbox
/// task keeps its connection alive, so any connection that can still run
/// its strand has not expired, and Shutdown fences all of them.
struct TcpTransport::IoThread {
  size_t index = 0;
  int epfd = -1;
  int wakeup_fd = -1;
  std::atomic<bool> stop{false};
  std::mutex conns_mu;
  std::unordered_map<Conn*, std::shared_ptr<Conn>> conns;
  std::vector<std::weak_ptr<Conn>> strands;
  std::thread thread;
};

TcpTransport::TcpTransport() : TcpTransport(Options{}) {}

TcpTransport::TcpTransport(Options options)
    : options_(options),
      executor_(options.executor != nullptr ? options.executor
                                            : Executor::Default()) {}

TcpTransport::~TcpTransport() { Shutdown(); }

Status TcpTransport::EnsureIoThreads() {
  std::lock_guard<std::mutex> lock(io_mu_);
  if (!io_threads_.empty()) return Status::OK();
  size_t n = options_.io_threads > 0 ? options_.io_threads : 1;
  for (size_t i = 0; i < n; ++i) {
    auto io = std::make_unique<IoThread>();
    io->index = i;
    io->epfd = ::epoll_create1(0);
    if (io->epfd < 0) {
      return Status::IOError(std::string("epoll_create1: ") +
                             std::strerror(errno));
    }
    io->wakeup_fd = ::eventfd(0, EFD_NONBLOCK);
    if (io->wakeup_fd < 0) {
      ::close(io->epfd);
      return Status::IOError(std::string("eventfd: ") +
                             std::strerror(errno));
    }
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.ptr = io.get();
    ::epoll_ctl(io->epfd, EPOLL_CTL_ADD, io->wakeup_fd, &ev);
    io_threads_.push_back(std::move(io));
  }
  // The thread gets its IoThread directly: Shutdown joins it while holding
  // io_mu_, so it must never need io_mu_ itself.
  for (auto& io : io_threads_) {
    io->thread = std::thread([this, raw = io.get()] { ReactorLoop(raw); });
  }
  return Status::OK();
}

Status TcpTransport::Listen(int port) {
  CHARIOTS_RETURN_IF_ERROR(EnsureIoThreads());
  int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK, 0);
  if (fd < 0) {
    return Status::IOError(std::string("socket: ") + std::strerror(errno));
  }
  listen_fd_.store(fd, std::memory_order_relaxed);
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_ANY);
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    return Status::IOError(std::string("bind: ") + std::strerror(errno));
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) == 0) {
    port_ = ntohs(addr.sin_port);
  }
  if (::listen(fd, 128) != 0) {
    return Status::IOError(std::string("listen: ") + std::strerror(errno));
  }
  // The listener lives on reactor 0; accepted sockets are spread
  // round-robin over every reactor.
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.ptr = this;
  if (::epoll_ctl(io_threads_[0]->epfd, EPOLL_CTL_ADD, fd, &ev) != 0) {
    return Status::IOError(std::string("epoll_ctl listen: ") +
                           std::strerror(errno));
  }
  return Status::OK();
}

void TcpTransport::AddRoute(const std::string& prefix, const std::string& host,
                            int port) {
  std::lock_guard<std::mutex> lock(mu_);
  routes_.emplace_back(prefix, host + ":" + std::to_string(port));
}

Status TcpTransport::Register(const NodeId& node, MessageHandler handler) {
  std::lock_guard<std::mutex> lock(mu_);
  if (local_.count(node) != 0) {
    return Status::AlreadyExists("node already registered: " + node);
  }
  local_[node] = std::move(handler);
  return Status::OK();
}

Status TcpTransport::Unregister(const NodeId& node) {
  std::lock_guard<std::mutex> lock(mu_);
  if (local_.erase(node) == 0) return Status::NotFound("node: " + node);
  return Status::OK();
}

void TcpTransport::DeliverLocal(Message msg) {
  MessageHandler handler;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = local_.find(msg.to);
    if (it == local_.end()) {
      LOG_WARN << "tcp: dropping message for unknown local node " << msg.to;
      return;
    }
    handler = it->second;
  }
  handler(std::move(msg));
}

Status TcpTransport::Send(Message msg) {
  std::string addr;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (local_.count(msg.to) != 0) {
      // Local shortcut — deliver on the caller thread.
      MessageHandler handler = local_[msg.to];
      // Drop the lock before invoking user code.
      // (handler copy keeps it alive.)
      mu_.unlock();
      handler(std::move(msg));
      mu_.lock();
      return Status::OK();
    }
    size_t best = 0;
    bool found = false;
    for (const auto& [prefix, a] : routes_) {
      if (msg.to.rfind(prefix, 0) == 0 &&
          (!found || prefix.size() >= best)) {
        best = prefix.size();
        addr = a;
        found = true;
      }
    }
    if (!found) {
      // No static route: try the connection the peer was learned on.
      auto it = learned_.find(msg.to);
      if (it != learned_.end()) {
        if (std::shared_ptr<Conn> conn = it->second.lock()) {
          // Write outside the registry lock.
          mu_.unlock();
          Status s = WriteFrame(conn, std::move(msg));
          mu_.lock();
          return s;
        }
        learned_.erase(it);
      }
      return Status::NotFound("no route to " + msg.to);
    }
  }
  CHARIOTS_ASSIGN_OR_RETURN(std::shared_ptr<Conn> conn, GetOrConnect(addr));
  return WriteFrame(conn, std::move(msg));
}

Result<std::shared_ptr<TcpTransport::Conn>> TcpTransport::GetOrConnect(
    const std::string& addr) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = conns_.find(addr);
    if (it != conns_.end()) return it->second;
  }
  CHARIOTS_RETURN_IF_ERROR(EnsureIoThreads());
  // Parse host:port.
  size_t colon = addr.rfind(':');
  if (colon == std::string::npos) {
    return Status::InvalidArgument("bad address: " + addr);
  }
  std::string host = addr.substr(0, colon);
  int port = std::atoi(addr.c_str() + colon + 1);

  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::IOError(std::string("socket: ") + std::strerror(errno));
  }
  sockaddr_in sa{};
  sa.sin_family = AF_INET;
  sa.sin_port = htons(static_cast<uint16_t>(port));
  if (::inet_pton(AF_INET, host.c_str(), &sa.sin_addr) != 1) {
    ::close(fd);
    return Status::InvalidArgument("bad host: " + host);
  }
  // Blocking connect (bounded by the kernel's SYN timeout), then the socket
  // goes nonblocking for its life on the reactor.
  if (::connect(fd, reinterpret_cast<sockaddr*>(&sa), sizeof(sa)) != 0) {
    ::close(fd);
    return Status::Unavailable("connect " + addr + ": " +
                               std::strerror(errno));
  }
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  Status nb = SetNonBlocking(fd);
  if (!nb.ok()) {
    ::close(fd);
    return nb;
  }

  auto conn = std::make_shared<Conn>();
  conn->fd = fd;
  {
    std::lock_guard<std::mutex> lock(mu_);
    // Checked under mu_: Shutdown clears conns_ under it after setting the
    // flag, so no connection is routed once Shutdown has run.
    if (shutdown_.load(std::memory_order_acquire)) {
      ::close(fd);
      return Status::Unavailable("tcp: transport shut down");
    }
    auto [it, inserted] = conns_.emplace(addr, conn);
    if (!inserted) {
      // Lost a race; use the existing connection.
      ::close(fd);
      return it->second;
    }
  }
  CHARIOTS_RETURN_IF_ERROR(AdoptConn(conn));
  return conn;
}

Status TcpTransport::AdoptConn(const std::shared_ptr<Conn>& conn) {
  // io_threads_ is fixed once EnsureIoThreads has returned, so no io_mu_:
  // Shutdown holds it while joining the reactors, and AcceptReady adopts
  // from a reactor thread.
  IoThread* io =
      io_threads_[next_io_.fetch_add(1, std::memory_order_relaxed) %
                  io_threads_.size()]
          .get();
  // Registration happens entirely under conns_mu, which Shutdown's walk
  // also holds: either the walk finds this connection and fences it, or
  // the reactor is already stopped (its epfd closed, perhaps reused) and
  // the connection is dropped unregistered.
  std::lock_guard<std::mutex> lock(io->conns_mu);
  std::lock_guard<std::mutex> wl(conn->write_mu);
  if (io->stop.load(std::memory_order_acquire)) {
    conn->closed = true;
    ::close(conn->fd);
    return Status::Unavailable("tcp: transport shut down");
  }
  conn->io = io;
  io->conns[conn.get()] = conn;
  std::erase_if(io->strands,
                [](const std::weak_ptr<Conn>& c) { return c.expired(); });
  io->strands.push_back(conn);
  // A frame may already be queued (WriteFrame before adoption finished):
  // fold EPOLLOUT into the initial registration instead of racing a MOD.
  epoll_event ev{};
  ev.data.ptr = conn.get();
  ev.events = EPOLLIN | (conn->want_write ? EPOLLOUT : 0);
  ::epoll_ctl(io->epfd, EPOLL_CTL_ADD, conn->fd, &ev);
  return Status::OK();
}

Status TcpTransport::WriteFrame(const std::shared_ptr<Conn>& conn,
                                Message msg) {
  // The 4-byte length prefix rides inside the chain's header buffer:
  // WireSize() is exact (net_test pins it to the codec), so the frame
  // length is known before a single byte is encoded.
  const uint32_t body = static_cast<uint32_t>(msg.WireSize());
  char prefix[4];
  for (int i = 0; i < 4; ++i) {
    prefix[i] = static_cast<char>((body >> (8 * i)) & 0xff);
  }
  SliceChain chain =
      EncodeMessageSlices(std::move(msg), std::string_view(prefix, 4));
  const size_t frame_bytes = chain.size();

  std::lock_guard<std::mutex> lock(conn->write_mu);
  if (conn->closed) return Status::Unavailable("connection closed");
  if (conn->wbytes > kMaxWriteBacklog) {
    return Status::Unavailable("tcp: write backlog full");
  }
  size_t off = 0;
  if (conn->wq.empty()) {
    // Queue empty: try the socket inline on the caller's thread — the
    // common case finishes here without waking the reactor, gathering the
    // header and borrowed payload slices in one sendmsg.
    while (off < frame_bytes) {
      ssize_t w = SendChain(conn->fd, chain, off);
      if (w < 0) {
        if (errno == EINTR) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) break;
        return Status::IOError(std::string("sendmsg: ") +
                               std::strerror(errno));
      }
      off += static_cast<size_t>(w);
    }
  }
  FramesSentCounter()->Add();
  BytesSentCounter()->Add(frame_bytes);
  if (off == frame_bytes) return Status::OK();
  conn->wbytes += frame_bytes - off;
  if (conn->wq.empty()) conn->woff = off;  // else off == 0
  conn->wq.push_back(std::move(chain));
  if (!conn->want_write) {
    conn->want_write = true;
    if (conn->io != nullptr) {
      epoll_event ev{};
      ev.events = EPOLLIN | EPOLLOUT;
      ev.data.ptr = conn.get();
      ::epoll_ctl(conn->io->epfd, EPOLL_CTL_MOD, conn->fd, &ev);
    }
    // conn->io == nullptr: adoption in flight; AdoptConn arms EPOLLOUT.
  }
  return Status::OK();
}

void TcpTransport::ReactorLoop(IoThread* io) {
  ScopedRuntimeThread census("tcp/io" + std::to_string(io->index));
  std::vector<epoll_event> events(64);
  // Connections closed during the current batch are parked here so a stale
  // event later in the same batch cannot dereference freed memory.
  std::vector<std::shared_ptr<Conn>> dying;
  while (!io->stop.load(std::memory_order_acquire)) {
    int n = ::epoll_wait(io->epfd, events.data(),
                         static_cast<int>(events.size()), -1);
    if (n < 0) {
      if (errno == EINTR) continue;
      LOG_ERROR << "tcp: epoll_wait: " << std::strerror(errno);
      return;
    }
    for (int i = 0; i < n; ++i) {
      void* p = events[i].data.ptr;
      if (p == io) {
        uint64_t v;
        while (::read(io->wakeup_fd, &v, sizeof(v)) > 0) {
        }
        continue;  // stop flag re-checked at loop top
      }
      if (p == this) {
        AcceptReady();
        continue;
      }
      Conn* raw = static_cast<Conn*>(p);
      std::shared_ptr<Conn> conn;
      {
        std::lock_guard<std::mutex> lock(io->conns_mu);
        auto it = io->conns.find(raw);
        if (it == io->conns.end()) continue;  // closed earlier this batch
        conn = it->second;
      }
      if (events[i].events & (EPOLLHUP | EPOLLERR)) {
        CloseConn(io, conn);
        dying.push_back(std::move(conn));
        continue;
      }
      if (events[i].events & EPOLLOUT) HandleWritable(io, conn);
      if (events[i].events & EPOLLIN) HandleReadable(io, conn);
      dying.push_back(std::move(conn));
    }
    dying.clear();
  }
}

void TcpTransport::AcceptReady() {
  for (;;) {
    int fd = ::accept4(listen_fd_.load(std::memory_order_relaxed), nullptr,
                       nullptr, SOCK_NONBLOCK);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // EAGAIN (drained) or listener closed
    }
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    auto conn = std::make_shared<Conn>();
    conn->fd = fd;
    {
      std::lock_guard<std::mutex> lock(mu_);
      accepted_.push_back(conn);
    }
    if (!AdoptConn(conn).ok()) return;  // shutting down
  }
}

void TcpTransport::HandleReadable(IoThread* io,
                                  const std::shared_ptr<Conn>& conn) {
  char buf[65536];
  for (;;) {
    ssize_t r = ::recv(conn->fd, buf, sizeof(buf), 0);
    if (r > 0) {
      conn->rbuf.append(buf, static_cast<size_t>(r));
      continue;
    }
    if (r == 0) {  // clean EOF
      CloseConn(io, conn);
      return;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    CloseConn(io, conn);
    return;
  }
  // Parse every complete frame out of the buffer.
  size_t pos = 0;
  std::string& rbuf = conn->rbuf;
  while (rbuf.size() - pos >= 4) {
    uint32_t len = 0;
    for (int i = 0; i < 4; ++i) {
      len |= static_cast<uint32_t>(static_cast<uint8_t>(rbuf[pos + i]))
             << (8 * i);
    }
    if (len > kMaxFrameBytes) {
      LOG_ERROR << "tcp: oversized frame (" << len << " bytes); closing";
      CloseConn(io, conn);
      return;
    }
    if (rbuf.size() - pos - 4 < len) break;
    FramesReceivedCounter()->Add();
    BytesReceivedCounter()->Add(len + 4);
    Result<Message> msg =
        DecodeMessage(std::string_view(rbuf.data() + pos + 4, len));
    pos += 4 + len;
    if (!msg.ok()) {
      LOG_ERROR << "tcp: undecodable frame; closing: "
                << msg.status().ToString();
      CloseConn(io, conn);
      return;
    }
    Dispatch(conn, std::move(msg).value());
  }
  rbuf.erase(0, pos);
}

void TcpTransport::Dispatch(const std::shared_ptr<Conn>& conn, Message msg) {
  if (!msg.from.empty()) {
    // Peer learning: the sender is reachable over this connection.
    std::lock_guard<std::mutex> lock(mu_);
    learned_[msg.from] = conn;
  }
  if (msg.is_response) {
    // Inline on the reactor: response handlers only complete pending calls
    // and never block, and this path must not depend on a free worker.
    DeliverLocal(std::move(msg));
    return;
  }
  {
    std::lock_guard<std::mutex> lock(conn->in_mu);
    conn->inbox.push_back(std::move(msg));
    if (conn->drain_scheduled) return;
    conn->drain_scheduled = true;
  }
  if (!executor_->Submit(
          conn->gate.Wrap([this, conn] { DrainInbox(conn); }))) {
    std::lock_guard<std::mutex> lock(conn->in_mu);
    conn->drain_scheduled = false;
  }
}

void TcpTransport::DrainInbox(const std::shared_ptr<Conn>& conn) {
  // Runs under conn->gate (the strand): requests from one connection are
  // delivered one at a time, like the per-connection reader they replace.
  for (;;) {
    Message msg;
    {
      std::lock_guard<std::mutex> lock(conn->in_mu);
      if (conn->inbox.empty()) {
        conn->drain_scheduled = false;
        return;
      }
      msg = std::move(conn->inbox.front());
      conn->inbox.pop_front();
    }
    DeliverLocal(std::move(msg));
  }
}

void TcpTransport::HandleWritable(IoThread* io,
                                  const std::shared_ptr<Conn>& conn) {
  bool fatal = false;
  {
    std::lock_guard<std::mutex> lock(conn->write_mu);
    while (!conn->wq.empty()) {
      const SliceChain& f = conn->wq.front();
      ssize_t w = SendChain(conn->fd, f, conn->woff);
      if (w < 0) {
        if (errno == EINTR) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) return;  // still armed
        fatal = true;
        break;
      }
      conn->woff += static_cast<size_t>(w);
      conn->wbytes -= static_cast<size_t>(w);
      if (conn->woff == f.size()) {
        conn->woff = 0;
        conn->wq.pop_front();
      }
    }
    if (!fatal) {
      conn->want_write = false;
      epoll_event ev{};
      ev.events = EPOLLIN;
      ev.data.ptr = conn.get();
      ::epoll_ctl(io->epfd, EPOLL_CTL_MOD, conn->fd, &ev);
      return;
    }
  }
  CloseConn(io, conn);
}

void TcpTransport::CloseConn(IoThread* io,
                             const std::shared_ptr<Conn>& conn) {
  {
    std::lock_guard<std::mutex> lock(io->conns_mu);
    if (io->conns.erase(conn.get()) == 0) return;  // already closed
  }
  ::epoll_ctl(io->epfd, EPOLL_CTL_DEL, conn->fd, nullptr);
  {
    std::lock_guard<std::mutex> lock(conn->write_mu);
    conn->closed = true;
    conn->wq.clear();
    conn->wbytes = 0;
  }
  ::close(conn->fd);
  // Drop it from the routing tables so the next Send reconnects instead of
  // writing into a dead socket.
  std::lock_guard<std::mutex> lock(mu_);
  for (auto it = conns_.begin(); it != conns_.end();) {
    it = (it->second == conn) ? conns_.erase(it) : std::next(it);
  }
  for (auto it = learned_.begin(); it != learned_.end();) {
    std::shared_ptr<Conn> target = it->second.lock();
    if (target == nullptr || target == conn) {
      it = learned_.erase(it);
    } else {
      ++it;
    }
  }
  for (auto it = accepted_.begin(); it != accepted_.end();) {
    it = (*it == conn) ? accepted_.erase(it) : std::next(it);
  }
}

void TcpTransport::Shutdown() {
  bool expected = false;
  if (!shutdown_.compare_exchange_strong(expected, true)) return;
  int lfd = listen_fd_.exchange(-1);
  if (lfd >= 0) ::close(lfd);  // close also deregisters it from epoll

  std::vector<std::shared_ptr<Conn>> all;
  {
    std::lock_guard<std::mutex> lock(io_mu_);
    for (auto& io : io_threads_) {
      io->stop.store(true, std::memory_order_release);
      uint64_t one = 1;
      (void)!::write(io->wakeup_fd, &one, sizeof(one));
    }
    for (auto& io : io_threads_) {
      if (io->thread.joinable()) io->thread.join();
    }
    for (auto& io : io_threads_) {
      {
        // A strand body still running may reconnect meanwhile; AdoptConn
        // registers under conns_mu and drops the connection once stop is set.
        std::lock_guard<std::mutex> cl(io->conns_mu);
        for (auto& [_, conn] : io->conns) {
          {
            std::lock_guard<std::mutex> wl(conn->write_mu);
            conn->closed = true;
          }
          ::close(conn->fd);
        }
        io->conns.clear();
        for (const auto& weak : io->strands) {
          if (std::shared_ptr<Conn> conn = weak.lock()) all.push_back(conn);
        }
        io->strands.clear();
      }
      ::close(io->epfd);
      ::close(io->wakeup_fd);
    }
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    conns_.clear();
    accepted_.clear();
    learned_.clear();
  }
  // Fence the strands, those of connections CloseConn already dropped
  // included: after Close() no queued or running DrainInbox body will touch
  // this transport again (undelivered requests are dropped, like the
  // in-flight messages a real crash loses). CloseConn itself never closes
  // a gate, since it may run under one.
  for (auto& conn : all) conn->gate.Close();
}

}  // namespace chariots::net
