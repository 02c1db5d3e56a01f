#ifndef CHARIOTS_NET_TRANSPORT_H_
#define CHARIOTS_NET_TRANSPORT_H_

#include <functional>
#include <utility>

#include "common/status.h"
#include "net/message.h"

namespace chariots::net {

/// Callback invoked for each inbound message, on a transport delivery
/// thread or — for a request its node declared inline-safe — possibly on
/// the thread that sent it. Handlers must be fast or hand off to their own
/// executor; one slow handler stalls that node's inbox.
using MessageHandler = std::function<void(Message)>;

/// Says which inbound requests a node's handler serves without ever
/// blocking: no blocking Call(), no wait on another message. Must be pure;
/// a transport may consult it on any thread, under its own locks.
using InlineSafeFn = std::function<bool(const Message&)>;

/// Abstract point-to-point message fabric. Implementations: InProcTransport
/// (simulated latency/bandwidth inside one process) and TcpTransport (real
/// sockets). Delivery is at-most-once and FIFO per (from, to) pair unless a
/// fault model says otherwise.
class Transport {
 public:
  virtual ~Transport() = default;

  /// Binds `node` to `handler`. Fails with AlreadyExists if bound.
  virtual Status Register(const NodeId& node, MessageHandler handler) = 0;

  /// Register, declaring the requests `inline_safe` accepts as never
  /// blocking their handler, so the transport may run them to completion
  /// on the sending thread instead of queueing them for a delivery thread.
  /// The default ignores the declaration: every request takes the queued
  /// path, as with Register.
  virtual Status RegisterInlineSafe(const NodeId& node, MessageHandler handler,
                                    InlineSafeFn inline_safe) {
    (void)inline_safe;
    return Register(node, std::move(handler));
  }

  /// Removes a binding; in-flight messages to the node are dropped.
  virtual Status Unregister(const NodeId& node) = 0;

  /// Queues `msg` for delivery to `msg.to`. Returns NotFound if the
  /// destination was never registered (delivery failures after a successful
  /// Send are silent, like a real network). A request the destination
  /// declared inline-safe may be handled before Send returns.
  virtual Status Send(Message msg) = 0;
};

/// Brackets a blocking wait on the network (RpcEndpoint::Call, a latch over
/// a CallAsync). A thread that runs requests in line (InProcTransport) may
/// hold deliveries it claimed but has not run yet, and replies it has not
/// sent; on entry the scope sends the replies and puts the requests at the
/// front of their nodes' queues, for the executor to run, and sends made
/// inside it take the queued path, so the wait never depends on work only
/// the waiting thread would do.
/// Defined beside the in-process trampoline it flushes; a no-op on a thread
/// that is not running one.
class BlockingWaitScope {
 public:
  BlockingWaitScope();
  ~BlockingWaitScope();

  BlockingWaitScope(const BlockingWaitScope&) = delete;
  BlockingWaitScope& operator=(const BlockingWaitScope&) = delete;

 private:
  bool active_ = false;
};

}  // namespace chariots::net

#endif  // CHARIOTS_NET_TRANSPORT_H_
