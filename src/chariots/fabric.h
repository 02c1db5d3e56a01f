#ifndef CHARIOTS_CHARIOTS_FABRIC_H_
#define CHARIOTS_CHARIOTS_FABRIC_H_

#include <functional>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>

#include "chariots/record.h"
#include "common/status.h"
#include "net/rpc.h"
#include "net/transport.h"

namespace chariots::geo {

/// Inter-datacenter message fabric over a net::Transport (in-process
/// simulated WAN or TCP): each datacenter is the node "geo/dc<N>/receiver";
/// replication payloads travel as one-way messages, so latency, bandwidth
/// caps, partitions and message loss configured on the transport all apply
/// to replication traffic. The payload travels as is, never re-framed: the
/// receiver learns the sending datacenter from the message's sender node.
/// A zero-latency InProcTransport stands in for a perfect network in tests.
class TransportFabric {
 public:
  using Handler = std::function<void(DatacenterId from, std::string payload)>;

  explicit TransportFabric(net::Transport* transport);
  ~TransportFabric();

  /// Binds the receiving side of datacenter `dc`.
  Status RegisterReceiver(DatacenterId dc, Handler handler);
  Status Unregister(DatacenterId dc);

  /// Ships `payload` from `from` to `to`. Best-effort: loss surfaces as a
  /// missing delivery, not an error.
  Status Send(DatacenterId from, DatacenterId to, std::string payload);

  /// The transport node id used for datacenter `dc`.
  static std::string NodeFor(DatacenterId dc);
  /// The datacenter whose node id NodeFor() made `node`; nullopt for any
  /// other node id.
  static std::optional<DatacenterId> DatacenterOf(std::string_view node);

 private:
  net::Transport* const transport_;
  std::mutex mu_;
  std::unordered_map<DatacenterId, bool> registered_;
};

}  // namespace chariots::geo

#endif  // CHARIOTS_CHARIOTS_FABRIC_H_
