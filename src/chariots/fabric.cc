#include "chariots/fabric.h"

#include "common/codec.h"

namespace chariots::geo {

namespace {
constexpr uint16_t kReplicationOpcode = 100;
}  // namespace

TransportFabric::TransportFabric(net::Transport* transport)
    : transport_(transport) {}

TransportFabric::~TransportFabric() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [dc, _] : registered_) {
    (void)transport_->Unregister(NodeFor(dc));
  }
}

std::string TransportFabric::NodeFor(DatacenterId dc) {
  return "geo/dc" + std::to_string(dc) + "/receiver";
}

Status TransportFabric::RegisterReceiver(DatacenterId dc, Handler handler) {
  CHARIOTS_RETURN_IF_ERROR(transport_->Register(
      NodeFor(dc), [handler = std::move(handler)](net::Message msg) {
        // Sender id travels in the first 4 payload bytes.
        BinaryReader r(msg.payload);
        uint32_t from = 0;
        if (!r.GetU32(&from).ok()) return;
        handler(from, msg.payload.substr(4));
      }));
  std::lock_guard<std::mutex> lock(mu_);
  registered_[dc] = true;
  return Status::OK();
}

Status TransportFabric::Unregister(DatacenterId dc) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    registered_.erase(dc);
  }
  return transport_->Unregister(NodeFor(dc));
}

Status TransportFabric::Send(DatacenterId from, DatacenterId to,
                             std::string payload) {
  net::Message msg;
  msg.from = NodeFor(from);
  msg.to = NodeFor(to);
  msg.type = kReplicationOpcode;
  BinaryWriter w;
  w.PutU32(from);
  w.PutRaw(payload);
  msg.payload = std::move(w).data();
  return transport_->Send(std::move(msg));
}

}  // namespace chariots::geo
