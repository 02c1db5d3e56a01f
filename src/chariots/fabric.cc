#include "chariots/fabric.h"

#include <charconv>

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

std::optional<DatacenterId> TransportFabric::DatacenterOf(
    std::string_view node) {
  constexpr std::string_view kPrefix = "geo/dc";
  constexpr std::string_view kSuffix = "/receiver";
  if (!node.starts_with(kPrefix) || !node.ends_with(kSuffix)) {
    return std::nullopt;
  }
  std::string_view digits =
      node.substr(kPrefix.size(),
                  node.size() - kPrefix.size() - kSuffix.size());
  DatacenterId dc = 0;
  auto [end, ec] =
      std::from_chars(digits.data(), digits.data() + digits.size(), dc);
  if (ec != std::errc() || end != digits.data() + digits.size()) {
    return std::nullopt;
  }
  return dc;
}

Status TransportFabric::RegisterReceiver(DatacenterId dc, Handler handler) {
  CHARIOTS_RETURN_IF_ERROR(transport_->Register(
      NodeFor(dc), [handler = std::move(handler)](net::Message msg) {
        std::optional<DatacenterId> from = DatacenterOf(msg.from);
        if (!from.has_value()) return;
        handler(*from, std::move(msg.payload));
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
  msg.payload = std::move(payload);
  return transport_->Send(std::move(msg));
}

}  // namespace chariots::geo
