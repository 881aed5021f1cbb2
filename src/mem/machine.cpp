#include "mem/machine.hpp"

#include <algorithm>

#include "core/error.hpp"

namespace tsx::mem {

namespace {
constexpr double kCacheline = 64.0;
/// Utilization beyond this point saturates the queueing term instead of
/// diverging (the fluid model already rations bandwidth at 1.0).
constexpr double kRhoMax = 0.95;
/// Peak bandwidth one core's request stream can draw from the memory
/// subsystem; Intel MBA throttles by delaying each core's requests, so the
/// throttle scales this per-core ceiling, not the channel capacity.
constexpr double kPerCoreBwLimitGBs = 8.0;
/// Sequential throughput of the disk the DFS lives on (the testbed used
/// SATA SSDs).
constexpr Bandwidth kStorageBandwidth = Bandwidth::gb_per_sec(0.5);
}  // namespace

MachineModel::MachineModel(sim::Simulator& simulator, TopologySpec topology)
    : sim_(simulator),
      topology_(std::move(topology)),
      traffic_(topology_.nodes.size()) {
  for (int s = 0; s < topology_.sockets; ++s) {
    cores_.push_back(std::make_unique<sim::CorePool>(
        sim_, "socket" + std::to_string(s),
        static_cast<std::size_t>(topology_.hw_threads_per_socket())));
  }
  for (std::size_t n = 0; n < topology_.nodes.size(); ++n) {
    const MemNodeSpec& node = topology_.nodes[n];
    channels_.push_back(std::make_unique<sim::FluidChannel>(
        sim_, node.name, node.peak_read_bw()));
  }
  // One path channel per (socket, remote node) pair: the UPI bottleneck.
  for (SocketId s = 0; s < topology_.sockets; ++s) {
    for (std::size_t n = 0; n < topology_.nodes.size(); ++n) {
      const auto node = static_cast<NodeId>(n);
      if (!topology_.is_remote(s, node)) continue;
      paths_.emplace(PathKey{s, node},
                     std::make_unique<sim::FluidChannel>(
                         sim_,
                         "upi:s" + std::to_string(s) + "->" +
                             topology_.nodes[n].name,
                         path_capacity(s, node)));
    }
  }
  storage_ = std::make_unique<sim::FluidChannel>(sim_, "storage",
                                                 kStorageBandwidth);
}

Bandwidth MachineModel::path_capacity(SocketId socket, NodeId node) const {
  const MemNodeSpec& spec = topology_.node(node);
  TSX_CHECK(topology_.is_remote(socket, node), "path to a local node");
  if (spec.tech->kind == TechKind::kNvm) {
    // Cross-socket Optane collapses far below the UPI cap (Table I Tier 3).
    return spec.peak_read_bw() * topology_.upi.nvm_remote_efficiency;
  }
  return std::min(spec.peak_read_bw(), topology_.upi.bandwidth_cap);
}

sim::CorePool& MachineModel::socket_cores(SocketId socket) {
  TSX_CHECK(socket >= 0 && socket < topology_.sockets, "bad socket id");
  return *cores_[static_cast<std::size_t>(socket)];
}

sim::FluidChannel& MachineModel::channel(NodeId node) {
  TSX_CHECK(node >= 0 && static_cast<std::size_t>(node) < channels_.size(),
            "bad node id");
  return *channels_[static_cast<std::size_t>(node)];
}

sim::FluidChannel& MachineModel::channel_for(SocketId socket, NodeId node) {
  const auto it = paths_.find(PathKey{socket, node});
  if (it != paths_.end()) return *it->second;
  return channel(node);
}

const sim::FluidChannel& MachineModel::channel_for(SocketId socket,
                                                   NodeId node) const {
  const auto it = paths_.find(PathKey{socket, node});
  if (it != paths_.end()) return *it->second;
  TSX_CHECK(node >= 0 && static_cast<std::size_t>(node) < channels_.size(),
            "bad node id");
  return *channels_[static_cast<std::size_t>(node)];
}

Duration MachineModel::loaded_latency(SocketId socket, const TierSpec& spec,
                                      AccessKind kind) const {
  const double rho =
      std::min(channel_for(socket, spec.node).utilization(), kRhoMax);
  // Quadratic rise, saturating at 1 + k: a loaded DDR/DCPM controller
  // roughly doubles-to-triples its unloaded latency, it does not diverge
  // (the fluid channel already rations bandwidth at saturation).
  const double k = spec.tech->queue_sensitivity;
  const double inflation = 1.0 + k * rho * rho;
  return spec.latency(kind) * inflation;
}

Bandwidth MachineModel::flow_cap(SocketId socket, const TierSpec& spec,
                                 AccessKind kind, double mlp) const {
  TSX_CHECK(mlp > 0.0, "mlp must be positive");
  const Duration lat = loaded_latency(socket, spec, kind);
  const Bandwidth demand{mlp * kCacheline / lat.sec()};
  // MBA throttles the per-core request rate; flows below the throttled
  // ceiling (latency-bound traffic) are unaffected — the Fig. 3 effect.
  const Bandwidth core_limit = Bandwidth::gb_per_sec(
      kPerCoreBwLimitGBs * static_cast<double>(throttle_percent_) / 100.0);
  return std::min({demand, spec.bandwidth(kind), core_limit});
}

void MachineModel::submit_transfer(const TransferRequest& request,
                                   std::function<void()> on_complete) {
  const TierSpec spec = tier(request.socket, request.tier);
  if (request.kind == AccessKind::kRead)
    traffic_.record_read(spec.node, request.volume);
  else
    traffic_.record_write(spec.node, request.volume);

  const Bandwidth cap = flow_cap(request.socket, spec, request.kind,
                                 request.mlp);
  channel_for(request.socket, spec.node)
      .start_flow(request.volume, cap, std::move(on_complete));
}

Duration MachineModel::idle_transfer_time(
    const TransferRequest& request) const {
  const TierSpec spec = tier(request.socket, request.tier);
  const Bandwidth cap{request.mlp * kCacheline /
                      spec.latency(request.kind).sec()};
  const Bandwidth rate = std::min(cap, spec.bandwidth(request.kind));
  return request.volume / rate;
}

std::vector<const sim::FluidChannel*> MachineModel::all_memory_channels()
    const {
  std::vector<const sim::FluidChannel*> out;
  for (const auto& ch : channels_) out.push_back(ch.get());
  for (const auto& [key, path] : paths_) out.push_back(path.get());
  return out;
}

void MachineModel::set_memory_throttle_percent(int percent) {
  TSX_CHECK(percent >= 10 && percent <= 100,
            "MBA supports 10%..100% in steps of 10");
  // Affects per-flow rate caps (per-core request throttling); channel
  // capacities are device properties and stay untouched. Only flows created
  // after the change see the new ceiling, matching how MSR-programmed MBA
  // delays apply to subsequent requests.
  throttle_percent_ = percent;
}

}  // namespace tsx::mem
