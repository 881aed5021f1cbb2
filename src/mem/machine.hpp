// The machine model: topology + simulation resources.
//
// MachineModel instantiates, for one discrete-event Simulator, the compute
// and memory resources of the testbed: a CorePool per socket, a FluidChannel
// per memory node, a FluidChannel per cross-socket *path* (remote accesses
// are capped by the UPI link — and cross-socket NVM by its collapsed
// effective bandwidth, Table I Tier 3), plus a storage channel for the disk
// the DFS lives on, and the TrafficLedger every transfer is recorded in.
// It is the only place where tier specs, loaded latencies and flow rate
// caps are computed, so the Spark engine above it never touches device
// parameters directly.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "core/units.hpp"
#include "mem/tier.hpp"
#include "mem/topology.hpp"
#include "mem/traffic.hpp"
#include "sim/core_pool.hpp"
#include "sim/fluid_channel.hpp"
#include "sim/simulator.hpp"

namespace tsx::mem {

/// One memory phase of a task, as the cost model describes it: `volume`
/// bytes moved with `mlp` concurrently outstanding cacheline requests.
/// Latency-bound phases (pointer chasing, hash probes) have mlp ~ 1-2;
/// streaming phases (scans, shuffle spills) have mlp ~ 8-16.
struct TransferRequest {
  SocketId socket = 0;
  TierId tier = TierId::kTier0;
  AccessKind kind = AccessKind::kRead;
  Bytes volume;
  double mlp = 1.0;
};

class MachineModel {
 public:
  MachineModel(sim::Simulator& simulator,
               TopologySpec topology = testbed_topology());

  MachineModel(const MachineModel&) = delete;
  MachineModel& operator=(const MachineModel&) = delete;

  sim::Simulator& simulator() { return sim_; }
  const TopologySpec& topology() const { return topology_; }

  sim::CorePool& socket_cores(SocketId socket);

  /// The memory node's local channel.
  sim::FluidChannel& channel(NodeId node);
  /// The channel a transfer from `socket` to `node` is bottlenecked by:
  /// the node channel when local, the cross-socket path channel when remote.
  sim::FluidChannel& channel_for(SocketId socket, NodeId node);
  const sim::FluidChannel& channel_for(SocketId socket, NodeId node) const;

  /// The storage medium the DFS lives on (shared by all executors; this is
  /// what serializes concurrent HDFS readers).
  sim::FluidChannel& storage_channel() { return *storage_; }

  TrafficLedger& traffic() { return traffic_; }
  const TrafficLedger& traffic() const { return traffic_; }

  /// Resolved tier characteristics from `socket`'s point of view.
  TierSpec tier(SocketId socket, TierId tier) const {
    return resolve_tier(topology_, socket, tier);
  }

  /// Idle latency inflated by the bottleneck channel's current utilization:
  /// L = L_idle * (1 + k * rho^2 / (1 - min(rho, rho_max))). Monotone in
  /// utilization; identical to idle latency on an empty channel.
  Duration loaded_latency(SocketId socket, const TierSpec& spec,
                          AccessKind kind) const;

  /// The per-flow rate cap a single task can sustain against this tier:
  /// cap = mlp * cacheline / loaded latency, additionally bounded by the
  /// tier's peak bandwidth for the access direction.
  Bandwidth flow_cap(SocketId socket, const TierSpec& spec, AccessKind kind,
                     double mlp) const;

  /// Starts an asynchronous transfer; `on_complete` fires when it drains.
  /// The traffic ledger is charged immediately. Zero-volume requests
  /// complete via a zero-delay event.
  void submit_transfer(const TransferRequest& request,
                       std::function<void()> on_complete);

  /// Closed-form duration of a transfer on an *idle* machine — used by
  /// tests and by the analytical predictor as a lower bound.
  Duration idle_transfer_time(const TransferRequest& request) const;

  /// Rescales every memory channel (node + path) to `percent` of its peak —
  /// the Intel MBA knob. Storage is unaffected.
  void set_memory_throttle_percent(int percent);
  int memory_throttle_percent() const { return throttle_percent_; }

  /// Every memory channel (node channels first, then UPI paths), for
  /// observers that sample utilization or drained volume.
  std::vector<const sim::FluidChannel*> all_memory_channels() const;

 private:
  struct PathKey {
    SocketId socket;
    NodeId node;
    auto operator<=>(const PathKey&) const = default;
  };

  /// Peak capacity of the path from `socket` to remote `node`.
  Bandwidth path_capacity(SocketId socket, NodeId node) const;

  sim::Simulator& sim_;
  TopologySpec topology_;
  std::vector<std::unique_ptr<sim::CorePool>> cores_;
  std::vector<std::unique_ptr<sim::FluidChannel>> channels_;
  std::map<PathKey, std::unique_ptr<sim::FluidChannel>> paths_;
  std::unique_ptr<sim::FluidChannel> storage_;
  TrafficLedger traffic_;
  int throttle_percent_ = 100;
};

}  // namespace tsx::mem
