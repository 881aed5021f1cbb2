// NUMA topology of the emulated testbed.
//
// The paper's machine is a 2-socket Xeon Gold 5218R with DRAM on both
// sockets and an *asymmetric* Optane population (2 DIMMs on socket 0, 4 on
// socket 1). The OS view is three NUMA nodes; internally we track the two
// NVM DIMM groups separately because their bandwidth differs, giving four
// memory "nodes":
//
//   D0: socket-0 DRAM   D1: socket-1 DRAM
//   N0: socket-0 NVM (2 DIMMs)   N1: socket-1 NVM (4 DIMMs)
//
// Remote (cross-socket) accesses traverse the UPI link, adding latency and
// capping bandwidth; cross-socket NVM additionally collapses to a small
// fraction of its local bandwidth (directory coherence + WPQ interaction),
// which is how the testbed's dismal Tier-3 figure of 0.47 GB/s arises.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/units.hpp"
#include "mem/technology.hpp"

namespace tsx::mem {

using SocketId = int;
using NodeId = int;

/// One group of identical DIMMs attached to one socket.
struct MemNodeSpec {
  std::string name;
  SocketId socket = 0;
  const MemoryTechnology* tech = nullptr;
  int dimms = 0;
  Bytes capacity;

  Bandwidth peak_read_bw() const {
    return tech->read_bw_per_dimm * static_cast<double>(dimms);
  }
  Bandwidth peak_write_bw() const {
    return tech->write_bw_per_dimm() * static_cast<double>(dimms);
  }
};

/// Cross-socket interconnect model (one UPI hop).
struct UpiSpec {
  /// Extra latency a remote DRAM access pays.
  Duration dram_hop_latency = Duration::nanos(53.1);
  /// Extra latency a remote NVM access pays (slightly higher: the home
  /// agent must also consult the DCPM controller's directory state).
  Duration nvm_hop_latency = Duration::nanos(59.2);
  /// Peak cross-socket bandwidth (caps remote DRAM streams).
  Bandwidth bandwidth_cap = Bandwidth::gb_per_sec(31.6);
  /// Fraction of local NVM bandwidth that survives a remote access pattern
  /// (measured collapse on the testbed; see Table I, Tier 3).
  double nvm_remote_efficiency = 0.47 / (10.7 / 4.0 * 2.0);
};

struct TopologySpec {
  int sockets = 2;
  int cores_per_socket = 20;
  int threads_per_core = 2;
  UpiSpec upi;
  std::vector<MemNodeSpec> nodes;

  int hw_threads_per_socket() const {
    return cores_per_socket * threads_per_core;
  }

  const MemNodeSpec& node(NodeId id) const;
  NodeId dram_node_of(SocketId socket) const;
  /// NVM group attached to the given socket (the testbed has one per socket).
  NodeId nvm_node_of(SocketId socket) const;
  bool is_remote(SocketId from, NodeId to) const {
    return node(to).socket != from;
  }
};

/// The testbed of Sec. III-A: 2x20-core Xeon 5218R, 4x32 GB DDR4,
/// 6x256 GB Optane DCPM split 2/4 across sockets.
TopologySpec testbed_topology();

/// A what-if variant of the testbed with the Optane DIMM groups replaced by
/// CXL-DRAM expanders of the same capacity layout — the "upcoming
/// technologies aim to bridge existing performance gaps" scenario of the
/// paper's introduction. Everything else (sockets, DRAM, UPI) is identical,
/// so tier-relative comparisons isolate the capacity-tier technology.
TopologySpec cxl_topology();

}  // namespace tsx::mem
