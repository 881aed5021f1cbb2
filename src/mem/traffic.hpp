// Per-node traffic ledger.
//
// Every byte the Spark engine moves through a memory node is recorded here:
// demand bytes and demand accesses, split by direction. The ipmctl-style
// NVDIMM counters (tsx::metrics) and the energy model both read from this
// ledger, so "what the counters say" and "what energy was charged" can never
// drift apart.
#pragma once

#include <cstdint>
#include <vector>

#include "core/units.hpp"
#include "mem/topology.hpp"

namespace tsx::mem {

struct NodeTraffic {
  Bytes read_bytes;
  Bytes write_bytes;
  std::uint64_t read_accesses = 0;   ///< demand accesses (cacheline-sized)
  std::uint64_t write_accesses = 0;

  std::uint64_t total_accesses() const { return read_accesses + write_accesses; }
};

class TrafficLedger {
 public:
  explicit TrafficLedger(std::size_t node_count)
      : per_node_(node_count) {}

  /// Records `bytes` of demand traffic against `node`. Access counts are
  /// derived at 64 B cacheline granularity.
  void record_read(NodeId node, Bytes bytes);
  void record_write(NodeId node, Bytes bytes);

  const NodeTraffic& node(NodeId id) const;
  std::size_t node_count() const { return per_node_.size(); }

  /// Aggregate over a set of nodes.
  NodeTraffic sum(const std::vector<NodeId>& nodes) const;

  void reset();

 private:
  std::vector<NodeTraffic> per_node_;
};

}  // namespace tsx::mem
