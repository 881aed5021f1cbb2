// Repair pipeline plumbing: the deterministic schedule the namenode draws
// up after a loss, executed by the fault controller as background flows
// through the shared storage channel.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "core/units.hpp"

namespace tsx::dfs {

/// One chunk to re-create: read `read_bytes` from the surviving chunks
/// (k * block for RS reconstruction, one block for re-replication), write
/// `write_bytes` to the target node.
struct RepairTask {
  std::string path;
  std::size_t stripe = 0;
  int chunk_index = 0;  ///< slot within the stripe (data first, then parity)
  int target = -1;      ///< destination datanode
  Bytes read_bytes;
  Bytes write_bytes;
};

struct RepairSchedule {
  std::vector<RepairTask> tasks;
  Bytes total_read;
  Bytes total_write;
  bool empty() const { return tasks.empty(); }
};

}  // namespace tsx::dfs
