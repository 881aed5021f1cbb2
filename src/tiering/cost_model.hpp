// Migration cost model: migration is never free.
//
// A migration copies a region out of its source tier and into its
// destination tier. Both halves run through the machine's fluid channels —
// the same channels foreground task flows use — so migration traffic
// contends with (and is slowed by) the workload, exactly like a kernel
// migration thread stealing memory bandwidth. The traffic ledger is charged
// on both nodes, which automatically propagates the copy into the ipmctl
// counters, the DIMM energy report and the NVM wear model; Optane's write
// asymmetry is honored because the write half is capped by the destination
// tier's (much lower) write bandwidth.
#pragma once

#include <functional>

#include "core/units.hpp"
#include "mem/machine.hpp"
#include "mem/tier.hpp"

namespace tsx::tiering {

/// Closed-form idle-machine cost of one migration, for planning/reporting.
struct MigrationEstimate {
  Duration copy_time;       ///< read + write halves on an idle machine
  Bytes nvm_bytes_written;  ///< bytes the copy lands on NVM media
  Energy nvm_write_energy;  ///< dynamic write energy of those bytes
};

class MigrationCostModel {
 public:
  /// `socket` is the compute socket the copy engine runs on (the bound
  /// socket: that is whose view of the tiers determines the channels).
  MigrationCostModel(mem::MachineModel& machine, mem::SocketId socket);

  MigrationEstimate estimate(mem::TierId from, mem::TierId to,
                             Bytes bytes) const;

  /// Starts the copy: a read flow on the source tier's channel chained
  /// into a write flow on the destination tier's channel. The ledger is
  /// charged as the flows start; `on_done` fires when the last byte lands.
  void execute(mem::TierId from, mem::TierId to, Bytes bytes,
               std::function<void()> on_done);

 private:
  mem::MachineModel& machine_;
  mem::SocketId socket_;
};

}  // namespace tsx::tiering
