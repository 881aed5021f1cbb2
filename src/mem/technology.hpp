// Memory technology models.
//
// A MemoryTechnology bundles the handful of device-level parameters the
// whole study turns on: idle access latency, read/write asymmetry, per-DIMM
// sustainable bandwidth, per-byte dynamic energy and per-DIMM static power.
// Two presets are provided, calibrated to the paper's testbed (DDR4-2666 and
// first-generation Intel Optane DCPM in App Direct mode).
#pragma once

#include <string>

#include "core/units.hpp"

namespace tsx::mem {

enum class TechKind { kDram, kNvm };

struct MemoryTechnology {
  std::string name;
  TechKind kind = TechKind::kDram;

  /// Idle (unloaded) read latency for a dependent 64 B access.
  Duration read_latency;
  /// Write latency as a multiple of read latency. DRAM is symmetric (~1);
  /// Optane media writes are ~3x slower than reads [Shanbhag et al. 2020].
  double write_latency_factor = 1.0;

  /// Peak sustainable read bandwidth per DIMM.
  Bandwidth read_bw_per_dimm;
  /// Write bandwidth as a fraction of read bandwidth per DIMM (Optane ~1/4).
  double write_bw_fraction = 1.0;

  /// Dynamic energy per byte read / written (device + channel).
  double read_pj_per_byte = 0.0;
  double write_pj_per_byte = 0.0;
  /// Static (background + refresh/controller) power per DIMM while the
  /// module is online.
  Power static_power_per_dimm;

  /// Media access granularity: Optane reads/writes whole 256 B lines, so
  /// 64 B cacheline traffic suffers up to 4x amplification on the media
  /// counters (ipmctl reports media ops, not demand ops).
  Bytes media_granularity = Bytes::of(64);

  /// Queueing sensitivity: multiplier k in the loaded-latency model
  /// L = L_idle * (1 + k * rho^2 / (1 - rho)). NVM has shallower queues and
  /// a write-combining buffer that saturates earlier, hence a larger k.
  double queue_sensitivity = 1.0;

  Duration write_latency() const { return read_latency * write_latency_factor; }
  Bandwidth write_bw_per_dimm() const {
    return read_bw_per_dimm * write_bw_fraction;
  }
};

/// DDR4-2666 DIMM as in the testbed (32 GB RDIMMs, 2 channels/socket used).
const MemoryTechnology& ddr4();

/// Intel Optane DC Persistent Memory 100-series (256 GB, App Direct).
const MemoryTechnology& optane_dcpm();

/// CXL-attached DRAM expander (the upcoming capacity tier the paper's
/// introduction motivates — Samsung Memory Expander / CXL 2.0): DRAM media
/// behind a CXL.mem link, so symmetric reads/writes at roughly one extra
/// NUMA hop of latency and PCIe-5 x8-class bandwidth per device.
const MemoryTechnology& cxl_dram();

std::string to_string(TechKind kind);
/// Range-checked inverse of `static_cast<int>(kind)`.
TechKind tech_kind_from_index(int i);

}  // namespace tsx::mem
