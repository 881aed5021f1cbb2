#include "mem/technology.hpp"

#include "core/error.hpp"

namespace tsx::mem {

// Calibration notes
// -----------------
// The latency/bandwidth figures below are chosen so that the derived tier
// table (mem/tier.cpp) reproduces the paper's Table I exactly; energy and
// asymmetry figures follow published Optane characterizations (Shanbhag et
// al., DaMoN'20; Izraelevitz et al., arXiv:1903.05714) and DDR4 datasheets.

const MemoryTechnology& ddr4() {
  static const MemoryTechnology tech = [] {
    MemoryTechnology t;
    t.name = "DDR4-2666";
    t.kind = TechKind::kDram;
    // Table I, Tier 0: 77.8 ns idle load-to-use from the local socket.
    t.read_latency = Duration::nanos(77.8);
    t.write_latency_factor = 1.0;  // DRAM is read/write symmetric
    // Table I, Tier 0: 39.3 GB/s over the 2 populated DIMMs of one socket.
    t.read_bw_per_dimm = Bandwidth::gb_per_sec(39.3 / 2.0);
    t.write_bw_fraction = 1.0;
    t.read_pj_per_byte = 120.0;   // ~15 pJ/bit incl. channel + I/O
    t.write_pj_per_byte = 130.0;
    t.static_power_per_dimm = Power::watts(2.2);  // 32 GB RDIMM idle+refresh
    t.media_granularity = Bytes::of(64);
    t.queue_sensitivity = 0.8;
    return t;
  }();
  return tech;
}

const MemoryTechnology& optane_dcpm() {
  static const MemoryTechnology tech = [] {
    MemoryTechnology t;
    t.name = "Optane-DCPM-100";
    t.kind = TechKind::kNvm;
    // Table I, Tier 2: 172.1 ns idle read from the local socket.
    t.read_latency = Duration::nanos(172.1);
    // Media writes land in the write-pending queue but sustained dependent
    // writes cost ~3x reads on gen-1 DCPM.
    t.write_latency_factor = 3.0;
    // Table I, Tier 2: 10.7 GB/s over the 4-DIMM interleave set.
    t.read_bw_per_dimm = Bandwidth::gb_per_sec(10.7 / 4.0);
    t.write_bw_fraction = 0.25;  // sustained write bw ~ 1/4 of read
    // Lower dynamic energy per access than DRAM (no refresh on the datapath),
    // which is exactly the paper's premise in Sec. IV-D; the *total* still
    // ends up higher because runs take longer against static power.
    t.read_pj_per_byte = 100.0;
    t.write_pj_per_byte = 180.0;
    t.static_power_per_dimm = Power::watts(5.2);  // 256 GB DCPM active idle
    t.media_granularity = Bytes::of(256);  // 3D-XPoint media line
    t.queue_sensitivity = 2.5;  // shallow WPQ saturates earlier than DDR
    return t;
  }();
  return tech;
}

const MemoryTechnology& cxl_dram() {
  static const MemoryTechnology tech = [] {
    MemoryTechnology t;
    t.name = "CXL-DRAM";
    // Modeled as the capacity tier (kNvm slot in the tier table) but with
    // DRAM media behind it: symmetric access, no endurance concerns.
    t.kind = TechKind::kNvm;
    // ~170-250 ns load-to-use reported for first-generation CXL.mem.
    t.read_latency = Duration::nanos(180.0);
    t.write_latency_factor = 1.0;  // DRAM media: symmetric
    // PCIe-5 x8-class link per expander device.
    t.read_bw_per_dimm = Bandwidth::gb_per_sec(22.0);
    t.write_bw_fraction = 1.0;
    t.read_pj_per_byte = 130.0;  // DRAM media + SerDes overhead
    t.write_pj_per_byte = 140.0;
    t.static_power_per_dimm = Power::watts(6.0);  // expander incl. controller
    t.media_granularity = Bytes::of(64);
    t.queue_sensitivity = 1.0;
    return t;
  }();
  return tech;
}

std::string to_string(TechKind kind) {
  return kind == TechKind::kDram ? "DRAM" : "NVM";
}

TechKind tech_kind_from_index(int i) {
  TSX_CHECK(i >= 0 && i <= 1, "technology kind index out of range");
  return static_cast<TechKind>(i);
}

}  // namespace tsx::mem
