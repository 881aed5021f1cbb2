// Configuration and result summary of the dynamic tiering subsystem.
//
// TieringConfig is embedded in workloads::RunConfig, so every knob here is part
// of a run's identity: it appears in the canonical config key and the
// serialized config. The default configuration is the `static` policy — the
// paper's numactl membind baseline — under which the engine is never even
// constructed and runs are bit-identical to the pre-tiering code path.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "core/error.hpp"
#include "core/units.hpp"

namespace tsx::tiering {

/// Placement policies. `kStatic` is the paper's baseline (no migration);
/// the other two move hot regions between the fast (local DRAM) tier and
/// the run's bound capacity tier at every epoch boundary. Index 2 belonged
/// to a retired policy and is rejected, so the persisted indices stay
/// stable.
enum class PolicyKind : int {
  kStatic = 0,      ///< numactl membind: regions never move
  kLfuPromote = 1,  ///< promote hottest to DRAM, demote coldest to NVM
  kWatermark = 3,   ///< kswapd-style free-memory watermark demotion
};

inline constexpr std::array<PolicyKind, 3> kAllPolicies = {
    PolicyKind::kStatic, PolicyKind::kLfuPromote, PolicyKind::kWatermark};

std::string to_string(PolicyKind kind);
PolicyKind policy_from_index(int i);
PolicyKind policy_from_name(const std::string& name);

struct TieringConfig {
  PolicyKind policy = PolicyKind::kStatic;
  /// Epoch length: the policy runs once per epoch of virtual time.
  double epoch_ms = 50.0;

  /// DRAM carve-out the policies may fill with promoted regions, in GiB of
  /// *virtual* (cost-multiplied) bytes. Models the slice of the fast tier
  /// not claimed by the OS, the heap, or other tenants.
  double fast_capacity_gib = 8.0;

  /// Structured range checks over every knob. Empty means valid. Aggregated
  /// by RunConfig::validate (with a "tiering." field prefix) and enforced by
  /// the engine constructor.
  std::vector<Diagnostic> validate() const;

  friend bool operator==(const TieringConfig&, const TieringConfig&) = default;
};

/// What the engine did over one run; itemizes the price of every migration
/// so speedup reports can show costs next to benefits.
struct TieringStats {
  std::uint64_t epochs = 0;
  std::uint64_t promotions = 0;
  std::uint64_t demotions = 0;

  Bytes bytes_promoted;
  Bytes bytes_demoted;
  /// Migration bytes that landed on NVM media (demotion copies).
  Bytes nvm_bytes_written;
  /// Dynamic write energy those NVM bytes cost (write asymmetry honored).
  Energy nvm_write_energy;

  /// Integrated copy time over all migrations (flows overlap, so this is
  /// busy time, not wall time).
  double migration_seconds = 0.0;
};

}  // namespace tsx::tiering
