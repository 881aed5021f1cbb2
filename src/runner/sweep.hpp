// Declarative experiment sweeps.
//
// Every experiment in the paper is a cross-product of configuration axes
// (apps x scales x tiers x executor grids x MBA caps x machine variants ...)
// over independent, deterministic simulations. SweepSpec names the axes once
// and enumerates the product into concrete RunConfigs; the enumeration order
// and the per-config seed derivation are fixed and documented, so a sweep's
// run list — and therefore each run's result — is identical no matter who
// executes it, in what order, or on how many threads.
//
// Enumeration order (outermost to innermost axis):
//   app -> scale -> tier -> deployment -> mba -> machine ->
//   background_load -> zero_copy -> tiering_policy -> repeat
//
// Seeds: repeat r of a config uses `seed + r * 0x9e3779b9` (a golden-ratio
// stride), assigned at enumeration time — never from execution order.
#pragma once

#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "fault/options.hpp"
#include "tiering/options.hpp"
#include "workloads/runner.hpp"

namespace tsx::runner {

/// One executor-grid cell: how many executors, each with how many cores.
struct Deployment {
  int executors = 1;
  int cores_per_executor = 40;
};

class SweepSpec {
 public:
  /// Axis setters. Each defaults to the single value a default-constructed
  /// RunConfig carries, so an empty spec enumerates exactly {RunConfig{}}.
  SweepSpec& apps(std::vector<workloads::App> v);
  SweepSpec& all_apps();
  SweepSpec& scales(std::vector<workloads::ScaleId> v);
  SweepSpec& all_scales();
  SweepSpec& tiers(std::vector<mem::TierId> v);
  SweepSpec& all_tiers();
  /// Explicit (executors, cores) cells, for grids where the two are coupled.
  SweepSpec& deployments(std::vector<Deployment> v);
  SweepSpec& mba_levels(std::vector<int> v);
  SweepSpec& machines(std::vector<workloads::MachineVariant> v);
  SweepSpec& background_loads(std::vector<double> v);
  SweepSpec& zero_copy(std::vector<bool> v);
  /// Tiering-policy axis; every other tiering knob comes from `tiering()`.
  SweepSpec& tiering_policies(std::vector<tiering::PolicyKind> v);
  SweepSpec& all_tiering_policies();

  /// Single-valued knobs applied to every enumerated config. Socket and the
  /// placement overrides keep RunConfig's defaults.
  /// Base tiering configuration; the policy axis overwrites `.policy`.
  SweepSpec& tiering(tiering::TieringConfig base);
  /// Fault-injection plan applied to every enumerated config (default:
  /// faults disabled).
  SweepSpec& fault(fault::FaultConfig config);
  SweepSpec& seed(std::uint64_t s);
  /// Each config is enumerated `n` times with derived seeds (repeat axis,
  /// innermost).
  SweepSpec& repeats(int n);

  /// Number of configs `enumerate` will produce.
  std::size_t size() const;

  /// The cross product, in the documented order.
  std::vector<workloads::RunConfig> enumerate() const;

 private:
  std::vector<workloads::App> apps_{workloads::App::kSort};
  std::vector<workloads::ScaleId> scales_{workloads::ScaleId::kTiny};
  std::vector<mem::TierId> tiers_{mem::TierId::kTier0};
  std::vector<Deployment> deployments_{{1, 40}};
  std::vector<int> mba_levels_{100};
  std::vector<workloads::MachineVariant> machines_{
      workloads::MachineVariant::kDramNvm};
  std::vector<double> background_loads_{0.0};
  std::vector<bool> zero_copy_{false};
  std::vector<tiering::PolicyKind> tiering_policies_{
      tiering::PolicyKind::kStatic};
  tiering::TieringConfig tiering_;
  fault::FaultConfig fault_;
  std::uint64_t seed_ = 42;
  int repeats_ = 1;
};

/// Key used to regroup sweep results the way the paper's figures are read:
/// one (app, scale) workload, compared across whatever varied.
using WorkloadKey = std::pair<workloads::App, workloads::ScaleId>;

/// Index a run set by (app, scale); within a group, runs keep sweep order
/// (so an all-tiers sweep yields one run per tier, in tier order).
std::map<WorkloadKey, std::vector<const workloads::RunResult*>>
group_by_workload(const std::vector<workloads::RunResult>& runs);

}  // namespace tsx::runner
