// Experiment runner: one isolated simulated run per configuration.
//
// A run builds a fresh Simulator + MachineModel + DFS + SparkContext, binds
// executors per the configuration (tier, socket, executor/core grid, MBA
// throttle), executes one workload at one scale, and snapshots everything
// the paper measures: execution time, per-node traffic, ipmctl-style NVDIMM
// counters, DIMM energy, wear, and synthesized system-level events. All
// bench harnesses and experiment-shape tests go through this entry point.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "dfs/options.hpp"
#include "fault/options.hpp"
#include "mem/energy.hpp"
#include "mem/tier.hpp"
#include "mem/traffic.hpp"
#include "mem/wear.hpp"
#include "metrics/nvdimm.hpp"
#include "metrics/system_events.hpp"
#include "obs/options.hpp"
#include "obs/recorder.hpp"
#include "spark/placement.hpp"
#include "tiering/options.hpp"
#include "workloads/apps.hpp"
#include "workloads/scales.hpp"

namespace tsx::workloads {

/// Which machine the run simulates.
enum class MachineVariant {
  kDramNvm,  ///< the paper's testbed: DDR4 + Optane DCPM
  kDramCxl,  ///< what-if variant: DDR4 + CXL-DRAM expanders
};

std::string to_string(MachineVariant variant);
/// Range-checked inverse of `static_cast<int>(variant)`.
MachineVariant machine_from_index(int i);

struct RunConfig {
  App app = App::kSort;
  ScaleId scale = ScaleId::kTiny;
  mem::TierId tier = mem::TierId::kTier0;
  mem::SocketId socket = 1;      ///< cpunodebind
  int executors = 1;             ///< paper default: 1 executor ...
  int cores_per_executor = 40;   ///< ... with all 40 hardware threads
  int mba_percent = 100;         ///< Intel MBA throttle (Fig. 3)
  std::uint64_t seed = 42;

  /// Per-access-type placement overrides (Sec. IV-G exploration): bind
  /// shuffle buffers / cached blocks to tiers other than the heap.
  std::optional<mem::TierId> shuffle_tier;
  std::optional<mem::TierId> cache_tier;
  /// Zero-copy shuffle over unified memory (Sec. IV-G's shuffle-avoidance).
  bool zero_copy_shuffle = false;

  /// The three placement knobs (tier / shuffle_tier / cache_tier) as one
  /// spark::PlacementSpec value.
  spark::PlacementSpec placement() const;
  RunConfig& set_placement(const spark::PlacementSpec& spec);

  /// Structured diagnostics over every knob: deployment sanity (executor
  /// and core counts, socket range, MBA window), over-capacity binds (the
  /// cached-block budget the deployment implies against the cache tier's
  /// node capacity), the tiering section (when a dynamic policy is active),
  /// the fault section (when enabled), and cross-subsystem conflicts.
  /// Empty means the config is runnable. `run_workload` and service
  /// admission both enforce this, replacing scattered ad-hoc checks.
  std::vector<Diagnostic> validate() const;

  /// Noisy-neighbor pressure: a background tenant streaming this many GB/s
  /// through the bound tier's channel for the whole run (0 = quiet).
  double background_load_gbps = 0.0;

  /// Capacity-tier technology (Optane testbed vs CXL what-if).
  MachineVariant machine = MachineVariant::kDramNvm;

  /// Dynamic page-migration subsystem. The default (`static` policy) runs
  /// the exact pre-tiering code path — the engine is not even constructed.
  tiering::TieringConfig tiering;

  /// Fault injection + recovery. The default (`enabled = false`) runs the
  /// exact pre-fault code path — the controller is not even constructed.
  fault::FaultConfig fault;

  /// Cluster DFS: topology, redundancy codec, repair pipeline. The default
  /// (replication-1, one datanode) reproduces the flat single-disk cost
  /// model bit for bit.
  dfs::DfsConfig dfs;

  /// Observability plane: span tracing + metrics + tier-time attribution.
  /// The default (`enabled = false`) records nothing — the recorder is not
  /// even constructed and every hook site is one null-pointer branch.
  obs::ObsConfig obs;

  std::string describe() const;

  /// Two configs are equal iff every knob matches — the identity the result
  /// cache memoizes on (a run is a pure function of its config).
  friend bool operator==(const RunConfig&, const RunConfig&) = default;
};

/// The one ordered RunConfig field table: every knob that can change a
/// run's outcome, named once, in the frozen order of the persisted JSON.
/// `config_fields` walks it for the hash and the canonical key, and the
/// result store's writer and reader (runner/serialize.cpp) for the JSON.
/// `v(name, field)` visits a field; an enum also passes its range-checked
/// `*_from_index` codec. An unset placement override is "none" (JSON
/// null). `C` is `RunConfig` or `const RunConfig`.
template <typename C, typename V>
void visit_config(C& c, V&& v) {
  v("app", c.app, app_from_index);
  v("scale", c.scale, scale_from_index);
  v("tier", c.tier, mem::tier_from_index);
  v("socket", c.socket);
  v("executors", c.executors);
  v("cores_per_executor", c.cores_per_executor);
  v("mba_percent", c.mba_percent);
  v("seed", c.seed);
  v("shuffle_tier", c.shuffle_tier);
  v("cache_tier", c.cache_tier);
  v("zero_copy_shuffle", c.zero_copy_shuffle);
  v("background_load_gbps", c.background_load_gbps);
  v("machine", c.machine, machine_from_index);
  v("tiering_policy", c.tiering.policy, tiering::policy_from_index);
  v("tiering_epoch_ms", c.tiering.epoch_ms);
  v("tiering_decay", c.tiering.decay);
  v("tiering_sample", c.tiering.sample, tiering::sample_mode_from_index);
  v("tiering_sample_period", c.tiering.sample_period);
  v("tiering_hint_fault_us", c.tiering.hint_fault_us);
  v("tiering_fast_gib", c.tiering.fast_capacity_gib);
  v("tiering_low_watermark", c.tiering.low_watermark);
  v("tiering_high_watermark", c.tiering.high_watermark);
  v("tiering_max_util", c.tiering.max_fast_utilization);
  v("tiering_migration_mlp", c.tiering.migration_mlp);
  v("fault_enabled", c.fault.enabled);
  v("fault_salt", c.fault.salt);
  v("fault_crashes", c.fault.executor_crashes);
  v("fault_crash_offset_s", c.fault.crash_offset_s);
  v("fault_crash_window_s", c.fault.crash_window_s);
  v("fault_restart_delay_s", c.fault.restart_delay_s);
  v("fault_offline_tier", c.fault.offline_tier);
  v("fault_offline_at_s", c.fault.offline_at_s);
  v("fault_degrade_to", c.fault.degrade_to);
  v("fault_uce_per_gib", c.fault.uce_per_gib);
  v("fault_bw_collapse_at_s", c.fault.bw_collapse_at_s);
  v("fault_bw_collapse_duration_s", c.fault.bw_collapse_duration_s);
  v("fault_bw_collapse_factor", c.fault.bw_collapse_factor);
  v("fault_bw_collapse_tier", c.fault.bw_collapse_tier);
  v("fault_straggler_prob", c.fault.straggler_prob);
  v("fault_straggler_factor", c.fault.straggler_factor);
  v("fault_max_task_attempts", c.fault.max_task_attempts);
  v("fault_backoff_base_ms", c.fault.backoff_base_ms);
  v("fault_backoff_cap_ms", c.fault.backoff_cap_ms);
  v("fault_speculation", c.fault.speculation);
  v("fault_speculation_multiplier", c.fault.speculation_multiplier);
  v("fault_speculation_min_fraction", c.fault.speculation_min_fraction);
  v("fault_datanode_crashes", c.fault.datanode_crashes);
  v("fault_datanode_at_s", c.fault.datanode_crash_at_s);
  v("fault_datanode_window_s", c.fault.datanode_crash_window_s);
  v("fault_rack_offline", c.fault.rack_offline);
  v("fault_rack_at_s", c.fault.rack_offline_at_s);
  v("fault_rack_recover_s", c.fault.rack_recover_after_s);
  v("obs_enabled", c.obs.enabled);
  v("obs_trace_filter", c.obs.trace_filter);
  v("dfs_codec", c.dfs.codec, dfs::codec_from_index);
  v("dfs_replication", c.dfs.replication);
  v("dfs_rs_k", c.dfs.rs_k);
  v("dfs_rs_m", c.dfs.rs_m);
  v("dfs_racks", c.dfs.racks);
  v("dfs_nodes_per_rack", c.dfs.nodes_per_rack);
  v("dfs_block_mib", c.dfs.block_mib);
  v("dfs_repair_gbps", c.dfs.repair_gbps);
  v("dfs_rack_gbps", c.dfs.rack_link_gbps);
}

/// The config flattened to (field name, value) pairs in table order:
/// decimal integers, %.17g doubles, booleans as 1/0, "none" for an unset
/// placement override.
std::vector<std::pair<std::string, std::string>> config_fields(
    const RunConfig& config);

/// Canonical identity string: `config_fields` sorted by field name and
/// joined as "name=value;...". Sorting makes the key — and therefore the
/// hash — independent of struct or serialization field order.
std::string canonical_key(const RunConfig& config);

/// Identity of the dataset a run generates: `canonical_key` with only the
/// tier masked (no generator reads it). Runs with equal group keys share
/// their generated partitions through the runner thread's dataset memo
/// (DESIGN.md §19).
std::string dataset_group_key(const RunConfig& config);

/// FNV-1a over a field list, sorted by name first. Exposed so tests can
/// assert order independence directly.
std::uint64_t hash_fields(
    std::vector<std::pair<std::string, std::string>> fields);

/// Stable 64-bit hash of a config (FNV-1a of `canonical_key`). Identical
/// across processes and runs; suitable as a persisted cache key.
std::uint64_t stable_hash(const RunConfig& config);

struct NodeEnergyRow {
  std::string node;
  mem::TechKind kind = mem::TechKind::kDram;
  int dimms = 0;
  mem::NodeEnergyReport report;
};

struct RunResult {
  RunConfig config;
  Duration exec_time;
  spark::TaskCost total_cost;
  std::size_t jobs = 0;
  std::size_t stages = 0;
  std::size_t tasks = 0;

  /// Demand traffic per memory node (index = NodeId).
  std::vector<mem::NodeTraffic> traffic;
  /// ipmctl view over all NVDIMMs.
  metrics::DimmMediaCounters nvdimm;
  /// Energy per node over the run window.
  std::vector<NodeEnergyRow> energy;
  /// Wear of the bound NVM node (zeros when bound to DRAM).
  mem::WearReport wear;
  /// Synthesized perf events.
  metrics::SystemEventSample events;
  /// What the tiering engine did (all-zero under the static policy).
  tiering::TieringStats tiering;
  /// What the fault plane injected and what recovery cost (all-zero when
  /// faults are disabled).
  fault::FaultStats fault;
  /// What the storage tier lost and what repair cost (all-zero without
  /// storage faults).
  dfs::DfsStats dfs;

  /// Host (real) seconds spent inside stage task execution, summed over the
  /// run's stages. Deliberately kept out of serialization — wall-clock is
  /// machine-dependent and must not perturb the bit-identity gates. Its
  /// one reader is perfbench's `spark.exec_s`.
  double host_execute_seconds = 0.0;

  /// The run's finalized span recorder (null unless `config.obs.enabled`).
  /// Like host_execute_seconds this is deliberately NOT serialized: the
  /// trace is a side artifact, and results_identical must keep comparing
  /// the simulation outcome only.
  std::shared_ptr<const obs::Recorder> trace;

  bool valid = false;
  std::string validation;

  /// True when the run itself died — an exception or a wall-clock timeout
  /// escaped the simulation. `error` then carries the reason and every
  /// metric above is default-initialized. Failed results are never cached.
  bool failed = false;
  std::string error;

  /// Energy of the bound tier's node, per DIMM (what Fig. 2-bottom plots).
  Energy bound_node_energy_per_dimm() const;
  /// Convenience: the bound node id for this run.
  mem::NodeId bound_node = 0;
};

/// Throws tsx::Error itemizing every `validate()` diagnostic; no-op on a
/// valid config.
void validate_or_throw(const RunConfig& config);

/// Executes one configuration start-to-finish in an isolated simulation.
/// Invalid configs (see RunConfig::validate) throw tsx::Error up front.
/// `wall_budget_seconds` > 0 arms a cooperative real-time budget on the
/// run's simulator: a run exceeding it throws tsx::Error (callers that
/// sandbox runs turn that into a failed RunResult).
RunResult run_workload(const RunConfig& config,
                       double wall_budget_seconds = 0.0);

/// A failed-run placeholder: config + failed flag + error string, every
/// metric zeroed. What ParallelRunner records when a run throws.
RunResult failed_result(const RunConfig& config, const std::string& error);

/// Number of simulations `run_workload` has executed in this process.
/// Monotone, thread-safe; lets callers assert a cache hit skipped the
/// simulation and lets progress reporters count real work.
std::uint64_t runs_executed();

/// Executes `repeats` runs with distinct seeds (for distribution studies).
std::vector<RunResult> run_repeats(RunConfig config, int repeats);

}  // namespace tsx::workloads
