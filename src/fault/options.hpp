// Configuration and result summary of the fault-injection plane.
//
// FaultConfig is embedded in workloads::RunConfig, so every knob here is part
// of a run's identity: it appears in the canonical config key and the
// serialized config. The default configuration is `enabled = false`, under
// which the fault controller is never constructed and runs are bit-identical to
// the pre-fault code path.
//
// Everything is deterministic: the injection schedule (which executor
// crashes when, which tasks straggle, when a media error fires) is a pure
// function of (RunConfig::seed ^ salt) — the same seed always replays the
// same faults, which is what makes fault runs reproducible and debuggable.
#pragma once

#include <cstdint>
#include <vector>

#include "core/error.hpp"
#include "core/units.hpp"

namespace tsx::fault {

struct FaultConfig {
  /// Master switch. Off: no controller, no hooks, bit-identical runs.
  bool enabled = false;
  /// Mixed into the run seed for every fault draw, so experiments can vary
  /// the fault schedule independently of the workload's data.
  std::uint64_t salt = 0;

  // --- Executor crashes ------------------------------------------------
  /// Number of executor-crash events to inject over the run.
  int executor_crashes = 0;
  /// Crash times draw uniformly from [offset, offset + window] seconds of
  /// virtual time; victims draw uniformly over the executor grid.
  double crash_offset_s = 2.0;
  double crash_window_s = 20.0;
  /// Replacement process registration delay (the executor accepts no
  /// dispatch until crash time + this).
  double restart_delay_s = 3.0;

  // --- Tier offline (a DIMM group dies) --------------------------------
  /// Tier index (0-3) whose backing node goes offline; -1 = never.
  int offline_tier = -1;
  /// Virtual time of death in seconds; < 0 = never. Rerouted traffic
  /// falls back to the sibling capacity tier first, then DRAM.
  double offline_at_s = -1.0;

  // --- NVDIMM uncorrectable errors -------------------------------------
  /// Expected uncorrectable errors per GiB written to the bound NVM node
  /// (drawn from the wear model's churn counters; 0 disables). Each UCE
  /// poisons the least recently used cached block on that node, forcing a
  /// lineage recomputation on next access.
  double uce_per_gib = 0.0;

  // --- Transient bandwidth collapse ------------------------------------
  /// Virtual time a FluidChannel collapse starts; < 0 = never.
  double bw_collapse_at_s = -1.0;
  double bw_collapse_duration_s = 2.0;
  /// Channel capacity multiplier of the run's bound tier during the
  /// collapse (0 < factor <= 1).
  double bw_collapse_factor = 0.1;

  // --- Storage faults (the DFS cluster) ---------------------------------
  /// Number of datanode-crash events (permanent disk loss; the DFS repair
  /// pipeline re-creates the lost chunks in the background).
  int datanode_crashes = 0;
  /// Crash times draw uniformly from [at, at + window] seconds; victims
  /// draw without replacement over the datanode grid.
  double datanode_crash_at_s = 3.0;
  double datanode_crash_window_s = 0.0;
  /// Rack to partition off (disks intact, chunks unreachable); -1 = never.
  int rack_offline = -1;
  /// Virtual time the rack drops in seconds; < 0 = never.
  double rack_offline_at_s = -1.0;
  /// Seconds after the drop at which the partition heals; < 0 = it never
  /// comes back (repair must re-create everything).
  double rack_recover_after_s = -1.0;

  // --- Stragglers -------------------------------------------------------
  /// Per-first-launch probability that a task's host phase straggles.
  double straggler_prob = 0.0;
  /// Host-phase stretch factor of a straggling task (> 1).
  double straggler_factor = 6.0;

  /// True when the config injects storage faults (datanode crashes or a
  /// rack partition); those need a multi-datanode DFS with redundancy.
  bool storage_faults() const {
    return datanode_crashes > 0 || rack_offline >= 0;
  }

  /// Structured range and conflict checks over every knob (meaningful when
  /// `enabled`). Empty means valid. Aggregated by RunConfig::validate (with
  /// a "fault." field prefix) and enforced by the controller constructor.
  std::vector<Diagnostic> validate() const;

  friend bool operator==(const FaultConfig&, const FaultConfig&) = default;
};

/// What the fault plane injected and what recovery cost — the itemized
/// bill a robustness report prints next to the slowdown.
struct FaultStats {
  // Injections.
  std::uint64_t crashes = 0;
  std::uint64_t tier_offline_events = 0;
  std::uint64_t uce_events = 0;
  std::uint64_t bw_collapses = 0;
  std::uint64_t stragglers = 0;

  // Damage.
  std::uint64_t lost_cache_blocks = 0;
  std::uint64_t lost_shuffle_outputs = 0;

  // Recovery work.
  std::uint64_t task_failures = 0;
  std::uint64_t retries = 0;
  std::uint64_t recomputed_map_tasks = 0;
  std::uint64_t speculative_launches = 0;
  std::uint64_t speculative_wins = 0;

  // Degradation.
  std::uint64_t rerouted_requests = 0;
  Bytes rerouted_bytes;

  /// Total virtual time tasks spent waiting out retry backoff.
  double backoff_wait_seconds = 0.0;
};

}  // namespace tsx::fault
