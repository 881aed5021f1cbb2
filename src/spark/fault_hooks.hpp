// Fault-injection observer interface (implemented by tsx::fault).
//
// Mirrors the TieringHooks pattern: the spark engine owns a nullable
// observer pointer, and a null observer keeps the fault-free code path bit
// for bit identical to the pre-fault engine — no retry bookkeeping, no
// in-flight task registry, no rerouting, not even an extra branch inside
// the hot loops that matters for determinism.
//
// With an observer attached the engine gains Spark's robustness layer:
//  - executors expose crash()/restart semantics and ask the observer for a
//    per-task straggle factor and for tier reroutes (a DIMM that went
//    offline redirects its traffic to a surviving tier),
//  - the DAG scheduler retries failed tasks with capped exponential
//    backoff, re-executes lost shuffle map partitions via lineage, and
//    speculatively relaunches stragglers, at Spark's default settings
//    (constants in spark/scheduler.cpp),
//  - the shuffle store recovers lost map output at fetch time by
//    recomputing the parent partition through the registered dependency.
#pragma once

#include <cstddef>

#include "core/units.hpp"
#include "mem/tier.hpp"

namespace tsx::spark {

/// Implemented by fault::Controller. All callbacks fire inside simulator
/// events, so implementations may touch simulation state freely.
class FaultHooks {
 public:
  virtual ~FaultHooks() = default;

  /// Placement fallback: identity while the tier is healthy; a surviving
  /// tier once the backing DIMM went offline. `volume` is the transfer this
  /// decision applies to (itemized as rerouted traffic when remapped).
  virtual mem::TierId effective_tier(mem::TierId tier, Bytes volume) = 0;

  /// Side-effect-free health probe (no reroute itemization) — used by the
  /// tiering engine to drop migrations touching a dead tier.
  virtual bool tier_online(mem::TierId tier) const = 0;

  /// Dispatch-time slowdown factor (>= 1) for attempt `attempt` of
  /// (stage, partition); 1.0 means healthy. Draws are seeded — the same
  /// coordinates always straggle identically.
  virtual double straggle_factor(int stage_id, std::size_t partition,
                                 int attempt) = 0;

  // Recovery bookkeeping: the scheduler and the stores report, the fault
  // plane itemizes (and traces) the cost.
  virtual void on_task_failure(int stage_id, std::size_t partition,
                               int attempt) = 0;
  virtual void on_retry(int stage_id, std::size_t partition,
                        Duration backoff) = 0;
  virtual void on_speculative_launch(int stage_id, std::size_t partition,
                                     int attempt) = 0;
  virtual void on_speculative_win(int stage_id, std::size_t partition,
                                  int attempt) = 0;
  virtual void on_recomputed_map_task(int shuffle_id,
                                      std::size_t map_part) = 0;
};

}  // namespace tsx::spark
