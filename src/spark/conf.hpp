// Spark engine configuration.
//
// Mirrors the knobs the paper varies — number of executors, cores per
// executor, the NUMA/tier binding applied via numactl. The engine internals
// it leaves at defaults (storage budget, framework charges) are constants
// below. Defaults reproduce the paper's default deployment: one executor
// using all 40 hardware threads of one socket, bound to Tier 0.
#pragma once

#include <optional>

#include "core/units.hpp"
#include "mem/tier.hpp"
#include "spark/task.hpp"

namespace tsx::spark {

struct SparkConf {
  /// Number of executor processes (paper: 1..8 in Fig. 4).
  int executor_instances = 1;
  /// Cores (hardware threads) per executor (paper: 5..40).
  int cores_per_executor = 40;

  /// numactl --cpunodebind: socket whose cores every executor binds to.
  mem::SocketId cpu_node_bind = 1;

  /// numactl --membind: the heap bind every stream class follows unless
  /// overridden.
  mem::TierId mem_bind = mem::TierId::kTier0;
  /// Sec. IV-G per-access-type overrides: shuffle buffers / cached blocks
  /// on tiers of their own. Unset means "follow the heap bind" (plain
  /// numactl behaviour).
  std::optional<mem::TierId> shuffle_bind;
  std::optional<mem::TierId> cache_bind;

  /// Zero-copy shuffle over a unified memory space (Sec. IV-G's "avoid
  /// shuffling operations" direction): reducers map the producers' buffers
  /// directly instead of serializing through private copies. Halves shuffle
  /// stream traffic and skips the (de)serialization cpu.
  bool zero_copy_shuffle = false;

  /// Host threads evaluating one stage's task functions concurrently
  /// (DESIGN.md §11). Purely an execution-speed knob: results are
  /// bit-identical for every value, so it is not part of RunConfig or its
  /// canonical key. <= 1 keeps the serial data plane; fault mode always does.
  int intra_run_threads = 1;

  /// Resolved tier for a stream class — the single place placement is
  /// interpreted.
  mem::TierId tier_for(StreamClass cls) const {
    switch (cls) {
      case StreamClass::kShuffle: return shuffle_bind.value_or(mem_bind);
      case StreamClass::kCache: return cache_bind.value_or(mem_bind);
      case StreamClass::kHeap: break;
    }
    return mem_bind;
  }

  /// Derived: total task slots.
  int total_cores() const { return executor_instances * cores_per_executor; }
};

/// Fraction of executor memory reserved for storage (cached RDDs).
inline constexpr double kStorageFraction = 0.5;
/// Executor heap analogue, used for cache-capacity accounting.
inline constexpr Bytes kExecutorMemory = Bytes::gib(16);

/// The cached-block budget of a deployment of `executors` executors:
/// executor memory x storage fraction x executors. SparkContext sizes its
/// BlockManager with it and RunConfig::validate checks it against the cache
/// tier's capacity.
inline Bytes storage_budget(int executors) {
  return Bytes::of(kExecutorMemory.b() * kStorageFraction *
                   static_cast<double>(executors));
}

/// Fixed overheads of the framework. These dominate tiny workloads, which
/// is what makes the paper's tiny runs tier-insensitive.
inline constexpr Duration kExecutorLaunch = Duration::seconds(2.0);
/// Each *additional* executor registers serially with the driver (worker
/// JVM spin-up + registration RPC) — the fixed price of skinny-executor
/// deployments, which only pays off when there are enough tasks.
inline constexpr Duration kExecutorRegister = Duration::millis(250);
inline constexpr Duration kJobSubmitOverhead = Duration::millis(120);
inline constexpr Duration kStageOverhead = Duration::millis(45);
/// Task dispatch is serialized in the driver<->executor RPC loop; each
/// queued task of an executor pays this in turn. With many executors the
/// loops run in parallel — the "skinny executors" scheduling advantage.
inline constexpr Duration kTaskDispatch = Duration::millis(3);

}  // namespace tsx::spark
