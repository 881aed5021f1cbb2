// Columnar runtime: the per-run service object behind the query layer.
//
// One Runtime attaches to one SparkContext for the duration of a run. It
// owns what the vectorized operators share but must not re-create per task:
//
//  - a pool of core::Arena scratch allocators, leased per task host
//    function and reset on return, so steady-state kernel scratch performs
//    no heap allocation (the ArenaLease RAII type);
//  - columnar batch *stores*: named, partitioned collections of sealed
//    Chunks that persist across jobs (pagerank's link table, sort's
//    staging). Every store partition registers as one kind-3 migratable
//    region with the engine's TieringHooks, so cached column data
//    participates in tier placement exactly like row blocks and shuffle
//    files — and every re-read streams through the cache stream class of
//    the machine's channel model;
//  - the run-wide ColumnarStats ledger, merged from per-task deltas in
//    task commit order so the serialized counters are bit-identical at any
//    task-thread count.
//
// A query's rendered plan and its jobs come back in its QueryResult; kernel
// spans reach the obs recorder through the SparkContext.
//
// The Runtime is found from engine code via Runtime::of(sc) — a process-
// wide registry — so the workloads' columnar branches need no SparkContext
// surface changes.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "columnar/batch.hpp"
#include "columnar/options.hpp"
#include "core/arena.hpp"
#include "spark/task.hpp"

namespace tsx::spark {
class SparkContext;
}

namespace tsx::columnar {

class Runtime {
 public:
  Runtime(spark::SparkContext& sc, ColumnarConfig config);
  ~Runtime();

  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;

  /// The runtime attached to `sc`, or nullptr when the run is row-only.
  static Runtime* of(const spark::SparkContext& sc);

  spark::SparkContext& context() { return sc_; }
  const ColumnarConfig& config() const { return config_; }

  // -------------------------------------------------------------------
  // Arena leasing
  // -------------------------------------------------------------------

  /// RAII checkout of a scratch arena from the runtime's pool. The arena
  /// comes back reset; its high-water mark and the lease count fold into
  /// the run stats at finish() (max / sum — order-independent, so leases
  /// may return from any worker thread).
  class ArenaLease {
   public:
    explicit ArenaLease(Runtime& rt) : rt_(&rt), arena_(rt.checkout_()) {}
    ~ArenaLease() {
      if (arena_ != nullptr) rt_->checkin_(arena_);
    }
    ArenaLease(ArenaLease&& other) noexcept
        : rt_(other.rt_), arena_(other.arena_) {
      other.arena_ = nullptr;
    }
    ArenaLease(const ArenaLease&) = delete;
    ArenaLease& operator=(const ArenaLease&) = delete;
    ArenaLease& operator=(ArenaLease&&) = delete;

    core::Arena& operator*() { return *arena_; }
    core::Arena* operator->() { return arena_; }

   private:
    Runtime* rt_;
    core::Arena* arena_;
  };

  ArenaLease lease_arena() { return ArenaLease(*this); }

  // -------------------------------------------------------------------
  // Columnar batch stores
  // -------------------------------------------------------------------

  /// Registers a new empty store and returns its id.
  int create_store(std::string name);
  const std::string& store_name(int store) const { return store_names_[store]; }

  /// Appends sealed chunks to a store partition. Driver-side only (between
  /// jobs, or inside a commit-ordered deferred op): grows the partition's
  /// kind-3 region by each chunk's bytes.
  void store_put(int store, std::size_t part, std::vector<Chunk> chunks);

  /// The partition's chunks, or nullptr when nothing was stored. Read-only
  /// and safe from worker threads (stores mutate only driver-side).
  const std::vector<Chunk>* store_find(int store, std::size_t part) const;

  /// Reads a store partition from inside a task: charges `ctx` a cache
  /// stream read + deserialization-free touch per chunk (the CachedRDD hit
  /// bill), reports the demand access to the tiering hooks, and records a
  /// cache-read kernel entry in `delta`.
  const std::vector<Chunk>& store_read(int store, std::size_t part,
                                       spark::TaskContext& ctx,
                                       ColumnarStats& delta);

  /// Drops one store's partitions and their regions (in partition order).
  void drop_store(int store);

  // -------------------------------------------------------------------
  // Stats plumbing
  // -------------------------------------------------------------------

  /// Merges a per-task stats delta. Under the parallel data plane the
  /// merge is deferred through the task's TaskEffects buffer, so it lands
  /// in serial task order; on the driver it applies immediately.
  void commit_delta(const ColumnarStats& delta);

  /// Task-end commit: emits the context's per-kernel CPU log as obs kernel
  /// spans (when a recorder is attached) and merges the stats delta. Same
  /// defer-through-TaskEffects contract as commit_delta, so the kernel
  /// spans open in serial task order at any thread count.
  void commit_task(struct KernelCtx& kc);

  /// Direct driver-side merge (planner bookkeeping between jobs).
  ColumnarStats& driver_stats() { return stats_; }

  /// Drops every remaining store region (deterministic order) and folds
  /// the arena-pool accumulators into the stats. Idempotent; the dtor
  /// calls it too.
  void finish();

  const ColumnarStats& stats() const { return stats_; }

 private:
  friend class ArenaLease;

  core::Arena* checkout_();
  void checkin_(core::Arena* arena);

  static std::uint64_t store_key(int store, std::size_t part) {
    return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(store))
            << 32) |
           (part & 0xffffffffULL);
  }

  spark::SparkContext& sc_;
  ColumnarConfig config_;

  std::mutex arena_mu_;
  std::vector<std::unique_ptr<core::Arena>> arena_pool_;   ///< idle arenas
  std::vector<std::unique_ptr<core::Arena>> arena_leased_; ///< live arenas
  std::uint64_t lease_count_ = 0;
  double lease_high_water_ = 0.0;

  std::vector<std::string> store_names_;
  std::map<std::uint64_t, std::vector<Chunk>> stores_;  ///< deterministic order
  ColumnarStats stats_;
  bool finished_ = false;
};

/// Per-operator execution context handed to kernels' call sites: the task
/// being billed, the leased scratch arena, the runtime config and the
/// task-local stats delta. charge() is the single seam through which every
/// vectorized operator bills simulation cost *and* itemizes its traffic —
/// keeping kernels themselves pure.
struct KernelCtx {
  spark::TaskContext& task;
  core::Arena& arena;
  const ColumnarConfig& config;
  ColumnarStats delta;

  /// Kernel-span logging for the obs plane: off by default so row-only and
  /// obs-off runs never pay the per-charge accumulate.
  bool log_kernels = false;
  /// Host-sample CPU nanoseconds per kernel family (only when logging).
  std::array<double, kNumKernelKinds> kernel_cpu_ns{};

  KernelCtx(spark::TaskContext& t, core::Arena& a, const ColumnarConfig& c,
            bool log = false)
      : task(t), arena(a), config(c), log_kernels(log) {}

  /// Bills one kernel invocation: `cpu_ns` of compute, `read`/`written`
  /// bytes on the kernel's stream class, and a ledger entry under `kind`.
  void charge(KernelKind kind, double rows_in, double rows_out, Bytes read,
              Bytes written, spark::StreamClass cls, double cpu_ns);
};

}  // namespace tsx::columnar
