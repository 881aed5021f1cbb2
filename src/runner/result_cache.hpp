// Memoized run results.
//
// A RunResult is a pure function of its RunConfig (the simulator is
// deterministic from the seed), so identical configurations never need to be
// simulated twice. The cache keys on workloads::stable_hash with full
// RunConfig equality on collision, is safe to share across runner threads,
// and can persist to a versioned JSON-lines store so separate bench binaries
// — bench_takeaways after bench_fig2_exectime, say — reuse each other's
// sweeps (set TSX_RUN_CACHE, see bench/bench_util.hpp).
//
// Store format: line 1 is a header object `{"format":"tsx-run-cache",
// "version":N}`; every further line is one serialized RunResult. Loading a
// store with a different version (or any unparsable line) fails cleanly
// without touching the in-memory cache.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include <mutex>

#include "workloads/runner.hpp"

namespace tsx::runner {

class ResultCache {
 public:
  /// Version of the on-disk store; bump when the RunResult schema changes.
  /// v2: RunConfig gained the tiering section and RunResult the tiering
  /// stats object, so pre-tiering stores must not satisfy tiering lookups.
  /// v3: the fault section (RunConfig.fault knobs, RunResult.fault stats,
  /// failed/error flags) joined the schema and the cache key.
  /// v4: the vectorized engine's section (four config knobs and per-kernel
  /// result stats) joined the schema and the cache key.
  /// v5: the observability knobs (RunConfig.obs.enabled / trace_filter)
  /// joined the config identity and the serialized config object.
  /// v6: the cluster-DFS section (RunConfig.dfs topology/codec/repair
  /// knobs, RunResult.dfs stats, fault datanode/rack drills) joined the
  /// schema and the cache key.
  /// v7: the vectorized engine's section left the schema and the cache key.
  static constexpr int kStoreVersion = 7;

  /// The memoized result for `config`, if present. Thread-safe.
  std::optional<workloads::RunResult> find(
      const workloads::RunConfig& config) const;

  /// Memoizes `result` under its own config. Last insert wins (results for
  /// equal configs are identical by construction, so this is idempotent).
  void insert(const workloads::RunResult& result);

  std::size_t size() const;
  std::uint64_t hits() const;
  std::uint64_t misses() const;
  void clear();

  /// Writes the whole cache to `path` (overwrites), in ascending key order.
  /// False on I/O error.
  bool save(const std::string& path) const;

  /// Merges a store previously written by `save` into this cache. False —
  /// and a no-op — on I/O error or version mismatch. Corrupted or truncated
  /// record lines (a crashed writer, a torn append) are skipped, counted in
  /// `load_skipped`, and warned about once per process; every healthy line
  /// still loads.
  bool load(const std::string& path);

  /// Total record lines skipped as unparsable across all `load` calls.
  std::uint64_t load_skipped() const;

  /// Process-wide cache shared by benches linked into one binary.
  static ResultCache& global();

 private:
  mutable std::mutex mutex_;
  /// stable_hash -> results whose configs collide on it (equality checked),
  /// in insertion order. Ordered by key, so save() writes the same bytes
  /// whatever order parallel runs finished in.
  std::map<std::uint64_t, std::vector<workloads::RunResult>> map_;
  mutable std::uint64_t hits_ = 0;
  mutable std::uint64_t misses_ = 0;
  std::uint64_t load_skipped_ = 0;
};

}  // namespace tsx::runner
