// Hook surface between the Spark engine and a page-migration policy.
//
// The tiering subsystem (tsx::tiering) observes the engine's migratable
// memory regions — cached RDD blocks and shuffle map outputs — and steers
// where their traffic lands. The engine side stays policy-agnostic: the
// block manager and shuffle store report region lifecycle and demand
// accesses through this interface, and executors ask it how a stream
// class's traffic is currently split across tiers. A null hooks pointer
// (the default everywhere) preserves the static numactl-style behaviour
// bit for bit.
#pragma once

#include <cstdint>
#include <vector>

#include "core/units.hpp"
#include "mem/tier.hpp"
#include "spark/task.hpp"

namespace tsx::spark {

/// One migratable unit: a cached RDD block or one map task's shuffle
/// output (Spark's actual migration granularity for shuffle files).
using RegionId = std::uint64_t;

/// Region ids are namespaced by kind in the top byte so cache and shuffle
/// regions can never collide.
constexpr RegionId cache_region(int rdd_id, std::size_t partition) {
  return (RegionId{1} << 56) |
         (static_cast<RegionId>(static_cast<std::uint32_t>(rdd_id)) << 24) |
         (static_cast<RegionId>(partition) & 0xffffff);
}
constexpr RegionId shuffle_region(int shuffle_id, std::size_t map_part) {
  return (RegionId{2} << 56) |
         (static_cast<RegionId>(static_cast<std::uint32_t>(shuffle_id)) << 24) |
         (static_cast<RegionId>(map_part) & 0xffffff);
}

/// Fraction of a stream class's traffic served by one tier.
struct TierShare {
  mem::TierId tier = mem::TierId::kTier0;
  double fraction = 0.0;
};

class TieringHooks {
 public:
  virtual ~TieringHooks() = default;

  /// A region came into existence or grew by `bytes` (host-sample scale,
  /// like every engine-side size).
  virtual void on_region_put(StreamClass cls, RegionId id, Bytes bytes) = 0;

  /// `bytes` of demand traffic hit an existing region.
  virtual void on_region_access(StreamClass cls, RegionId id, Bytes bytes,
                                mem::AccessKind kind) = 0;

  /// The region was dropped or evicted.
  virtual void on_region_drop(StreamClass cls, RegionId id) = 0;

  /// Current placement of `cls` traffic as tier shares summing to 1.
  /// Empty means "no opinion": the caller falls back to the statically
  /// bound tier (SparkConf::tier_for), which is the exact pre-tiering path.
  virtual std::vector<TierShare> traffic_split(StreamClass cls) const = 0;

  /// Integrated virtual seconds during which at least one page migration
  /// was in flight, up to now. The observability plane differences this
  /// across a transfer to bound how much of the transfer's slowdown can be
  /// attributed to migration contention. Purely observational; the default
  /// keeps policies that predate the obs plane working unchanged.
  virtual double migration_busy_seconds() const { return 0.0; }
};

}  // namespace tsx::spark
