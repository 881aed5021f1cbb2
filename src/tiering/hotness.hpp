// Region-level hotness tracking.
//
// The tracker maintains one record per migratable region (cached RDD block
// or shuffle map output) with an LFU-with-aging score: at every epoch
// boundary `hotness = hotness * 0.5 + accesses_this_epoch`, so sustained
// reuse accumulates weight while one-shot bursts fade geometrically.
//
// It counts every access the engine reports — an oracle tracker, free of
// overhead, the upper bound a real (sampling) system approximates.
//
// Everything is deterministic: regions live in an ordered map and
// snapshots iterate in key order.
#pragma once

#include <array>
#include <map>
#include <vector>

#include "core/units.hpp"
#include "mem/tier.hpp"
#include "spark/tiering_hooks.hpp"

namespace tsx::tiering {

struct Region {
  spark::RegionId id = 0;
  spark::StreamClass cls = spark::StreamClass::kCache;
  Bytes size;                   ///< host-sample bytes (engine-side scale)
  mem::TierId tier = mem::TierId::kTier0;
  double hotness = 0.0;         ///< aged access score (accesses / epoch)
  double epoch_accesses = 0.0;  ///< estimated accesses this epoch
  bool migrating = false;       ///< a copy for this region is in flight
};

class HotnessTracker {
 public:
  /// Creates the region at `tier` or grows an existing one by `bytes`.
  void put(spark::StreamClass cls, spark::RegionId id, Bytes bytes,
           mem::TierId tier);

  /// Records one demand access event covering `bytes` (64 B cacheline
  /// granularity). Accesses to unknown regions are ignored (the region may
  /// have been evicted).
  void access(spark::RegionId id, Bytes bytes);

  void drop(spark::RegionId id);

  /// Epoch boundary: ages every region's hotness and resets epoch counts.
  void roll_epoch();

  Region* find(spark::RegionId id);
  const Region* find(spark::RegionId id) const;

  /// All regions in key order (deterministic policy input).
  std::vector<Region> snapshot() const;

  /// Per-tier traffic weight of one stream class: the sum of region
  /// hotness per tier, falling back to resident bytes when no region of
  /// the class has been accessed yet. All-zero when the class is empty.
  std::array<double, 4> class_tier_weights(spark::StreamClass cls) const;

  void set_tier(spark::RegionId id, mem::TierId tier);
  void set_migrating(spark::RegionId id, bool migrating);

  std::size_t region_count() const { return regions_.size(); }

 private:
  std::map<spark::RegionId, Region> regions_;
};

}  // namespace tsx::tiering
