// PlacementSpec: the engine's memory-placement knobs as one value type.
//
// The paper's deployment axis is numactl: a heap bind (--membind) plus the
// Sec. IV-G per-access-type refinements that route shuffle buffers and
// cached blocks to tiers of their own. Those three knobs used to live as
// loose fields on SparkConf; PlacementSpec consolidates them into a single
// value with a fluent builder and one resolution function, so call sites
// that arbitrate placement (sweeps, advisors) can pass placement around as
// one object instead of three.
//
// The data members keep their historical names (`mem_bind`,
// `shuffle_bind`, `cache_bind`) as thin deprecated spellings: SparkConf
// embeds the spec, so every pre-spec call site (`conf.mem_bind = t`)
// compiles unchanged. New code should prefer the builder:
//
//   PlacementSpec().heap(kTier0).shuffle_on(kTier2).cache_on(kTier0)
#pragma once

#include <optional>
#include <string>

#include "mem/tier.hpp"
#include "spark/task.hpp"

namespace tsx::spark {

struct PlacementSpec {
  /// Deprecated spelling of the heap bind (numactl --membind); prefer
  /// `heap()`. Kept as a public field so pre-spec call sites compile
  /// unchanged.
  mem::TierId mem_bind = mem::TierId::kTier0;
  /// Deprecated spellings of the per-access-type overrides; prefer
  /// `shuffle_on()` / `cache_on()`. Unset means "follow the heap bind"
  /// (plain numactl behaviour).
  std::optional<mem::TierId> shuffle_bind;
  std::optional<mem::TierId> cache_bind;

  // Fluent builder. Each setter returns *this so specs compose in one
  // expression.
  PlacementSpec& heap(mem::TierId t) {
    mem_bind = t;
    return *this;
  }
  PlacementSpec& shuffle_on(mem::TierId t) {
    shuffle_bind = t;
    return *this;
  }
  PlacementSpec& cache_on(mem::TierId t) {
    cache_bind = t;
    return *this;
  }
  /// Clears both overrides: all traffic follows the heap bind.
  PlacementSpec& follow_heap() {
    shuffle_bind.reset();
    cache_bind.reset();
    return *this;
  }

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

  std::string describe() const {
    std::string s = "heap=" + mem::to_string(mem_bind);
    if (shuffle_bind) s += " shuffle=" + mem::to_string(*shuffle_bind);
    if (cache_bind) s += " cache=" + mem::to_string(*cache_bind);
    return s;
  }

  friend bool operator==(const PlacementSpec&, const PlacementSpec&) = default;
};

}  // namespace tsx::spark
