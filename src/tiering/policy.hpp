// Pluggable promotion/demotion policies.
//
// A policy is a pure planning function: given a deterministic snapshot of
// the tracked regions and the fast tier's state, it returns the migrations
// to start this epoch. Policies never touch the machine — the engine
// executes (and charges) the plan — so policies are trivially unit-testable
// and every policy decision is reproducible from the snapshot alone.
//
//   static          the paper's baseline: never migrates anything
//   lfu-promote     promote hottest regions into the DRAM carve-out until
//                   it fills, evicting (demoting) colder residents to make
//                   room for hotter candidates
//   watermark       kswapd-style: background-demote the coldest residents
//                   when carve-out free space falls below the low
//                   watermark (10%), promote only while free space stays
//                   above the high watermark (30%)
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/units.hpp"
#include "tiering/hotness.hpp"
#include "tiering/options.hpp"

namespace tsx::tiering {

/// Everything a policy may look at when planning one epoch.
struct PlanContext {
  /// Tracked regions in key order (HotnessTracker::snapshot).
  std::vector<Region> regions;
  /// Promotion target (local DRAM as seen from the bound socket).
  mem::TierId fast = mem::TierId::kTier0;
  /// Demotion target (the run's bound capacity tier).
  mem::TierId slow = mem::TierId::kTier2;
  /// DRAM carve-out budget and current fill, in virtual bytes.
  Bytes fast_capacity;
  Bytes fast_used;
  /// Host-sample -> virtual bytes factor (SparkContext::cost_multiplier).
  double multiplier = 1.0;
};

/// One planned migration. `bytes` is the region's virtual volume.
struct Move {
  spark::RegionId region = 0;
  mem::TierId from = mem::TierId::kTier0;
  mem::TierId to = mem::TierId::kTier0;
  Bytes bytes;
};

class Policy {
 public:
  virtual ~Policy() = default;
  virtual std::string name() const = 0;
  virtual std::vector<Move> plan(const PlanContext& ctx) = 0;
};

std::unique_ptr<Policy> make_policy(PolicyKind kind);

}  // namespace tsx::tiering
