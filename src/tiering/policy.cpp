#include "tiering/policy.hpp"

#include <algorithm>

#include "core/error.hpp"

namespace tsx::tiering {

namespace {

/// Watermark policy: demote when the carve-out's free fraction drops below
/// the low watermark, until it recovers to the high one.
constexpr double kLowWatermark = 0.10;
constexpr double kHighWatermark = 0.30;

Bytes virtual_size(const Region& r, const PlanContext& ctx) {
  return r.size * ctx.multiplier;
}

/// Hotter-first ordering with a deterministic id tie-break.
bool hotter(const Region& a, const Region& b) {
  if (a.hotness != b.hotness) return a.hotness > b.hotness;
  return a.id < b.id;
}

class StaticPolicy final : public Policy {
 public:
  std::string name() const override { return to_string(PolicyKind::kStatic); }
  std::vector<Move> plan(const PlanContext&) override { return {}; }
};

class LfuPromotePolicy final : public Policy {
 public:
  std::string name() const override {
    return to_string(PolicyKind::kLfuPromote);
  }
  // The LFU exchange: promote the hottest non-resident regions into the
  // carve-out, demoting strictly colder residents when space runs out.
  std::vector<Move> plan(const PlanContext& ctx) override {
    std::vector<Region> candidates;  // off the fast tier, warm, movable
    std::vector<Region> residents;   // on the fast tier, movable
    for (const Region& r : ctx.regions) {
      if (r.migrating) continue;
      if (r.tier == ctx.fast)
        residents.push_back(r);
      else if (r.hotness > 0.0)
        candidates.push_back(r);
    }
    std::sort(candidates.begin(), candidates.end(), hotter);
    // Coldest resident first: those are the eviction victims.
    std::sort(residents.begin(), residents.end(),
              [](const Region& a, const Region& b) { return hotter(b, a); });

    std::vector<Move> moves;
    Bytes free = ctx.fast_capacity - ctx.fast_used;
    std::size_t victim = 0;
    for (const Region& c : candidates) {
      const Bytes need = virtual_size(c, ctx);
      if (need > ctx.fast_capacity) continue;  // can never fit
      // Demote colder residents until the candidate fits (or no resident is
      // strictly colder — then the carve-out already holds better content).
      while (free < need && victim < residents.size() &&
             residents[victim].hotness < c.hotness) {
        const Region& v = residents[victim++];
        moves.push_back({v.id, ctx.fast, ctx.slow, virtual_size(v, ctx)});
        free += virtual_size(v, ctx);
      }
      if (free < need) continue;
      moves.push_back({c.id, c.tier, ctx.fast, need});
      free -= need;
    }
    return moves;
  }
};

class WatermarkPolicy final : public Policy {
 public:
  std::string name() const override {
    return to_string(PolicyKind::kWatermark);
  }
  std::vector<Move> plan(const PlanContext& ctx) override {
    const Bytes low = ctx.fast_capacity * kLowWatermark;
    const Bytes high = ctx.fast_capacity * kHighWatermark;
    Bytes free = ctx.fast_capacity - ctx.fast_used;
    std::vector<Move> moves;

    if (free < low) {
      // Background reclaim: demote coldest residents until the high
      // watermark is restored (kswapd's low/high pair).
      std::vector<Region> residents;
      for (const Region& r : ctx.regions)
        if (r.tier == ctx.fast && !r.migrating) residents.push_back(r);
      std::sort(residents.begin(), residents.end(),
                [](const Region& a, const Region& b) { return hotter(b, a); });
      for (const Region& v : residents) {
        if (free >= high) break;
        moves.push_back({v.id, ctx.fast, ctx.slow, virtual_size(v, ctx)});
        free += virtual_size(v, ctx);
      }
      return moves;
    }

    // Above the low watermark: promote hot regions, but never so far that
    // free space dips under the high watermark (leave reclaim headroom).
    std::vector<Region> candidates;
    for (const Region& r : ctx.regions)
      if (r.tier != ctx.fast && !r.migrating && r.hotness > 0.0)
        candidates.push_back(r);
    std::sort(candidates.begin(), candidates.end(), hotter);
    for (const Region& c : candidates) {
      const Bytes need = virtual_size(c, ctx);
      if (free - need < high) continue;
      moves.push_back({c.id, c.tier, ctx.fast, need});
      free -= need;
    }
    return moves;
  }
};

}  // namespace

std::unique_ptr<Policy> make_policy(PolicyKind kind) {
  switch (kind) {
    case PolicyKind::kStatic: return std::make_unique<StaticPolicy>();
    case PolicyKind::kLfuPromote: return std::make_unique<LfuPromotePolicy>();
    case PolicyKind::kWatermark: return std::make_unique<WatermarkPolicy>();
  }
  TSX_FAIL("unknown policy kind");
}

}  // namespace tsx::tiering
