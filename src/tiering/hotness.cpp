#include "tiering/hotness.hpp"

#include <cmath>

namespace tsx::tiering {

namespace {
constexpr double kCacheline = 64.0;
/// LFU aging factor applied at every epoch boundary.
constexpr double kDecay = 0.5;
}  // namespace

void HotnessTracker::put(spark::StreamClass cls, spark::RegionId id,
                         Bytes bytes, mem::TierId tier) {
  auto it = regions_.find(id);
  if (it == regions_.end()) {
    Region r;
    r.id = id;
    r.cls = cls;
    r.size = bytes;
    r.tier = tier;
    regions_.emplace(id, r);
    return;
  }
  it->second.size += bytes;
}

void HotnessTracker::access(spark::RegionId id, Bytes bytes) {
  const auto it = regions_.find(id);
  if (it == regions_.end()) return;
  it->second.epoch_accesses += std::ceil(bytes.b() / kCacheline);
}

void HotnessTracker::drop(spark::RegionId id) { regions_.erase(id); }

void HotnessTracker::roll_epoch() {
  for (auto& [id, r] : regions_) {
    r.hotness = r.hotness * kDecay + r.epoch_accesses;
    r.epoch_accesses = 0.0;
  }
}

Region* HotnessTracker::find(spark::RegionId id) {
  const auto it = regions_.find(id);
  return it == regions_.end() ? nullptr : &it->second;
}

const Region* HotnessTracker::find(spark::RegionId id) const {
  const auto it = regions_.find(id);
  return it == regions_.end() ? nullptr : &it->second;
}

std::vector<Region> HotnessTracker::snapshot() const {
  std::vector<Region> out;
  out.reserve(regions_.size());
  for (const auto& [id, r] : regions_) out.push_back(r);
  return out;
}

std::array<double, 4> HotnessTracker::class_tier_weights(
    spark::StreamClass cls) const {
  std::array<double, 4> hot{};
  std::array<double, 4> bytes{};
  for (const auto& [id, r] : regions_) {
    if (r.cls != cls) continue;
    const auto t = static_cast<std::size_t>(mem::index(r.tier));
    // Count the current epoch's accesses too, so freshly written regions
    // draw traffic before their first epoch boundary.
    hot[t] += r.hotness + r.epoch_accesses;
    bytes[t] += r.size.b();
  }
  double hot_total = 0.0;
  for (const double h : hot) hot_total += h;
  return hot_total > 0.0 ? hot : bytes;
}

void HotnessTracker::set_tier(spark::RegionId id, mem::TierId tier) {
  if (Region* r = find(id)) r->tier = tier;
}

void HotnessTracker::set_migrating(spark::RegionId id, bool migrating) {
  if (Region* r = find(id)) r->migrating = migrating;
}

}  // namespace tsx::tiering
