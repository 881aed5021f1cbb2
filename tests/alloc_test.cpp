// Allocation budget of the fixed-width text workloads (DESIGN.md §17).
//
// This binary replaces the global operator new/delete with counting
// versions, so it lives apart from the other suites. It counts the heap
// allocations one warm sort-small and one repartition-small drill run make:
// tier 2, an RS(6,3) DFS on 3 racks of 4 nodes, lfu-promote tiering, obs on
// and an executor crash. A run's allocations are a deterministic function
// of its config, so the budget gates where a host timing cannot. A line
// carried as a heap string costs several allocations per record; the
// budget allows about a quarter of one per line.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "fault/scenario.hpp"
#include "workloads/runner.hpp"

namespace {

std::atomic<std::uint64_t> g_allocations{0};

void* counted_alloc(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

void* counted_aligned_alloc(std::size_t size, std::align_val_t align) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  const auto a = static_cast<std::size_t>(align);
  const std::size_t rounded = (size + a - 1) / a * a;
  if (void* p = std::aligned_alloc(a, rounded == 0 ? a : rounded)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return counted_alloc(size);
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, const std::nothrow_t& tag) noexcept {
  return operator new(size, tag);
}
void* operator new(std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace tsx::workloads {
namespace {

constexpr std::uint64_t kBudget = 10000;

RunConfig drill_config(App app, std::uint64_t seed) {
  RunConfig c;
  c.app = app;
  c.scale = ScaleId::kSmall;
  c.tier = mem::TierId::kTier2;
  c.executors = 2;
  c.cores_per_executor = 20;
  c.seed = seed;
  c.dfs.codec = dfs::CodecKind::kRs;
  c.dfs.rs_k = 6;
  c.dfs.rs_m = 3;
  c.dfs.racks = 3;
  c.dfs.nodes_per_rack = 4;
  c.tiering.policy = tiering::policy_from_name("lfu-promote");
  c.obs.enabled = true;
  c.fault = fault::scenario("crash");
  return c;
}

/// Allocations of one run of `app`, after a warm-up run on another seed
/// (so the dataset memo holds nothing the counted run can reuse).
std::uint64_t warm_run_allocations(App app) {
  {
    const RunResult warm = run_workload(drill_config(app, 2));
    EXPECT_TRUE(warm.valid) << warm.validation;
  }
  const std::uint64_t before = g_allocations.load();
  bool valid = false;
  {
    const RunResult r = run_workload(drill_config(app, 1));
    valid = r.valid;
  }
  const std::uint64_t made = g_allocations.load() - before;
  EXPECT_TRUE(valid);
  return made;
}

TEST(AllocationBudget, SortSmallDrillRun) {
  const std::uint64_t n = warm_run_allocations(App::kSort);
  RecordProperty("allocations", static_cast<int>(n));
  EXPECT_LT(n, kBudget) << n << " allocations";
}

TEST(AllocationBudget, RepartitionSmallDrillRun) {
  const std::uint64_t n = warm_run_allocations(App::kRepartition);
  RecordProperty("allocations", static_cast<int>(n));
  EXPECT_LT(n, kBudget) << n << " allocations";
}

}  // namespace
}  // namespace tsx::workloads
