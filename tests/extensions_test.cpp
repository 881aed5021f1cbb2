// Tests for the Sec.-IV-G extension features: per-access-type tier
// placement and zero-copy shuffle. Functional results must be identical
// under every placement/mode; only simulated time and traffic move.
#include <gtest/gtest.h>

#include "mem/background_load.hpp"
#include "sim/simulator.hpp"
#include "workloads/runner.hpp"

namespace tsx::workloads {
namespace {

RunResult run_cfg(RunConfig cfg) { return run_workload(cfg); }

RunConfig pagerank_small() {
  RunConfig cfg;
  cfg.app = App::kPagerank;
  cfg.scale = ScaleId::kSmall;
  return cfg;
}

// --- per-access-type placement ---------------------------------------------------

TEST(Placement, MixedPlacementBetweenExtremes) {
  RunConfig all_dram;
  all_dram.app = App::kPagerank;
  all_dram.scale = ScaleId::kLarge;
  all_dram.tier = mem::TierId::kTier0;
  RunConfig all_nvm = all_dram;
  all_nvm.tier = mem::TierId::kTier2;
  RunConfig mixed = all_dram;  // heap DRAM ...
  mixed.shuffle_tier = mem::TierId::kTier2;  // ... shuffle NVM

  const double t_dram = run_cfg(all_dram).exec_time.sec();
  const double t_nvm = run_cfg(all_nvm).exec_time.sec();
  const double t_mixed = run_cfg(mixed).exec_time.sec();
  EXPECT_GT(t_mixed, t_dram * 0.999);
  EXPECT_LT(t_mixed, t_nvm);
}

TEST(Placement, ShuffleTierReceivesShuffleTraffic) {
  // Heap on DRAM, shuffle on the far NVM group: the NVM node must see
  // traffic even though membind points at DRAM.
  RunConfig cfg = pagerank_small();
  cfg.tier = mem::TierId::kTier0;
  cfg.shuffle_tier = mem::TierId::kTier3;
  const RunResult r = run_cfg(cfg);
  EXPECT_GT(r.nvdimm.total_media_ops(), 0u);
}

TEST(Placement, CacheTierBindsBlockManager) {
  RunConfig cfg;
  cfg.app = App::kRf;  // caches its training points
  cfg.scale = ScaleId::kSmall;
  cfg.tier = mem::TierId::kTier0;
  cfg.cache_tier = mem::TierId::kTier2;
  const RunResult r = run_cfg(cfg);
  EXPECT_GT(r.nvdimm.total_media_ops(), 0u);  // cached blocks hit NVM
  EXPECT_TRUE(r.valid);
}

TEST(Placement, ResultsIdenticalUnderAnyPlacement) {
  RunConfig plain = pagerank_small();
  RunConfig exotic = pagerank_small();
  exotic.tier = mem::TierId::kTier2;
  exotic.shuffle_tier = mem::TierId::kTier0;
  exotic.cache_tier = mem::TierId::kTier3;
  const RunResult a = run_cfg(plain);
  const RunResult b = run_cfg(exotic);
  EXPECT_TRUE(a.valid);
  EXPECT_TRUE(b.valid);
  EXPECT_EQ(a.validation, b.validation);  // same functional output
}

TEST(Placement, ConfResolution) {
  spark::SparkConf conf;
  conf.mem_bind = mem::TierId::kTier2;
  EXPECT_EQ(conf.tier_for(spark::StreamClass::kHeap), mem::TierId::kTier2);
  EXPECT_EQ(conf.tier_for(spark::StreamClass::kShuffle),
            mem::TierId::kTier2);
  conf.shuffle_bind = mem::TierId::kTier0;
  conf.cache_bind = mem::TierId::kTier3;
  EXPECT_EQ(conf.tier_for(spark::StreamClass::kShuffle),
            mem::TierId::kTier0);
  EXPECT_EQ(conf.tier_for(spark::StreamClass::kCache), mem::TierId::kTier3);
  EXPECT_EQ(conf.tier_for(spark::StreamClass::kHeap), mem::TierId::kTier2);
}

// --- zero-copy shuffle -------------------------------------------------------------

TEST(ZeroCopy, FasterOnNvmTierForBulkShuffle) {
  // sort moves its whole dataset through the shuffle, so removing the
  // serialize-copy path must win clearly on the NVM tier. (The iterative
  // graph apps gain little — their bottleneck is dependent-access latency,
  // see bench_ext_zerocopy.)
  RunConfig classic;
  classic.app = App::kSort;
  classic.scale = ScaleId::kLarge;
  classic.tier = mem::TierId::kTier2;
  RunConfig zc = classic;
  zc.zero_copy_shuffle = true;
  EXPECT_LT(run_cfg(zc).exec_time.sec(),
            run_cfg(classic).exec_time.sec() * 0.98);
}

TEST(ZeroCopy, RemovesCrossExecutorPenalty) {
  RunConfig classic = pagerank_small();
  classic.executors = 8;
  classic.cores_per_executor = 5;
  classic.tier = mem::TierId::kTier2;
  RunConfig zc = classic;
  zc.zero_copy_shuffle = true;
  EXPECT_LE(run_cfg(zc).exec_time.sec(), run_cfg(classic).exec_time.sec());
}

TEST(ZeroCopy, SameFunctionalResult) {
  RunConfig classic = pagerank_small();
  RunConfig zc = classic;
  zc.zero_copy_shuffle = true;
  const RunResult a = run_cfg(classic);
  const RunResult b = run_cfg(zc);
  EXPECT_TRUE(b.valid);
  EXPECT_EQ(a.validation, b.validation);
}

TEST(ZeroCopy, ShrinksChargedStreamBytes) {
  RunConfig classic = pagerank_small();
  RunConfig zc = classic;
  zc.zero_copy_shuffle = true;
  const RunResult a = run_cfg(classic);
  const RunResult b = run_cfg(zc);
  EXPECT_LT(b.total_cost.stream_read().b(), a.total_cost.stream_read().b());
  EXPECT_LT(b.total_cost.cpu_seconds, a.total_cost.cpu_seconds);
}

// --- noisy-neighbor background load --------------------------------------------

TEST(BackgroundLoad, GeneratesSteadyTraffic) {
  sim::Simulator simulator;
  mem::MachineModel machine(simulator);
  mem::BackgroundLoad load(machine, 1, mem::TierId::kTier2,
                           Bandwidth::gb_per_sec(2.0));
  simulator.run_until(Duration::seconds(1.0));
  load.stop();
  simulator.run();
  // ~2 GB generated in ~1 s (chunk granularity allows some slack).
  EXPECT_NEAR(load.generated().b(), 2e9, 3e8);
  const mem::NodeId nvm = machine.topology().nvm_node_of(1);
  EXPECT_GT(machine.traffic().node(nvm).total_accesses(), 0u);
}

TEST(BackgroundLoad, StopsCleanly) {
  sim::Simulator simulator;
  mem::MachineModel machine(simulator);
  auto load = std::make_unique<mem::BackgroundLoad>(
      machine, 1, mem::TierId::kTier0, Bandwidth::gb_per_sec(1.0));
  simulator.run_until(Duration::seconds(0.1));
  load->stop();
  simulator.run();  // must terminate: no re-arming after stop
  EXPECT_FALSE(load->running());
}

TEST(BackgroundLoad, SlowsNvmRunsMoreThanDram) {
  RunConfig quiet;
  quiet.app = App::kBayes;
  quiet.scale = ScaleId::kSmall;
  quiet.tier = mem::TierId::kTier2;
  RunConfig noisy = quiet;
  noisy.background_load_gbps = 6.0;
  const double nvm_ratio = run_cfg(noisy).exec_time.sec() /
                           run_cfg(quiet).exec_time.sec();
  quiet.tier = mem::TierId::kTier0;
  noisy.tier = mem::TierId::kTier0;
  const double dram_ratio = run_cfg(noisy).exec_time.sec() /
                            run_cfg(quiet).exec_time.sec();
  EXPECT_GT(nvm_ratio, 1.05);
  EXPECT_GT(nvm_ratio, dram_ratio);
}

TEST(BackgroundLoad, RunStaysValidUnderPressure) {
  RunConfig cfg;
  cfg.app = App::kPagerank;
  cfg.scale = ScaleId::kSmall;
  cfg.tier = mem::TierId::kTier2;
  cfg.background_load_gbps = 4.0;
  const RunResult r = run_cfg(cfg);
  EXPECT_TRUE(r.valid) << r.validation;
}

// --- CXL machine variant ---------------------------------------------------------

TEST(CxlVariant, CapacityTierPenaltyShrinks) {
  RunConfig cfg;
  cfg.app = App::kBayes;
  cfg.scale = ScaleId::kLarge;
  auto ratio = [&cfg](MachineVariant variant) {
    cfg.machine = variant;
    cfg.tier = mem::TierId::kTier0;
    const double t0 = run_cfg(cfg).exec_time.sec();
    cfg.tier = mem::TierId::kTier2;
    return run_cfg(cfg).exec_time.sec() / t0;
  };
  const double optane = ratio(MachineVariant::kDramNvm);
  const double cxl = ratio(MachineVariant::kDramCxl);
  EXPECT_LT(cxl, optane * 0.85);
  EXPECT_GE(cxl, 0.99);  // still not free
}

TEST(CxlVariant, FunctionalResultsUnchanged) {
  RunConfig a = pagerank_small();
  RunConfig b = pagerank_small();
  b.machine = MachineVariant::kDramCxl;
  EXPECT_EQ(run_cfg(a).validation, run_cfg(b).validation);
}

}  // namespace
}  // namespace tsx::workloads
