// Cross-cutting engine invariants: conservation laws that must hold for
// every run regardless of configuration — charged traffic equals ledger
// traffic, drained channel bytes equal recorded traffic, stage bandwidth
// never exceeds capacity, and whole runs are bit-deterministic.
#include <gtest/gtest.h>

#include "dfs/dfs.hpp"
#include "mem/machine.hpp"
#include "sim/simulator.hpp"
#include "spark/pair_rdd.hpp"
#include "workloads/runner.hpp"

namespace tsx {
namespace {

using workloads::App;
using workloads::RunConfig;
using workloads::RunResult;
using workloads::ScaleId;

constexpr double kCacheline = 64.0;

/// Total demand bytes the ledger recorded across all nodes.
double ledger_bytes(const RunResult& r) {
  double total = 0.0;
  for (const auto& t : r.traffic)
    total += t.read_bytes.b() + t.write_bytes.b();
  return total;
}

/// Total bytes the tasks charged (streams + dependent-access cachelines).
double charged_bytes(const RunResult& r) {
  return r.total_cost.stream_read().b() + r.total_cost.stream_write().b() +
         (r.total_cost.dep_reads + r.total_cost.dep_writes) * kCacheline;
}

class ConservationLaw
    : public ::testing::TestWithParam<std::pair<App, int>> {};

TEST_P(ConservationLaw, LedgerMatchesChargedTraffic) {
  RunConfig cfg;
  cfg.app = GetParam().first;
  cfg.scale = ScaleId::kSmall;
  cfg.tier = mem::tier_from_index(GetParam().second);
  const RunResult r = workloads::run_workload(cfg);
  // Every charged byte must appear in exactly one node's ledger.
  EXPECT_NEAR(ledger_bytes(r) / charged_bytes(r), 1.0, 1e-6)
      << workloads::to_string(cfg.app);
}

INSTANTIATE_TEST_SUITE_P(
    AppsAndTiers, ConservationLaw,
    ::testing::Values(std::pair{App::kSort, 0}, std::pair{App::kSort, 3},
                      std::pair{App::kBayes, 2}, std::pair{App::kLda, 2},
                      std::pair{App::kPagerank, 1},
                      std::pair{App::kRepartition, 2},
                      std::pair{App::kAls, 3}, std::pair{App::kRf, 1}));

TEST(ConservationLaws, ChannelDrainMatchesLedger) {
  // Drive the machine directly: bytes drained through channels must equal
  // bytes recorded in the ledger.
  sim::Simulator simulator;
  mem::MachineModel machine(simulator);
  Rng rng(5);
  double expected = 0.0;
  for (int i = 0; i < 64; ++i) {
    const auto tier = mem::tier_from_index(static_cast<int>(rng.uniform_u64(4)));
    const auto kind = rng.bernoulli(0.5) ? mem::AccessKind::kRead
                                         : mem::AccessKind::kWrite;
    const Bytes volume = Bytes::of(64.0 * static_cast<double>(
                                              1 + rng.uniform_u64(100000)));
    expected += volume.b();
    machine.submit_transfer(
        mem::TransferRequest{1, tier, kind, volume, 1.0 + rng.uniform(0, 8)},
        [] {});
  }
  simulator.run();
  double drained = 0.0;
  for (const auto* ch : machine.all_memory_channels())
    drained += ch->drained_total().b();
  double recorded = 0.0;
  for (std::size_t n = 0; n < machine.topology().nodes.size(); ++n) {
    const auto& t = machine.traffic().node(static_cast<mem::NodeId>(n));
    recorded += t.read_bytes.b() + t.write_bytes.b();
  }
  EXPECT_NEAR(drained, expected, expected * 1e-9);
  EXPECT_NEAR(recorded, expected, expected * 1e-9);
}

TEST(StageBandwidth, NeverExceedsChannelCapacity) {
  // No stage can drain more than capacity x duration through a channel:
  // recorded peak bandwidth must stay below the largest channel capacity.
  sim::Simulator simulator;
  mem::MachineModel machine(simulator);
  dfs::Dfs fs;
  spark::SparkConf conf;
  conf.mem_bind = mem::TierId::kTier2;
  spark::SparkContext sc(machine, fs, conf, 42);

  std::vector<std::pair<int, int>> data;
  for (int i = 0; i < 30000; ++i) data.emplace_back(i % 500, i);
  spark::JobMetrics jm;
  spark::collect(
      spark::reduce_by_key(
          spark::parallelize<std::pair<int, int>>(sc, data, 8),
          [](int a, int b) { return a + b; }, 8),
      &jm);

  double max_capacity = 0.0;
  for (const auto* ch : machine.all_memory_channels())
    max_capacity = std::max(max_capacity, ch->capacity().value());
  for (const auto& stage : jm.stages) {
    EXPECT_LE(stage.peak_channel_bandwidth.value(), max_capacity * 1.0001)
        << stage.label;
  }
}

TEST(StageBandwidth, WellBelowSaturationOnDefaultRuns) {
  // The Fig. 3 premise, measured directly: at the paper's default
  // deployment, no stage of bayes-small on Tier 2 pushes the NVM channel
  // anywhere near its 10.7 GB/s capacity.
  RunConfig cfg;
  cfg.app = App::kBayes;
  cfg.scale = ScaleId::kSmall;
  cfg.tier = mem::TierId::kTier2;
  const RunResult r = workloads::run_workload(cfg);
  EXPECT_TRUE(r.valid);
  // (Bandwidth per stage is recorded in job metrics; the run-level check
  // uses total traffic / exec time as a conservative aggregate.)
  const double avg_gbps = ledger_bytes(r) / r.exec_time.sec() / 1e9;
  EXPECT_LT(avg_gbps, 10.7 * 0.5);
}

TEST(Determinism, IdenticalRunsBitIdentical) {
  RunConfig cfg;
  cfg.app = App::kPagerank;
  cfg.scale = ScaleId::kSmall;
  cfg.tier = mem::TierId::kTier2;
  cfg.executors = 4;
  cfg.cores_per_executor = 10;
  const RunResult a = workloads::run_workload(cfg);
  const RunResult b = workloads::run_workload(cfg);
  EXPECT_EQ(a.exec_time.sec(), b.exec_time.sec());
  EXPECT_EQ(a.total_cost.dep_reads, b.total_cost.dep_reads);
  EXPECT_EQ(a.nvdimm.media_reads, b.nvdimm.media_reads);
  EXPECT_EQ(ledger_bytes(a), ledger_bytes(b));
  for (const metrics::SysEvent e : metrics::all_sys_events())
    EXPECT_EQ(a.events[e], b.events[e]) << metrics::to_string(e);
}

TEST(TieringInvariants, NvmNodeWritesCoverMigrationTraffic) {
  // A deliberately tight DRAM carve-out (~10 KB of virtual bytes) forces
  // the LFU policy to churn: hotter cache blocks keep displacing colder
  // ones, so the run has both promotions and demotions. Every demotion
  // copy lands on the bound NVM node through the regular channels, so the
  // node's ledger must account for at least the migration traffic — that
  // is the path that feeds ipmctl counters, write energy and wear.
  RunConfig cfg;
  cfg.app = App::kPagerank;
  cfg.scale = ScaleId::kTiny;
  cfg.tier = mem::TierId::kTier2;
  cfg.tiering.policy = tiering::PolicyKind::kLfuPromote;
  cfg.tiering.epoch_ms = 10.0;
  cfg.tiering.fast_capacity_gib = 1e-5;
  const RunResult r = workloads::run_workload(cfg);
  ASSERT_TRUE(r.valid) << r.validation;
  EXPECT_GT(r.tiering.promotions, 0u);
  EXPECT_GT(r.tiering.demotions, 0u);
  ASSERT_GT(r.tiering.nvm_bytes_written.b(), 0.0);
  EXPECT_GT(r.tiering.nvm_write_energy.j(), 0.0);
  const mem::NodeTraffic& nvm = r.traffic.at(r.bound_node);
  EXPECT_GE(nvm.write_bytes.b(), r.tiering.nvm_bytes_written.b());
  // Those NVM media writes consume endurance: wear must be non-zero.
  EXPECT_GT(r.wear.lifetime_fraction_used, 0.0);
}

TEST(TieringInvariants, StaticPolicyLeavesStatsAndPlacementUntouched) {
  RunConfig cfg;
  cfg.app = App::kPagerank;
  cfg.scale = ScaleId::kTiny;
  cfg.tier = mem::TierId::kTier2;
  const RunResult r = workloads::run_workload(cfg);
  ASSERT_TRUE(r.valid);
  EXPECT_EQ(r.tiering.epochs, 0u);
  EXPECT_EQ(r.tiering.promotions, 0u);
  EXPECT_EQ(r.tiering.demotions, 0u);
  EXPECT_DOUBLE_EQ(r.tiering.nvm_bytes_written.b(), 0.0);
  EXPECT_DOUBLE_EQ(r.tiering.migration_seconds, 0.0);
}

}  // namespace
}  // namespace tsx
