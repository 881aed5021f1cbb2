// Tests for tsx::service and the submission-API redesign satellites:
// hierarchical fair-share arithmetic, admission control, the fairness
// invariants (usage ratios equalize under backlog, preemption is bounded
// and starvation-free), byte-identical replay of a seeded multi-tenant
// mix, single-tenant equivalence to a direct run_workload call, the
// PlacementSpec consolidation, the RuntimeHooks bundle, and
// RunConfig::validate structured diagnostics.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "core/error.hpp"
#include "core/json.hpp"
#include "mem/topology.hpp"
#include "runner/result_cache.hpp"
#include "runner/serialize.hpp"
#include "service/fair_share.hpp"
#include "service/service.hpp"
#include "spark/conf.hpp"
#include "spark/placement.hpp"
#include "spark/runtime_hooks.hpp"
#include "workloads/runner.hpp"

namespace tsx::service {
namespace {

using workloads::App;
using workloads::RunConfig;
using workloads::RunResult;
using workloads::ScaleId;

/// A small deployment that occupies `cores` hardware threads of socket 1,
/// so several jobs fit on the 40-thread socket concurrently.
RunConfig small_job(App app, int cores) {
  RunConfig cfg;
  cfg.app = app;
  cfg.scale = ScaleId::kTiny;
  cfg.executors = 1;
  cfg.cores_per_executor = cores;
  return cfg;
}

// --- fair-share arithmetic ------------------------------------------------

TEST(FairShares, EqualWeightsSplitEvenly) {
  const auto shares = fair_shares({{"a", "default", 1.0, 1.0, true},
                                   {"b", "default", 1.0, 1.0, true}});
  EXPECT_DOUBLE_EQ(shares.at("a"), 0.5);
  EXPECT_DOUBLE_EQ(shares.at("b"), 0.5);
}

TEST(FairShares, HierarchyMultipliesPoolAndTenantWeights) {
  // Pool p1 (weight 3) holds one tenant; pool p2 (weight 1) splits between
  // two equal tenants: 3/4 vs 1/8 + 1/8.
  const auto shares = fair_shares({{"a", "p1", 1.0, 3.0, true},
                                   {"b", "p2", 1.0, 1.0, true},
                                   {"c", "p2", 1.0, 1.0, true}});
  EXPECT_DOUBLE_EQ(shares.at("a"), 0.75);
  EXPECT_DOUBLE_EQ(shares.at("b"), 0.125);
  EXPECT_DOUBLE_EQ(shares.at("c"), 0.125);
}

TEST(FairShares, WeightedTenantsWithinOnePool) {
  const auto shares = fair_shares({{"a", "default", 3.0, 1.0, true},
                                   {"b", "default", 1.0, 1.0, true}});
  EXPECT_DOUBLE_EQ(shares.at("a"), 0.75);
  EXPECT_DOUBLE_EQ(shares.at("b"), 0.25);
}

TEST(FairShares, IdleTenantEntitlementFlowsToSiblingsFirst) {
  // b idle: its slice goes to its pool sibling a, not to pool p2.
  const auto shares = fair_shares({{"a", "p1", 1.0, 1.0, true},
                                   {"b", "p1", 1.0, 1.0, false},
                                   {"c", "p2", 1.0, 1.0, true}});
  EXPECT_DOUBLE_EQ(shares.at("a"), 0.5);
  EXPECT_DOUBLE_EQ(shares.at("b"), 0.0);
  EXPECT_DOUBLE_EQ(shares.at("c"), 0.5);
}

TEST(FairShares, FullyIdlePoolDropsOutOfTheTree) {
  const auto shares = fair_shares({{"a", "p1", 1.0, 1.0, true},
                                   {"b", "p2", 1.0, 5.0, false}});
  EXPECT_DOUBLE_EQ(shares.at("a"), 1.0);
  EXPECT_DOUBLE_EQ(shares.at("b"), 0.0);
}

TEST(FairShares, ActiveSharesAlwaysSumToOne) {
  const auto shares = fair_shares({{"a", "p1", 2.0, 3.0, true},
                                   {"b", "p1", 1.0, 3.0, true},
                                   {"c", "p2", 1.0, 2.0, true},
                                   {"d", "p3", 4.0, 1.0, false}});
  double sum = 0.0;
  for (const auto& [name, share] : shares) sum += share;
  EXPECT_NEAR(sum, 1.0, 1e-12);
}

TEST(FairShares, UsageRatioFollowsDominantResource) {
  EXPECT_DOUBLE_EQ(usage_ratio({0.4, 0.1}, 0.5), 0.8);
  EXPECT_DOUBLE_EQ(usage_ratio({0.1, 0.4}, 0.5), 0.8);
  EXPECT_TRUE(std::isinf(usage_ratio({0.3, 0.3}, 0.0)));
}

// --- admission control ----------------------------------------------------

TEST(ServiceAdmission, RejectsUnknownTenant) {
  Service svc;
  const SubmitResult res = svc.submit("ghost", {small_job(App::kSort, 10)});
  ASSERT_FALSE(res.admitted);
  ASSERT_EQ(res.issues.size(), 1u);
  EXPECT_EQ(res.issues[0].field, "tenant");
}

TEST(ServiceAdmission, RejectsInvalidConfigWithPrefixedDiagnostics) {
  Service svc;
  svc.add_tenant({.name = "t"});
  JobSpec spec;
  spec.config = small_job(App::kSort, 10);
  spec.config.executors = 0;
  spec.config.mba_percent = 0;
  const SubmitResult res = svc.submit("t", spec);
  ASSERT_FALSE(res.admitted);
  bool saw_executors = false;
  bool saw_mba = false;
  for (const Diagnostic& d : res.issues) {
    saw_executors |= d.field == "config.executors";
    saw_mba |= d.field == "config.mba_percent";
  }
  EXPECT_TRUE(saw_executors);
  EXPECT_TRUE(saw_mba);
}

TEST(ServiceAdmission, RejectsMachineVariantMismatch) {
  Service svc;  // arbitrates the DRAM+NVM testbed
  svc.add_tenant({.name = "t"});
  JobSpec spec;
  spec.config = small_job(App::kSort, 10);
  spec.config.machine = workloads::MachineVariant::kDramCxl;
  const SubmitResult res = svc.submit("t", spec);
  ASSERT_FALSE(res.admitted);
  ASSERT_FALSE(res.issues.empty());
  EXPECT_EQ(res.issues[0].field, "config.machine");
}

TEST(ServiceAdmission, RejectsDemandNoGrantCouldSatisfy) {
  Service svc;
  svc.add_tenant({.name = "t"});
  JobSpec spec;
  spec.config = small_job(App::kSort, 10);  // tier 0 -> 64 GiB DRAM node
  spec.memory_demand = Bytes::gib(100.0);
  const SubmitResult res = svc.submit("t", spec);
  ASSERT_FALSE(res.admitted);
  ASSERT_EQ(res.issues.size(), 1u);
  EXPECT_EQ(res.issues[0].field, "memory_demand");
}

TEST(ServiceAdmission, DerivesByteDemandFromDeployment) {
  // 8 executors x the 16 GiB default heap = 128 GiB, which the 64 GiB
  // tier-0 node can never reserve — rejected up front, not queued forever.
  Service svc;
  svc.add_tenant({.name = "t"});
  JobSpec spec;
  spec.config = small_job(App::kSort, 5);
  spec.config.executors = 8;
  const SubmitResult res = svc.submit("t", spec);
  ASSERT_FALSE(res.admitted);
  ASSERT_EQ(res.issues.size(), 1u);
  EXPECT_EQ(res.issues[0].field, "memory_demand");
}

TEST(ServiceAdmission, ClosesAfterDrain) {
  Service svc;
  svc.add_tenant({.name = "t"});
  svc.drain();
  const SubmitResult res = svc.submit("t", {small_job(App::kSort, 10)});
  ASSERT_FALSE(res.admitted);
  ASSERT_FALSE(res.issues.empty());
  EXPECT_EQ(res.issues[0].field, "service");
}

// --- single-tenant equivalence --------------------------------------------

TEST(ServiceIdentity, SingleTenantRunIsByteIdenticalToDirectRun) {
  const RunConfig cfg;  // the paper default: 1 executor x 40 threads
  const RunResult direct = workloads::run_workload(cfg);

  Service svc;
  svc.add_tenant({.name = "solo"});
  const SubmitResult res = svc.submit("solo", {cfg});
  ASSERT_TRUE(res.admitted);
  const ServiceReport report = svc.drain();

  ASSERT_EQ(report.jobs.size(), 1u);
  const JobOutcome& job = report.jobs[0];
  EXPECT_EQ(job.state, JobState::kDone);
  EXPECT_FALSE(job.shaped);
  EXPECT_EQ(job.background_gbps, 0.0);
  EXPECT_TRUE(job.executed == cfg);
  // The acceptance contract: an unshared service adds nothing — the job's
  // result serializes to the same bytes as the direct call.
  EXPECT_TRUE(runner::results_identical(job.result, direct));
  EXPECT_EQ(runner::to_json(job.result), runner::to_json(direct));
}

TEST(ServiceReportJson, TenantNamesRoundTripThroughTheSharedParser) {
  Service svc;
  const std::string name = "q\"x\\y";
  svc.add_tenant({.name = name});
  const std::string json = to_json(svc.drain());
  const json::Value doc = json::parse(json);
  const json::Value& tenants = doc.at("tenants");
  ASSERT_EQ(tenants.items().size(), 1u);
  EXPECT_EQ(tenants.items()[0].at("tenant").as_string(), name);
}

TEST(ServiceReportJson, RejectsTenantNamesWithControlBytes) {
  Service svc;
  try {
    svc.add_tenant({.name = "line\nbreak"});
    FAIL() << "a control byte in a tenant name was accepted";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("tenant.name"), std::string::npos)
        << e.what();
  }
}

TEST(ServiceIdentity, FullDemandGrantLeavesConfigUnshaped) {
  RunConfig cfg = small_job(App::kPagerank, 20);
  Service svc;
  svc.add_tenant({.name = "solo"});
  ASSERT_TRUE(svc.submit("solo", {cfg}).admitted);
  const ServiceReport report = svc.drain();
  ASSERT_EQ(report.jobs.size(), 1u);
  EXPECT_EQ(report.jobs[0].grant.cores, 20);
  EXPECT_DOUBLE_EQ(report.jobs[0].grant.bytes.to_gib(), 16.0);
  EXPECT_FALSE(report.jobs[0].shaped);
}

// --- fairness invariants --------------------------------------------------

TEST(ServiceFairness, UsageRatiosEqualizeUnderSaturatedBacklog) {
  // alpha (weight 3) and beta (weight 1) keep the socket saturated with
  // identical 10-core jobs until both queues drain together. Fair share
  // then predicts equal *normalized* service: each tenant's dominant usage
  // fraction over its share converges to the same value.
  runner::ResultCache cache;
  ServiceConfig sc;
  sc.per_core_stream_gbps = 0.0;  // keep every run's exec time identical
  sc.cache = &cache;
  Service svc(sc);
  svc.add_tenant({.name = "alpha", .weight = 3.0});
  svc.add_tenant({.name = "beta", .weight = 1.0});
  for (int i = 0; i < 12; ++i)
    ASSERT_TRUE(svc.submit("alpha", {small_job(App::kSort, 10)}).admitted);
  for (int i = 0; i < 4; ++i)
    ASSERT_TRUE(svc.submit("beta", {small_job(App::kSort, 10)}).admitted);
  const ServiceReport report = svc.drain();

  const mem::TopologySpec topo = mem::testbed_topology();
  double total_gib = 0.0;
  for (const mem::MemNodeSpec& node : topo.nodes)
    total_gib += node.capacity.to_gib();
  const auto ratio_of = [&](const std::string& name, double share) {
    for (const auto& [tenant, u] : report.tenants) {
      if (tenant != name) continue;
      const double cores = u.core_seconds /
                           (topo.total_hw_threads() * report.makespan_s);
      const double bytes = u.gib_seconds / (total_gib * report.makespan_s);
      return ResourceFractions{cores, bytes}.dominant() / share;
    }
    ADD_FAILURE() << "tenant " << name << " missing from report";
    return 0.0;
  };
  const double alpha = ratio_of("alpha", 0.75);
  const double beta = ratio_of("beta", 0.25);
  EXPECT_GT(alpha, 0.0);
  EXPECT_GT(beta, 0.0);
  EXPECT_NEAR(alpha, beta, 0.25 * std::max(alpha, beta));

  for (const JobOutcome& job : report.jobs)
    EXPECT_EQ(job.state, JobState::kDone);
}

TEST(ServiceFairness, PreemptionTaxesOverQuotaTenantAndIsBounded) {
  // A hog grabs the whole socket while alone (fair: nobody else wants it);
  // two tenants arriving later shrink its share to 1/3, making it
  // over-quota and preemptible — exactly once each per max_preemptions.
  runner::ResultCache cache;
  ServiceConfig sc;
  sc.per_core_stream_gbps = 0.0;
  sc.max_preemptions_per_job = 1;
  sc.cache = &cache;
  Service svc(sc);
  svc.add_tenant({.name = "hog"});
  svc.add_tenant({.name = "u1"});
  svc.add_tenant({.name = "u2"});

  JobSpec big;
  big.config = small_job(App::kSort, 10);
  big.config.executors = 3;  // 30 of 40 threads, 48 GiB of the 64 GiB node
  ASSERT_TRUE(svc.submit("hog", big).admitted);
  JobSpec late;
  late.config = small_job(App::kSort, 10);
  late.submit_at_s = 0.5;
  ASSERT_TRUE(svc.submit("u1", late).admitted);
  ASSERT_TRUE(svc.submit("u2", late).admitted);

  const ServiceReport report = svc.drain();
  EXPECT_GE(report.preemptions, 1u);
  for (const JobOutcome& job : report.jobs) {
    EXPECT_EQ(job.state, JobState::kDone);  // nobody starves
    EXPECT_LE(job.preemptions, 1);          // the starvation-freedom bound
  }
  // The hog paid the tax: its wasted work is itemized, not silently lost.
  for (const auto& [tenant, u] : report.tenants) {
    if (tenant != "hog") continue;
    EXPECT_EQ(u.preemptions, 1u);
    EXPECT_GT(u.wasted_core_seconds, 0.0);
    EXPECT_EQ(u.jobs_completed, 1u);
  }
}

TEST(ServiceFairness, FifoHeadOfLineBlocksWhereFairShareOvertakes) {
  // j0 takes 30 threads; j1 (head of queue) wants 20 and must wait; j2
  // wants 10 and would fit beside j0. FIFO holds j2 behind the blocked
  // head; fair share lets it overtake.
  const auto drill = [](ArbitrationMode mode) {
    runner::ResultCache cache;
    ServiceConfig sc;
    sc.mode = mode;
    sc.per_core_stream_gbps = 0.0;
    sc.cache = &cache;
    Service svc(sc);
    svc.add_tenant({.name = "a"});
    svc.add_tenant({.name = "b"});
    svc.add_tenant({.name = "c"});
    JobSpec j0;
    j0.config = small_job(App::kSort, 10);
    j0.config.executors = 3;
    ASSERT_TRUE(svc.submit("a", j0).admitted);
    JobSpec j1;
    j1.config = small_job(App::kSort, 20);
    j1.preemptible = false;
    ASSERT_TRUE(svc.submit("b", j1).admitted);
    JobSpec j2;
    j2.config = small_job(App::kSort, 10);
    j2.preemptible = false;
    ASSERT_TRUE(svc.submit("c", j2).admitted);
    const ServiceReport report = svc.drain();
    ASSERT_EQ(report.jobs.size(), 3u);
    if (mode == ArbitrationMode::kFifo) {
      EXPECT_EQ(report.preemptions, 0u);
      // j2 never overtakes the blocked 20-core head.
      EXPECT_GE(report.jobs[2].started_s, report.jobs[1].started_s);
      EXPECT_GT(report.jobs[2].started_s, 0.0);
    } else {
      // Work-conserving fair share backfills j2 immediately.
      EXPECT_DOUBLE_EQ(report.jobs[2].started_s, 0.0);
    }
  };
  drill(ArbitrationMode::kFifo);
  drill(ArbitrationMode::kFairShare);
}

// --- deterministic replay -------------------------------------------------

/// A seeded 3-tenant mix: apps, widths, and arrival times all derive from
/// the seed through a splitmix step, as the bench harness does.
ServiceReport seeded_mix(std::uint64_t seed, runner::ResultCache* cache) {
  ServiceConfig sc;
  sc.seed = seed;
  sc.cache = cache;
  Service svc(sc);
  svc.add_pool({.name = "prod", .weight = 2.0});
  svc.add_tenant({.name = "etl", .pool = "prod", .weight = 2.0});
  svc.add_tenant({.name = "svc", .pool = "prod", .weight = 1.0});
  svc.add_tenant({.name = "adhoc"});
  const char* tenants[3] = {"etl", "svc", "adhoc"};
  std::uint64_t x = seed;
  for (int i = 0; i < 9; ++i) {
    x += 0x9e3779b97f4a7c15ULL;
    std::uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    z ^= z >> 31;
    JobSpec spec;
    spec.config = small_job(workloads::kAllApps[z % 7],
                            10 + static_cast<int>(z >> 8 & 1) * 10);
    spec.submit_at_s = static_cast<double>(z >> 16 & 3);
    EXPECT_TRUE(svc.submit(tenants[i % 3], spec).admitted);
  }
  return svc.drain();
}

TEST(ServiceReplay, SeededThreeTenantMixReplaysByteIdentically) {
  runner::ResultCache cache;
  const std::string a = to_json(seeded_mix(1234, &cache));
  const std::string b = to_json(seeded_mix(1234, &cache));
  EXPECT_EQ(a, b);
  EXPECT_NE(a.find("\"mode\":\"fair_share\""), std::string::npos);
}

TEST(ServiceReplay, DifferentSeedsNameDifferentMixes) {
  runner::ResultCache cache;
  EXPECT_NE(to_json(seeded_mix(1234, &cache)),
            to_json(seeded_mix(4321, &cache)));
}

// --- interference coupling ------------------------------------------------

TEST(ServiceInterference, CoRunnersOnTheSameNodeExertBackgroundLoad) {
  // Two 20-core jobs on the same node: the second starts while the first
  // runs and inherits per_core_stream_gbps x 20 of background traffic.
  ServiceConfig sc;
  sc.per_core_stream_gbps = 0.25;
  Service svc(sc);
  svc.add_tenant({.name = "a"});
  svc.add_tenant({.name = "b"});
  ASSERT_TRUE(svc.submit("a", {small_job(App::kSort, 20)}).admitted);
  ASSERT_TRUE(svc.submit("b", {small_job(App::kPagerank, 20)}).admitted);
  const ServiceReport report = svc.drain();
  ASSERT_EQ(report.jobs.size(), 2u);
  EXPECT_DOUBLE_EQ(report.jobs[0].background_gbps, 0.0);
  EXPECT_DOUBLE_EQ(report.jobs[1].background_gbps, 0.25 * 20);
  EXPECT_DOUBLE_EQ(report.jobs[1].executed.background_load_gbps, 0.25 * 20);
}

// --- PlacementSpec satellite ----------------------------------------------

TEST(PlacementSpec, FluentBuilderResolvesPerStreamTiers) {
  const spark::PlacementSpec spec = spark::PlacementSpec{}
                                        .heap(mem::TierId::kTier2)
                                        .shuffle_on(mem::TierId::kTier0)
                                        .cache_on(mem::TierId::kTier1);
  EXPECT_EQ(spec.tier_for(spark::StreamClass::kHeap), mem::TierId::kTier2);
  EXPECT_EQ(spec.tier_for(spark::StreamClass::kShuffle), mem::TierId::kTier0);
  EXPECT_EQ(spec.tier_for(spark::StreamClass::kCache), mem::TierId::kTier1);
}

TEST(PlacementSpec, UnsetOverridesFollowTheHeapBind) {
  spark::PlacementSpec spec = spark::PlacementSpec{}
                                  .heap(mem::TierId::kTier3)
                                  .shuffle_on(mem::TierId::kTier0);
  EXPECT_EQ(spec.tier_for(spark::StreamClass::kCache), mem::TierId::kTier3);
  spec.follow_heap();
  EXPECT_EQ(spec.tier_for(spark::StreamClass::kShuffle), mem::TierId::kTier3);
  EXPECT_FALSE(spec.shuffle_bind.has_value());
}

TEST(PlacementSpec, LegacyFieldSpellingsAliasTheSpec) {
  // Pre-spec call sites assign SparkConf::mem_bind & co directly; the spec
  // and the legacy fields must be the same storage.
  spark::SparkConf conf;
  conf.mem_bind = mem::TierId::kTier2;
  conf.shuffle_bind = mem::TierId::kTier0;
  EXPECT_EQ(conf.placement().tier_for(spark::StreamClass::kShuffle),
            mem::TierId::kTier0);
  conf.set_placement(spark::PlacementSpec{}.heap(mem::TierId::kTier1));
  EXPECT_EQ(conf.mem_bind, mem::TierId::kTier1);
  EXPECT_FALSE(conf.shuffle_bind.has_value());
}

TEST(PlacementSpec, CanonicalFieldsKeepTheFrozenEncoding) {
  // A spec enters the config's identity under the frozen pre-spec names,
  // positions and encodings, so persisted result stores stay valid.
  RunConfig cfg;
  cfg.set_placement(spark::PlacementSpec{}
                        .heap(mem::TierId::kTier2)
                        .cache_on(mem::TierId::kTier0));
  const auto fields = workloads::config_fields(cfg);
  ASSERT_GT(fields.size(), 9u);
  EXPECT_EQ(fields[2].first, "tier");
  EXPECT_EQ(fields[2].second, "2");
  EXPECT_EQ(fields[8].first, "shuffle_tier");
  EXPECT_EQ(fields[8].second, "none");
  EXPECT_EQ(fields[9].first, "cache_tier");
  EXPECT_EQ(fields[9].second, "0");
}

TEST(PlacementSpec, RunConfigHashConsumesTheSpecCanonically) {
  RunConfig legacy;
  legacy.tier = mem::TierId::kTier2;
  legacy.shuffle_tier = mem::TierId::kTier0;

  RunConfig via_spec;
  via_spec.set_placement(spark::PlacementSpec{}
                             .heap(mem::TierId::kTier2)
                             .shuffle_on(mem::TierId::kTier0));
  EXPECT_EQ(workloads::stable_hash(legacy), workloads::stable_hash(via_spec));
  EXPECT_TRUE(legacy == via_spec);

  via_spec.set_placement(via_spec.placement().shuffle_on(mem::TierId::kTier1));
  EXPECT_NE(workloads::stable_hash(legacy), workloads::stable_hash(via_spec));
}

// --- RuntimeHooks satellite -----------------------------------------------

TEST(RuntimeHooks, NullObjectDefaultIsEmpty) {
  const spark::RuntimeHooks hooks;
  EXPECT_TRUE(hooks.empty());
  EXPECT_EQ(hooks, spark::RuntimeHooks{});
}

TEST(RuntimeHooks, BundlesCompareByBothSeams) {
  spark::RuntimeHooks a;
  spark::RuntimeHooks b;
  // Any non-null pointer distinguishes the bundles; the hooks are opaque.
  int dummy = 0;
  a.tiering = reinterpret_cast<spark::TieringHooks*>(&dummy);
  EXPECT_FALSE(a.empty());
  EXPECT_NE(a, b);
  b.tiering = a.tiering;
  EXPECT_EQ(a, b);
}

// --- RunConfig::validate satellite ----------------------------------------

TEST(RunConfigValidate, DefaultConfigIsClean) {
  EXPECT_TRUE(RunConfig{}.validate().empty());
}

TEST(RunConfigValidate, ItemizesEveryDeploymentProblem) {
  RunConfig cfg;
  cfg.executors = 0;
  cfg.cores_per_executor = 0;
  cfg.socket = 7;
  cfg.mba_percent = 101;
  cfg.background_load_gbps = -1.0;
  std::vector<std::string> fields;
  for (const Diagnostic& d : cfg.validate()) fields.push_back(d.field);
  EXPECT_NE(std::find(fields.begin(), fields.end(), "executors"),
            fields.end());
  EXPECT_NE(std::find(fields.begin(), fields.end(), "cores_per_executor"),
            fields.end());
  EXPECT_NE(std::find(fields.begin(), fields.end(), "socket"), fields.end());
  EXPECT_NE(std::find(fields.begin(), fields.end(), "mba_percent"),
            fields.end());
  EXPECT_NE(std::find(fields.begin(), fields.end(), "background_load_gbps"),
            fields.end());
}

TEST(RunConfigValidate, FlagsOverCapacityCacheBind) {
  // 9 executors x 16 GiB heap x 0.5 storage fraction = 72 GiB of cached
  // blocks against a 64 GiB DRAM node; 8 executors (64 GiB) just fits.
  RunConfig cfg;
  cfg.executors = 9;
  ASSERT_EQ(cfg.validate().size(), 1u);
  EXPECT_EQ(cfg.validate()[0].field, "cache_tier");
  cfg.executors = 8;
  EXPECT_TRUE(cfg.validate().empty());
}

TEST(RunConfigValidate, PrefixesTieringDiagnosticsUnderDynamicPolicies) {
  RunConfig cfg;
  cfg.tiering.policy = tiering::PolicyKind::kLfuPromote;
  cfg.tiering.epoch_ms = 0.0;
  // The same broken knob is inert — and unreported — under the static
  // policy.
  RunConfig inert = cfg;
  inert.tiering.policy = tiering::PolicyKind::kStatic;
  EXPECT_TRUE(inert.validate().empty());
  const auto issues = cfg.validate();
  ASSERT_EQ(issues.size(), 1u);
  EXPECT_EQ(issues[0].field, "tiering.epoch_ms");
}

TEST(RunConfigValidate, CatchesTieringFaultConflict) {
  RunConfig cfg;
  cfg.tiering.policy = tiering::PolicyKind::kLfuPromote;
  cfg.fault.enabled = true;
  cfg.fault.offline_tier = 0;
  cfg.fault.degrade_to = 2;
  const auto issues = cfg.validate();
  ASSERT_FALSE(issues.empty());
  EXPECT_EQ(issues[0].field, "fault.offline_tier");
}

TEST(RunConfigValidate, ThrowHelperItemizesDiagnostics) {
  RunConfig cfg;
  cfg.executors = 0;
  try {
    workloads::validate_or_throw(cfg);
    FAIL() << "expected tsx::Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("invalid RunConfig"),
              std::string::npos);
    EXPECT_NE(std::string(e.what()).find("executors"), std::string::npos);
  }
}

TEST(RunConfigValidate, RunWorkloadEnforcesValidation) {
  RunConfig cfg;
  cfg.mba_percent = 0;
  EXPECT_THROW(workloads::run_workload(cfg), Error);
}

}  // namespace
}  // namespace tsx::service
