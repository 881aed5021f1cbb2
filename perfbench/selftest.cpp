// Self-tests of the benchmark's own logic: order statistics, the metric
// name grammar, the seed schedule, failure counting, the byte-identity
// check and the host-speed normalization. Run with
// `python3 perfbench/run.py --selftest`.
#include <gtest/gtest.h>

#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "harness.hpp"
#include "runner/serialize.hpp"

namespace perfbench {
namespace {

TEST(Percentiles, NearestRankOnKnownSamples) {
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(i);
  EXPECT_EQ(percentile(v, 0.5), 50.0);
  EXPECT_EQ(percentile(v, 0.9), 90.0);
  EXPECT_EQ(percentile(v, 1.0), 100.0);
  EXPECT_EQ(percentile(v, 0.0), 1.0);
  EXPECT_EQ(percentile({3.0, 1.0, 2.0}, 0.5), 2.0);  // unsorted input
}

TEST(Percentiles, SampleCountsBeyondAQuantile) {
  EXPECT_EQ(rank_of(100, 0.9), 90u);
  EXPECT_EQ(samples_beyond(100, 0.9), 10u);
  EXPECT_EQ(samples_beyond(99, 0.9), 9u);  // ceil(89.1) = 90
  EXPECT_EQ(samples_beyond(1, 0.5), 0u);
  EXPECT_EQ(samples_beyond(0, 0.5), 0u);
  // p90 needs >= 100 calls to have 10 samples beyond it.
  EXPECT_EQ(samples_beyond(1000, 0.99), 10u);
  EXPECT_EQ(samples_beyond(100, 0.95), 5u);
}

TEST(Percentiles, EveryWorkloadReachesTheTailQuantile) {
  EXPECT_EQ(samples_beyond(kMinTailCalls, kTailQuantile), 10u);
  EXPECT_LT(samples_beyond(kMinTailCalls - 1, kTailQuantile), 10u);
  for (const std::string& name : workload_names()) {
    const Workload w = make_workload(name);
    const int passes = passes_for(1.0, w.nominal_pass_s, w.min_passes);
    EXPECT_GE(w.pass.size() * static_cast<std::size_t>(passes), kMinTailCalls) << name;
    EXPECT_GE(samples_beyond(w.pass.size() * static_cast<std::size_t>(passes),
                             kTailQuantile),
              10u)
        << name;
  }
}

TEST(Names, MetricNameGrammar) {
  for (const char* ok : {"norm.runs_per_s", "norm.run_s.p98", "workloads.host_s.bayes",
                         "obs.other_share", "0x", "a-b"})
    EXPECT_TRUE(valid_name(ok)) << ok;
  for (const char* bad : {"", "fig2_sweep/runs_per_s", ".lead", "_lead",
                          "has space", "semi;colon", "quote\""})
    EXPECT_FALSE(valid_name(bad)) << bad;
  EXPECT_TRUE(valid_name(std::string(64, 'a')));
  EXPECT_FALSE(valid_name(std::string(65, 'a')));
  for (const std::string& name : workload_names()) EXPECT_TRUE(valid_name(name));
}

TEST(SeedSchedule, PureAndDistinctAcrossPasses) {
  EXPECT_EQ(derive_seed(7, 3, 11), derive_seed(7, 3, 11));
  std::set<std::uint64_t> seen;
  for (std::uint64_t pass = 0; pass < 50; ++pass)
    for (std::uint64_t slot = 0; slot < 21; ++slot)
      EXPECT_TRUE(seen.insert(derive_seed(1, pass, slot)).second);
  for (std::uint64_t slot = 0; slot < 21; ++slot)
    EXPECT_EQ(seen.count(warmup_seed(1, slot)), 0u);
  EXPECT_NE(derive_seed(1, 0, 0), derive_seed(2, 0, 0));
  for (const std::uint64_t s : seen) EXPECT_LT(s, 1ULL << 53);
}

TEST(SeedSchedule, PassCountDependsOnRequestedSecondsOnly) {
  EXPECT_EQ(passes_for(20, 6.0, 2), 3);
  EXPECT_EQ(passes_for(1, 6.0, 2), 2);
  EXPECT_EQ(passes_for(20, 0.2, 17), 100);
  EXPECT_EQ(passes_for(2, 0.2, 17), 17);
  // The full schedule of a run is fixed before anything is timed.
  const Workload w = make_workload("engine_large");
  const auto a = pass_configs(w, 5, 2);
  const auto b = pass_configs(w, 5, 2);
  ASSERT_EQ(a.size(), 6u);
  EXPECT_EQ(a, b);
  // Tiers of one app share the app's input; apps do not.
  EXPECT_EQ(a[0].seed, a[1].seed);
  EXPECT_NE(a[0].seed, a[2].seed);
  EXPECT_NE(pass_configs(w, 5, 3)[0].seed, a[0].seed);
}

TEST(Workloads, ShapesMatchTheirDefinitions) {
  const Workload fig2 = make_workload("fig2_sweep");
  EXPECT_EQ(fig2.pass.size(), 84u);
  EXPECT_EQ(fig2.task_threads, 1);
  const Workload engine = make_workload("engine_large");
  EXPECT_EQ(engine.pass.size(), 6u);
  EXPECT_EQ(engine.task_threads, 2);
  const Workload drills = make_workload("traced_drills");
  EXPECT_EQ(drills.pass.size(), 12u);
  EXPECT_TRUE(drills.export_each_run);
  std::set<std::uint64_t> slots;
  for (const Job& j : drills.pass) slots.insert(j.slot);
  EXPECT_EQ(slots.size(), 12u);  // every drill run has its own input
  for (const std::string& name : workload_names())
    for (const RunConfig& c : pass_configs(make_workload(name), 1, 0))
      EXPECT_TRUE(c.validate().empty()) << name << " " << c.describe();
  EXPECT_THROW(make_workload("nope"), std::invalid_argument);
}

TEST(Runs, InvalidConfigCountsAsFailedInsteadOfCrashing) {
  RunConfig bad;
  bad.executors = 0;
  const RunResult r = call_run(bad);
  EXPECT_TRUE(r.failed);
  EXPECT_FALSE(run_ok(r));
  EXPECT_FALSE(is_known_defect(r));
  EXPECT_NE(r.error.find("executors"), std::string::npos) << r.error;
}

TEST(Runs, KnownDefectIsOnlyAnRfSelfCheckFailureBelowLarge) {
  RunResult r;
  r.config.app = tsx::workloads::App::kRf;
  r.config.scale = tsx::workloads::ScaleId::kSmall;
  r.valid = false;
  EXPECT_TRUE(is_known_defect(r));
  r.failed = true;  // a crash is never the known defect
  EXPECT_FALSE(is_known_defect(r));
  r.failed = false;
  r.config.scale = tsx::workloads::ScaleId::kTiny;
  EXPECT_TRUE(is_known_defect(r));
  // rf-large passes its self-check on every seed tried, so a failure there
  // is a regression, not the known defect.
  r.config.scale = tsx::workloads::ScaleId::kLarge;
  EXPECT_FALSE(is_known_defect(r));
  r.config.scale = tsx::workloads::ScaleId::kSmall;
  r.config.app = tsx::workloads::App::kSort;
  EXPECT_FALSE(is_known_defect(r));
}

TEST(Runs, KnownDefectShareWellAboveExpectedIsRefused) {
  const Workload fig2 = make_workload("fig2_sweep");
  const std::size_t calls = 8 * fig2.pass.size();  // eight passes
  // One rf dataset serves four tier calls.
  for (std::size_t failing = 0; failing <= 6; ++failing)
    EXPECT_TRUE(defect_share_plausible(4 * failing, calls, fig2.expected_failure_share))
        << failing;
  EXPECT_FALSE(defect_share_plausible(4 * 7, calls, fig2.expected_failure_share));
  // A workload without rf expects none.
  EXPECT_TRUE(defect_share_plausible(0, 120, 0.0));
  EXPECT_FALSE(defect_share_plausible(1, 120, 0.0));
}

TEST(Identity, SingleMutatedByteIsCaught) {
  RunConfig c;
  c.seed = derive_seed(1, 0, 0);
  const RunResult r = call_run(c);
  ASSERT_TRUE(run_ok(r));
  const std::string json = tsx::runner::to_json(r);
  EXPECT_EQ(first_difference(json, json), std::string::npos);
  for (const std::size_t at : {std::size_t{0}, json.size() / 2, json.size() - 1}) {
    std::string mutated = json;
    mutated[at] = static_cast<char>(mutated[at] ^ 0x01);
    EXPECT_EQ(first_difference(json, mutated), at);
    EXPECT_NE(fnv1a(json), fnv1a(mutated));
  }
  EXPECT_EQ(first_difference(json, json.substr(0, json.size() - 1)), json.size() - 1);
}

TEST(Identity, ObsTwinNormalizesToTheSameBytes) {
  RunConfig c;
  c.app = tsx::workloads::App::kPagerank;
  c.seed = 3;
  RunConfig on = c;
  on.obs.enabled = true;
  const RunResult off_r = call_run(c);
  const RunResult on_r = call_run(on);
  EXPECT_NE(tsx::runner::to_json(off_r), tsx::runner::to_json(on_r));
  EXPECT_EQ(normalized_json(off_r), normalized_json(on_r));
}

TEST(TraceScan, RunAttributionAndEventCount) {
  const std::string trace =
      "{\"traceEvents\":[\n"
      "{\"ph\":\"M\",\"name\":\"process_name\"},\n"
      "{\"ph\":\"X\",\"name\":\"r\",\"cat\":\"spark.run\",\"ts\":0,\"dur\":2e6,"
      "\"args\":{\"attr\":{\"compute\":1.5,\"other\":0.5}}},\n"
      "{\"ph\":\"X\",\"name\":\"s\",\"cat\":\"spark.stage\",\"ts\":0,\"dur\":100,"
      "\"args\":{\"attr\":{\"other\":7}}}\n]}";
  const RunAttribution a = run_attribution(trace);
  EXPECT_DOUBLE_EQ(a.duration_s, 2.0);
  EXPECT_DOUBLE_EQ(a.other_s, 0.5);
  EXPECT_EQ(complete_events(trace), 2u);
}

TEST(HostSpeed, ReferenceKernelDoesTheSameWorkEveryRun) {
  ReferenceKernel kernel;
  EXPECT_GT(kernel.run(), 0.0);
  const std::uint64_t first = kernel.checksum();
  EXPECT_NE(first, 0u);
  kernel.run();
  EXPECT_EQ(kernel.checksum(), first);
  ReferenceKernel other;
  other.run();
  EXPECT_EQ(other.checksum(), first);
}

TEST(HostSpeed, SpeedIsNominalOverTheMedianSample) {
  const double n = kNominalReferenceSeconds;
  EXPECT_DOUBLE_EQ(host_speed({n}), 1.0);
  EXPECT_DOUBLE_EQ(host_speed({2 * n, n / 2, 2 * n}), 0.5);  // host ran slow
  EXPECT_DOUBLE_EQ(host_speed({n / 2, 9 * n, n / 2}), 2.0);  // one outlier
}

TEST(HostSpeed, EachCallIsScaledByTheSpeedAroundIt) {
  const double n = kNominalReferenceSeconds;
  // A steady host: every call keeps its seconds.
  const std::vector<double> steady = normalized_seconds({0.1, 0.2, 0.3}, {n, n, n});
  EXPECT_DOUBLE_EQ(steady[0], 0.1);
  EXPECT_DOUBLE_EQ(steady[2], 0.3);
  // The host halves its speed for the second half of a long run: the same
  // call then takes twice the host seconds, and normalizes back.
  const std::size_t calls = 20 * kSpeedHalfWindow;
  std::vector<double> seconds;
  std::vector<double> reference;
  for (std::size_t i = 0; i < calls; ++i) {
    const bool slow = i >= calls / 2;
    seconds.push_back(slow ? 0.2 : 0.1);
    reference.push_back(slow ? 2 * n : n);
  }
  const std::vector<double> norm = normalized_seconds(seconds, reference);
  EXPECT_DOUBLE_EQ(norm.front(), 0.1);
  EXPECT_DOUBLE_EQ(norm.back(), 0.1);
  EXPECT_DOUBLE_EQ(norm[calls / 2 + kSpeedHalfWindow], 0.1);
  EXPECT_THROW(normalized_seconds({0.1}, {n, n}), std::invalid_argument);
}

TEST(Spans, SelfTimeExcludesDirectChildren) {
  SpanLog log(true);
  const std::size_t root = log.begin("pass");
  {
    ScopedSpan child(log, "workloads.run_workload", "sort");
    ScopedSpan grandchild(log, "inner");
  }
  log.end(root);
  ASSERT_EQ(log.spans().size(), 3u);
  EXPECT_EQ(log.spans()[1].parent, root);
  EXPECT_EQ(log.spans()[2].parent, 2u);
  const double self = log.self_seconds(root);
  EXPECT_NEAR(self, log.spans()[0].seconds() - log.spans()[1].seconds(), 1e-12);
  EXPECT_NE(log.chrome_json().find("\"name\":\"inner\""), std::string::npos);

  SpanLog off(false);
  EXPECT_EQ(off.begin("x"), 0u);
  off.end(0);
  EXPECT_TRUE(off.spans().empty());
}

}  // namespace
}  // namespace perfbench
