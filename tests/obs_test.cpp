// The observability plane's contract (DESIGN.md §14): spans nest and
// balance, every stage attribution sums exactly to the span's duration,
// the Chrome trace export round-trips through the validator, metrics
// aggregate across label sets, and — the load-bearing guarantee — turning
// the recorder on changes not one byte of any serialized run result, at
// any task-thread count.
#include <gtest/gtest.h>

#include <cstdlib>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "obs/attribution.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/options.hpp"
#include "obs/recorder.hpp"
#include "runner/serialize.hpp"
#include "workloads/runner.hpp"

namespace tsx {
namespace {

using obs::Bucket;
using obs::Recorder;
using obs::Span;
using obs::SpanId;
using obs::SpanKind;
using obs::TimeAttribution;
using workloads::App;
using workloads::RunConfig;
using workloads::RunResult;
using workloads::ScaleId;

/// Scoped TSX_TASK_THREADS: set on construction, cleared on destruction.
class TaskThreadsGuard {
 public:
  explicit TaskThreadsGuard(int threads) {
    setenv("TSX_TASK_THREADS", std::to_string(threads).c_str(), 1);
  }
  ~TaskThreadsGuard() { unsetenv("TSX_TASK_THREADS"); }
  TaskThreadsGuard(const TaskThreadsGuard&) = delete;
  TaskThreadsGuard& operator=(const TaskThreadsGuard&) = delete;
};

RunConfig tiny(App app) {
  RunConfig cfg;
  cfg.app = app;
  cfg.scale = ScaleId::kTiny;
  return cfg;
}

// ---------------------------------------------------------------------------
// TimeAttribution / reconcile
// ---------------------------------------------------------------------------

TEST(Attribution, ReconcileFoldsResidualExactly) {
  TimeAttribution attr;
  attr.add(Bucket::kCompute, 0.3);
  attr.add(Bucket::kDramService, 0.2);
  ASSERT_TRUE(obs::reconcile(attr, 1.0, Bucket::kOther));
  EXPECT_EQ(attr.sum(), 1.0);
  EXPECT_DOUBLE_EQ(attr[Bucket::kCompute], 0.3);
}

TEST(Attribution, ReconcileHandlesAwkwardFloats) {
  TimeAttribution attr;
  attr.add(Bucket::kCompute, 0.1);
  attr.add(Bucket::kNvmService, 0.2);
  attr.add(Bucket::kQueueWait, 0.3);
  const double target = 0.1 + 0.2 + 0.3 + 1e-9;
  ASSERT_TRUE(obs::reconcile(attr, target, Bucket::kOther));
  EXPECT_EQ(attr.sum(), target);
}

TEST(Attribution, ReconcileZeroTarget) {
  TimeAttribution attr;
  attr.add(Bucket::kCompute, 1e-18);
  ASSERT_TRUE(obs::reconcile(attr, 0.0, Bucket::kOther));
  EXPECT_EQ(attr.sum(), 0.0);
}

// ---------------------------------------------------------------------------
// Category filter
// ---------------------------------------------------------------------------

TEST(CategoryFilter, ParseAndMatch) {
  const auto f = obs::CategoryFilter::parse("tiering.*,fault.inject");
  EXPECT_TRUE(f.matches("tiering.promote"));
  EXPECT_TRUE(f.matches("tiering.demote"));
  EXPECT_TRUE(f.matches("fault.inject"));
  EXPECT_FALSE(f.matches("fault.recover"));
  EXPECT_FALSE(f.matches("query.exec"));
  EXPECT_FALSE(f.match_all());

  EXPECT_TRUE(obs::CategoryFilter::parse("").match_all());
  EXPECT_TRUE(obs::CategoryFilter::parse("*").match_all());
  // A trailing ".*" keeps the dot: "tiering.*" must not match "tieringx".
  EXPECT_FALSE(obs::CategoryFilter::parse("tiering.*").matches("tieringx"));
}

TEST(ObsConfig, ValidateRejectsUnquotableFilters) {
  obs::ObsConfig cfg;
  cfg.trace_filter = "tiering.*,fault.*";
  EXPECT_TRUE(cfg.validate().empty());
  cfg.trace_filter = "bad filter";
  EXPECT_FALSE(cfg.validate().empty());
  cfg.trace_filter = "bad\"quote";
  EXPECT_FALSE(cfg.validate().empty());
}

// ---------------------------------------------------------------------------
// Metrics registry
// ---------------------------------------------------------------------------

TEST(Metrics, CountersAggregateAcrossLabels) {
  obs::MetricsRegistry reg;
  reg.counter_add("jobs", {{"tenant", "etl"}}, 2.0);
  reg.counter_add("jobs", {{"tenant", "adhoc"}});
  reg.counter_add("jobs", {{"tenant", "etl"}});
  EXPECT_DOUBLE_EQ(reg.value("jobs", {{"tenant", "etl"}}), 3.0);
  EXPECT_DOUBLE_EQ(reg.value("jobs", {{"tenant", "adhoc"}}), 1.0);
  EXPECT_DOUBLE_EQ(reg.aggregate("jobs"), 4.0);
  // Label order must not split cells.
  reg.counter_add("mix", {{"a", "1"}, {"b", "2"}});
  reg.counter_add("mix", {{"b", "2"}, {"a", "1"}});
  EXPECT_DOUBLE_EQ(reg.value("mix", {{"a", "1"}, {"b", "2"}}), 2.0);
}

TEST(Metrics, GaugeAndHistogramQuantiles) {
  obs::MetricsRegistry reg;
  reg.gauge_set("depth", {}, 7.0);
  reg.gauge_set("depth", {}, 3.0);
  EXPECT_DOUBLE_EQ(reg.value("depth"), 3.0);

  for (int i = 1; i <= 100; ++i)
    reg.observe("lat", {}, static_cast<double>(i), 0.0, 100.0, 100);
  const obs::HistogramCell* cell = reg.histogram("lat");
  ASSERT_NE(cell, nullptr);
  EXPECT_EQ(cell->count, 100u);
  EXPECT_DOUBLE_EQ(cell->min, 1.0);
  EXPECT_DOUBLE_EQ(cell->max, 100.0);
  EXPECT_NEAR(cell->p50(), 50.0, 2.0);
  EXPECT_NEAR(cell->p95(), 95.0, 2.0);
  EXPECT_NEAR(cell->p99(), 99.0, 2.0);
}

TEST(Metrics, SnapshotIsCanonicallyOrdered) {
  obs::MetricsRegistry reg;
  reg.counter_add("b", {});
  reg.counter_add("a", {{"x", "2"}});
  reg.counter_add("a", {{"x", "1"}});
  reg.observe("c", {}, 0.5);
  const auto rows = reg.snapshot();
  ASSERT_EQ(rows.size(), 4u);
  EXPECT_EQ(rows[0].name, "a");
  EXPECT_EQ(rows[0].labels.canonical(), "x=1");
  EXPECT_EQ(rows[1].labels.canonical(), "x=2");
  EXPECT_EQ(rows[2].name, "b");
  EXPECT_EQ(rows[3].name, "c");
}

// ---------------------------------------------------------------------------
// Span mechanics
// ---------------------------------------------------------------------------

TEST(Recorder, SpansNestAndBalance) {
  Recorder rec;
  const SpanId run = rec.open_run("r", Duration::zero());
  const SpanId job = rec.open_job("j", Duration::zero());
  const SpanId stage = rec.open_stage(0, "map", false, Duration::zero());
  EXPECT_EQ(rec.stack_top(), stage);
  const SpanId task =
      rec.open_task(stage, 0, 0, 0, 0, Duration::seconds(0.1));
  rec.task_started(task, Duration::seconds(0.3));
  rec.add_segment(task, Bucket::kCompute, 0.5);
  rec.close_task(task, Duration::seconds(1.0));
  rec.close_stage(stage, Duration::seconds(1.2));
  rec.close_job(job, Duration::seconds(1.3));
  rec.finalize(Duration::seconds(1.5));

  ASSERT_EQ(rec.spans().size(), 4u);
  EXPECT_EQ(rec.open_span_count(), 0u);
  const Span* t = rec.find(task);
  ASSERT_NE(t, nullptr);
  EXPECT_EQ(t->parent, stage);
  EXPECT_DOUBLE_EQ(t->attr[Bucket::kQueueWait], 0.2);
  EXPECT_DOUBLE_EQ(t->attr[Bucket::kCompute], 0.5);
  EXPECT_EQ(t->attr.sum(), t->duration().sec());
  EXPECT_EQ(rec.find(run)->attr.sum(), rec.find(run)->duration().sec());
  // The run rollup covers the whole window: job time + the trailing gap.
  EXPECT_DOUBLE_EQ(rec.find(run)->duration().sec(), 1.5);
}

TEST(Recorder, FilterHidesSpansButKeepsAttribution) {
  Recorder rec;
  rec.set_filter(obs::CategoryFilter::parse("spark.*"));
  rec.open_run("r", Duration::zero());
  const SpanId job = rec.open_job("j", Duration::zero());
  const SpanId mig =
      rec.open_migration("promote:1", "tiering.promote", Duration::zero());
  rec.close_migration(mig, Duration::seconds(0.5));
  rec.instant("uce", "fault.inject", Duration::seconds(0.2));
  rec.instant("task-failed", "spark.task", Duration::seconds(0.3));
  rec.close_job(job, Duration::seconds(1.0));
  rec.finalize(Duration::seconds(1.0));

  const Span* m = rec.find(mig);
  ASSERT_NE(m, nullptr);
  EXPECT_FALSE(m->visible);  // filtered out of exports ...
  EXPECT_EQ(m->attr.sum(), m->duration().sec());  // ... but still sealed
  // The filtered instant was dropped outright; the matching one kept.
  std::size_t instants = 0;
  for (const Span& s : rec.spans())
    if (s.kind == SpanKind::kInstant) ++instants;
  EXPECT_EQ(instants, 1u);
}

// ---------------------------------------------------------------------------
// Whole-run attribution invariant
// ---------------------------------------------------------------------------

class AttributionSumsExactly : public ::testing::TestWithParam<App> {};

TEST_P(AttributionSumsExactly, EveryStageSpanInEveryWorkload) {
  RunConfig cfg = tiny(GetParam());
  cfg.obs.enabled = true;
  const RunResult result = workloads::run_workload(cfg);
  ASSERT_NE(result.trace, nullptr);
  ASSERT_TRUE(result.trace->finalized());
  EXPECT_EQ(result.trace->open_span_count(), 0u);

  std::size_t stage_spans = 0;
  for (const Span& s : result.trace->spans()) {
    if (s.open || s.kind == SpanKind::kInstant) continue;
    // The exact-sum invariant, bit for bit — no tolerance.
    EXPECT_EQ(s.attr.sum(), s.duration().sec())
        << to_string(s.kind) << " span '" << s.name << "'";
    if (s.kind == SpanKind::kStage) ++stage_spans;
  }
  EXPECT_EQ(stage_spans, result.stages);
}

INSTANTIATE_TEST_SUITE_P(AllApps, AttributionSumsExactly,
                         ::testing::ValuesIn(workloads::kAllApps),
                         [](const auto& info) {
                           return workloads::to_string(info.param);
                         });

// ---------------------------------------------------------------------------
// Byte identity: obs off vs on, serial vs parallel
// ---------------------------------------------------------------------------

TEST(ObsIdentity, EnablingObsChangesNoSerializedByte) {
  for (const App app : {App::kSort, App::kPagerank}) {
    RunConfig off = tiny(app);
    RunConfig on = off;
    on.obs.enabled = true;
    RunResult a = workloads::run_workload(off);
    RunResult b = workloads::run_workload(on);
    // The obs knobs are part of the config identity (deliberately), so
    // compare the simulation outcome with the config normalized.
    b.config.obs = off.obs;
    b.trace = nullptr;
    EXPECT_EQ(runner::to_json(a), runner::to_json(b))
        << workloads::to_string(app);
  }
}

TEST(ObsIdentity, ObsOnIsThreadCountInvariant) {
  RunConfig cfg = tiny(App::kPagerank);
  cfg.obs.enabled = true;

  unsetenv("TSX_TASK_THREADS");
  const RunResult serial = workloads::run_workload(cfg);
  ASSERT_NE(serial.trace, nullptr);
  const std::string serial_json = runner::to_json(serial);
  const std::string serial_trace = obs::chrome_trace_json(*serial.trace);

  for (const int threads : {4, 8}) {
    TaskThreadsGuard guard(threads);
    const RunResult parallel = workloads::run_workload(cfg);
    ASSERT_NE(parallel.trace, nullptr);
    EXPECT_EQ(serial_json, runner::to_json(parallel)) << threads;
    // The span trees — ids, nesting, timing, attribution — and therefore
    // the exported trace bytes must be identical too.
    EXPECT_EQ(serial_trace, obs::chrome_trace_json(*parallel.trace))
        << threads;
  }
}

// ---------------------------------------------------------------------------
// Subsystem spans
// ---------------------------------------------------------------------------

TEST(ObsSubsystems, MigrationSpansUnderLfuPromote) {
  RunConfig cfg = tiny(App::kPagerank);
  cfg.tier = mem::TierId::kTier2;
  cfg.obs.enabled = true;
  cfg.tiering.policy = tiering::PolicyKind::kLfuPromote;
  const RunResult result = workloads::run_workload(cfg);
  ASSERT_NE(result.trace, nullptr);

  std::size_t migrations = 0;
  for (const Span& s : result.trace->spans()) {
    if (s.kind != SpanKind::kMigration) continue;
    ++migrations;
    EXPECT_FALSE(s.open);
    EXPECT_EQ(s.attr.sum(), s.duration().sec());
  }
  const auto& m = result.trace->metrics();
  EXPECT_EQ(migrations, static_cast<std::size_t>(
                            m.aggregate("tiering_promotions") +
                            m.aggregate("tiering_demotions")));
  EXPECT_EQ(migrations,
            result.tiering.promotions + result.tiering.demotions);
  EXPECT_GT(migrations, 0u);
}

TEST(ObsSubsystems, FaultModeRecordsRecoveryTime) {
  RunConfig cfg = tiny(App::kSort);
  cfg.fault.enabled = true;
  cfg.fault.straggler_prob = 0.2;
  cfg.fault.straggler_factor = 4.0;
  cfg.obs.enabled = true;
  const RunResult result = workloads::run_workload(cfg);
  ASSERT_NE(result.trace, nullptr);

  double recovery = 0.0;
  std::size_t instants = 0;
  for (const Span& s : result.trace->spans()) {
    if (s.kind == SpanKind::kTask) recovery += s.attr[Bucket::kRecovery];
    if (s.kind == SpanKind::kInstant) ++instants;
    if (s.open || s.kind == SpanKind::kInstant) continue;
    EXPECT_EQ(s.attr.sum(), s.duration().sec());
  }
  EXPECT_GT(result.fault.stragglers, 0u);
  EXPECT_GT(recovery, 0.0);   // straggle stretch lands in kRecovery
  EXPECT_GT(instants, 0u);    // injections surface as instants
  EXPECT_GT(result.trace->metrics().aggregate("fault_events"), 0.0);
}

TEST(ObsSubsystems, FaultInstantsConserveTheFaultEventsCounter) {
  RunConfig cfg = tiny(App::kSort);
  cfg.fault.enabled = true;
  cfg.fault.straggler_prob = 0.2;
  cfg.fault.straggler_factor = 4.0;
  cfg.obs.enabled = true;
  const auto instants = [](const RunResult& r, const std::string& prefix) {
    double n = 0.0;
    for (const Span& s : r.trace->spans())
      if (s.kind == SpanKind::kInstant &&
          s.category.compare(0, prefix.size(), prefix) == 0)
        n += 1.0;
    return n;
  };

  // Unfiltered: every counted fault event is one instant, and both
  // categories occur.
  const RunResult all = workloads::run_workload(cfg);
  ASSERT_NE(all.trace, nullptr);
  const double events = all.trace->metrics().aggregate("fault_events");
  EXPECT_EQ(instants(all, "fault."), events);
  EXPECT_GT(instants(all, "fault.inject"), 0.0);
  EXPECT_GT(instants(all, "fault.recover"), 0.0);

  // Filtered: only the inject instants survive; the counter still counts
  // every event.
  cfg.obs.trace_filter = "fault.inject";
  const RunResult inject = workloads::run_workload(cfg);
  ASSERT_NE(inject.trace, nullptr);
  EXPECT_EQ(instants(inject, "fault."), instants(all, "fault.inject"));
  EXPECT_EQ(instants(inject, "fault.recover"), 0.0);
  EXPECT_EQ(inject.trace->metrics().aggregate("fault_events"), events);
}

// ---------------------------------------------------------------------------
// Exporters
// ---------------------------------------------------------------------------

TEST(Export, ChromeTraceRoundTripsThroughValidator) {
  RunConfig cfg = tiny(App::kPagerank);
  cfg.obs.enabled = true;
  const RunResult result = workloads::run_workload(cfg);
  ASSERT_NE(result.trace, nullptr);

  const std::string json = obs::chrome_trace_json(*result.trace);
  const obs::TraceValidation v = obs::validate_chrome_trace(json);
  EXPECT_TRUE(v.ok) << (v.errors.empty() ? "" : v.errors.front());
  EXPECT_GT(v.events, 0u);

  // Sweep export: two runs, distinct pids, still valid.
  const std::vector<obs::SweepRun> runs = {{"a", result.trace.get()},
                                           {"b", result.trace.get()}};
  const obs::TraceValidation v2 =
      obs::validate_chrome_trace(obs::chrome_trace_json(runs));
  EXPECT_TRUE(v2.ok) << (v2.errors.empty() ? "" : v2.errors.front());
  EXPECT_EQ(v2.events, 2 * v.events);

  EXPECT_FALSE(obs::validate_chrome_trace("{}").ok);
  EXPECT_FALSE(obs::validate_chrome_trace("not json").ok);
}

TEST(Export, TablesAndMetricsJsonl) {
  RunConfig cfg = tiny(App::kSort);
  cfg.obs.enabled = true;
  const RunResult result = workloads::run_workload(cfg);
  ASSERT_NE(result.trace, nullptr);

  const std::string table = obs::stage_attribution_table(*result.trace);
  EXPECT_NE(table.find("stage"), std::string::npos);
  EXPECT_NE(table.find("[run]"), std::string::npos);

  const std::string top = obs::hottest_spans_table(*result.trace, 5);
  EXPECT_NE(top.find("dur_s"), std::string::npos);

  const std::string jsonl = obs::metrics_jsonl(result.trace->metrics());
  EXPECT_FALSE(jsonl.empty());
  // One JSON object per line, each mentioning a metric name.
  EXPECT_EQ(jsonl.front(), '{');
  EXPECT_NE(jsonl.find("stage_duration_s"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Config identity / serialization
// ---------------------------------------------------------------------------

TEST(ObsConfigIdentity, KnobsEnterTheStableHash) {
  RunConfig base = tiny(App::kSort);
  RunConfig on = base;
  on.obs.enabled = true;
  RunConfig filtered = on;
  filtered.obs.trace_filter = "tiering.*";
  EXPECT_NE(workloads::stable_hash(base), workloads::stable_hash(on));
  EXPECT_NE(workloads::stable_hash(on), workloads::stable_hash(filtered));
  EXPECT_NE(workloads::canonical_key(base), workloads::canonical_key(on));
}

TEST(ObsConfigIdentity, SerializedConfigRoundTrips) {
  RunConfig cfg = tiny(App::kRepartition);
  cfg.obs.enabled = true;
  cfg.obs.trace_filter = "spark.*,tiering.*";
  const RunResult result = workloads::run_workload(cfg);
  const std::string json = runner::to_json(result);

  RunResult back;
  ASSERT_TRUE(runner::result_from_json(json, &back));
  EXPECT_TRUE(back.config.obs.enabled);
  EXPECT_EQ(back.config.obs.trace_filter, cfg.obs.trace_filter);
  EXPECT_EQ(back.config, cfg);
  EXPECT_TRUE(runner::results_identical(result, back));
}

}  // namespace
}  // namespace tsx
