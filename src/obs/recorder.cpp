#include "obs/recorder.hpp"

#include <algorithm>

#include "core/error.hpp"
#include "core/strings.hpp"

namespace tsx::obs {

namespace {
const std::vector<SpanId> kNoChildren;

/// Histogram layout shared by the duration metrics: [0, 60 s) in 120 bins.
/// min/max/sum stay exact; only the quantile interpolation is binned.
constexpr double kDurationHi = 60.0;
constexpr std::size_t kDurationBins = 120;
}  // namespace

const char* to_string(SpanKind kind) {
  switch (kind) {
    case SpanKind::kSweep: return "sweep";
    case SpanKind::kRun: return "run";
    case SpanKind::kJob: return "job";
    case SpanKind::kStage: return "stage";
    case SpanKind::kTask: return "task";
    case SpanKind::kMigration: return "migration";
    case SpanKind::kService: return "service";
    case SpanKind::kInstant: return "instant";
  }
  return "?";
}

Span& Recorder::at(SpanId id) {
  TSX_CHECK(id > 0 && id <= spans_.size(), "bad span id");
  return spans_[id - 1];
}

const Span& Recorder::at(SpanId id) const {
  TSX_CHECK(id > 0 && id <= spans_.size(), "bad span id");
  return spans_[id - 1];
}

const Span* Recorder::find(SpanId id) const {
  return id > 0 && id <= spans_.size() ? &spans_[id - 1] : nullptr;
}

const std::vector<SpanId>& Recorder::children(SpanId id) const {
  return id > 0 && id <= children_.size() ? children_[id - 1] : kNoChildren;
}

std::size_t Recorder::open_span_count() const {
  std::size_t n = 0;
  for (const Span& s : spans_)
    if (s.open) ++n;
  return n;
}

SpanId Recorder::open(SpanKind kind, std::string name, std::string category,
                      Duration now, SpanId parent, std::int64_t track) {
  Span span;
  span.id = spans_.size() + 1;
  span.parent = parent != 0 ? parent : stack_top();
  span.kind = kind;
  span.name = std::move(name);
  span.category = std::move(category);
  span.start = now;
  span.end = now;
  span.open = true;
  span.visible = filter_.matches(span.category);
  span.track = track;
  if (span.parent != 0) children_[span.parent - 1].push_back(span.id);
  spans_.push_back(std::move(span));
  children_.emplace_back();
  return spans_.back().id;
}

void Recorder::set_arg(SpanId id, std::string key, std::string value) {
  if (id == 0) return;
  at(id).args.emplace_back(std::move(key), std::move(value));
}

void Recorder::add_segment(SpanId id, Bucket bucket, double seconds) {
  if (id == 0 || seconds == 0.0) return;
  Span& span = at(id);
  if (!span.open) return;  // zombie phase chain of a failed launch
  span.attr.add(bucket, seconds);
}

void Recorder::instant(std::string name, std::string category, Duration at,
                       SpanId parent) {
  if (!filter_.matches(category)) return;
  const SpanId id =
      open(SpanKind::kInstant, std::move(name), std::move(category), at,
           parent);
  Span& span = this->at(id);
  span.open = false;
  span.end = at;
}

void Recorder::seal(Span& span, Duration end, Bucket residual) {
  span.end = end;
  span.open = false;
  const double target = span.duration().sec();
  reconcile(span.attr, target, residual);
  TSX_CHECK(span.attr.sum() == target,
            "span attribution does not sum to duration: " + span.name);
}

// ---- structured lifecycle --------------------------------------------

SpanId Recorder::open_run(std::string name, Duration now) {
  const SpanId id = open(SpanKind::kRun, std::move(name), "spark.run", now);
  run_span_ = id;
  stack_.push_back(id);
  return id;
}

SpanId Recorder::open_job(std::string name, Duration now) {
  const SpanId id = open(SpanKind::kJob, std::move(name), "spark.job", now);
  stack_.push_back(id);
  return id;
}

SpanId Recorder::open_stage(int stage_id, const std::string& label,
                            bool recovery, Duration now) {
  const SpanId id =
      open(SpanKind::kStage, "stage:" + label,
           recovery ? "spark.stage.recovery" : "spark.stage", now);
  set_arg(id, "stage_id", std::to_string(stage_id));
  set_arg(id, "label", label);
  stack_.push_back(id);
  return id;
}

SpanId Recorder::open_task(SpanId stage_span, int stage_id,
                           std::size_t partition, int attempt,
                           int executor_id, Duration now) {
  const SpanId id = open(
      SpanKind::kTask,
      strfmt("task:%d.%zu#%d", stage_id, partition, attempt), "spark.task",
      now, stage_span, executor_id >= 0 ? 1 + executor_id : 0);
  set_arg(id, "partition", std::to_string(partition));
  if (attempt > 0) set_arg(id, "attempt", std::to_string(attempt));
  return id;
}

void Recorder::task_started(SpanId task, Duration now) {
  if (task == 0) return;
  Span& span = at(task);
  if (!span.open) return;
  span.attr.add(Bucket::kQueueWait, (now - span.start).sec());
}

void Recorder::close_task(SpanId id, Duration now, Bucket residual) {
  if (id == 0) return;
  Span& span = at(id);
  if (!span.open) return;
  seal(span, now, residual);
}

void Recorder::close_stage(SpanId id, Duration now) {
  if (id == 0) return;
  Span& span = at(id);
  TSX_CHECK(!stack_.empty() && stack_.back() == id,
            "close_stage out of stack order");
  stack_.pop_back();

  // Stage rollup: child task launches overlap in time, so their exact
  // per-launch attributions are renormalized to the stage window.
  TimeAttribution total;
  double child_seconds = 0.0;
  std::string label;
  for (const auto& [k, v] : span.args)
    if (k == "label") label = v;
  for (const SpanId child_id : children(id)) {
    const Span& child = at(child_id);
    if (child.kind != SpanKind::kTask || child.open) continue;
    total += child.attr;
    child_seconds += child.attr.sum();
    metrics_.observe("task_duration_s", {{"stage", label}},
                     child.duration().sec(), 0.0, kDurationHi, kDurationBins);
  }
  const double duration = (now - span.start).sec();
  if (child_seconds > 0.0) {
    span.attr = total.scaled(duration / child_seconds);
  } else {
    span.attr = TimeAttribution{};
    span.attr.add(Bucket::kOther, duration);
  }
  seal(span, now, span.attr.largest());

  metrics_.observe("stage_duration_s", {}, duration, 0.0, kDurationHi,
                   kDurationBins);
  for (int b = 0; b < kNumBuckets; ++b) {
    const double secs = span.attr.seconds[static_cast<std::size_t>(b)];
    if (secs != 0.0)
      metrics_.counter_add(
          "stage_attr_seconds",
          {{"bucket", to_string(static_cast<Bucket>(b))}, {"stage", label}},
          secs);
  }
}

void Recorder::close_job(SpanId id, Duration now) {
  if (id == 0) return;
  Span& span = at(id);
  TSX_CHECK(!stack_.empty() && stack_.back() == id,
            "close_job out of stack order");
  stack_.pop_back();

  // Job rollup: stages are sequential, so bucket sums add directly; a
  // recovery stage's whole window is recovery time from the job's view.
  TimeAttribution total;
  for (const SpanId child_id : children(id)) {
    const Span& child = at(child_id);
    if (child.kind != SpanKind::kStage || child.open) continue;
    if (child.category == "spark.stage.recovery") {
      total.add(Bucket::kRecovery, child.attr.sum());
    } else {
      total += child.attr;
    }
  }
  span.attr = total;
  span.attr.add(Bucket::kOther,
                std::max(0.0, (now - span.start).sec() - total.sum()));
  seal(span, now, Bucket::kOther);
}

SpanId Recorder::open_migration(std::string name, std::string category,
                                Duration now) {
  return open(SpanKind::kMigration, std::move(name), std::move(category),
              now);
}

void Recorder::close_migration(SpanId id, Duration now) {
  if (id == 0) return;
  Span& span = at(id);
  if (!span.open) return;
  span.attr.add(Bucket::kMigrationStall, (now - span.start).sec());
  seal(span, now, Bucket::kMigrationStall);
  metrics_.observe("migration_duration_s", {}, span.duration().sec(), 0.0,
                   kDurationHi, kDurationBins);
}

void Recorder::close_with_attribution(SpanId id, Duration end,
                                      TimeAttribution attr, Bucket residual) {
  if (id == 0) return;
  Span& span = at(id);
  if (!span.open) return;
  span.attr = attr;
  seal(span, end, residual);
}

void Recorder::finalize(Duration end) {
  if (finalized_) return;
  finalized_ = true;
  // Stragglers: migrations (or anything non-structural) still open at run
  // end are cut off at the end timestamp.
  for (Span& span : spans_) {
    if (!span.open || span.id == run_span_) continue;
    if (std::find(stack_.begin(), stack_.end(), span.id) != stack_.end())
      continue;  // structural spans are closed by their owners below
    if (span.kind == SpanKind::kMigration) {
      close_migration(span.id, end);
    } else {
      seal(span, end, Bucket::kOther);
    }
  }
  // A clean run leaves only the run span on the stack; if an exception
  // unwound mid-job, close the remnants inside-out so the tree balances.
  while (!stack_.empty() && stack_.back() != run_span_) {
    Span& span = at(stack_.back());
    if (span.kind == SpanKind::kStage) {
      close_stage(span.id, end);
    } else {
      close_job(span.id, end);
    }
  }
  if (run_span_ == 0) return;
  Span& run = at(run_span_);
  if (!run.open) return;
  TSX_CHECK(!stack_.empty() && stack_.back() == run_span_,
            "finalize with a corrupt span stack");
  stack_.pop_back();
  TimeAttribution total;
  for (const SpanId child_id : children(run_span_)) {
    const Span& child = at(child_id);
    if (child.kind != SpanKind::kJob || child.open) continue;
    total += child.attr;
  }
  run.attr = total;
  run.attr.add(Bucket::kOther,
               std::max(0.0, (end - run.start).sec() - total.sum()));
  seal(run, end, Bucket::kOther);
}

}  // namespace tsx::obs
