// The Recorder: one run's span tree + metrics registry.
//
// Engine components talk to a Recorder through a raw observer pointer the
// SparkContext hands out (null = observability off, the pre-obs code path
// bit for bit — the same null-object discipline TieringHooks/FaultHooks
// use). The Recorder is strictly *observational*: it never schedules
// events, charges costs or touches engine state, so enabling it cannot
// perturb a single serialized metric.
//
// Threading: every mutation happens on the driver thread — spans open and
// close inside simulator events or driver-side host functions. Worker
// threads never touch a Recorder.
//
// Rollup semantics (DESIGN.md §14):
//  - task:  buckets measured as contiguous virtual-time segments by the
//           executor phase chain; residual folded per `residual` bucket.
//  - stage: sum of child *task* attributions scaled by
//           stage_duration / sum(task durations) — tasks overlap, the
//           scaling renormalizes wall-clock shares.
//  - job:   direct sum of child *stage* attributions (stages are
//           sequential); recovery stages fold wholesale into kRecovery;
//           the gap (stage/job submit overheads) lands in kOther.
//  - run:   direct sum of child *job* attributions, gap in kOther.
//  Migration spans are informational leaves: their time is already
//  represented inside task buckets (migration stall), so rollups skip them
//  rather than double-count.
//
// After every rollup the exact-sum invariant `attr.sum() == duration` is
// enforced with TSX_CHECK.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/units.hpp"
#include "obs/metrics.hpp"
#include "obs/options.hpp"
#include "obs/span.hpp"

namespace tsx::obs {

class Recorder {
 public:
  Recorder() = default;
  Recorder(const Recorder&) = delete;
  Recorder& operator=(const Recorder&) = delete;

  /// Category filter: spans/instants whose category is rejected are still
  /// recorded (attribution must stay complete) but marked invisible, so
  /// exporters skip them; instants are dropped entirely.
  void set_filter(CategoryFilter filter) { filter_ = std::move(filter); }
  const CategoryFilter& filter() const { return filter_; }
  bool wants(const std::string& category) const {
    return filter_.matches(category);
  }

  // ---- generic span surface (driver thread only) ----------------------

  /// Opens a span. `parent == 0` attaches to the driver stack top (the
  /// innermost open run/job/stage).
  SpanId open(SpanKind kind, std::string name, std::string category,
              Duration now, SpanId parent = 0, std::int64_t track = 0);
  void set_arg(SpanId id, std::string key, std::string value);
  /// Adds `seconds` into a bucket of an *open* span; silently dropped when
  /// the span is 0 or already closed (zombie phase chains keep draining
  /// after fault-mode launches fail).
  void add_segment(SpanId id, Bucket bucket, double seconds);
  /// Zero-length marker (fault injection, recovery, ...). Filtered
  /// instants are dropped outright.
  void instant(std::string name, std::string category, Duration at,
               SpanId parent = 0);

  SpanId stack_top() const { return stack_.empty() ? 0 : stack_.back(); }

  // ---- structured lifecycle -------------------------------------------

  SpanId open_run(std::string name, Duration now);
  SpanId open_job(std::string name, Duration now);
  SpanId open_stage(int stage_id, const std::string& label, bool recovery,
                    Duration now);
  /// One task *launch*; retries and speculative duplicates open fresh
  /// spans with their own attempt number.
  SpanId open_task(SpanId stage_span, int stage_id, std::size_t partition,
                   int attempt, int executor_id, Duration now);

  /// The executor observed the task leaving the dispatch/core queues: the
  /// span's time so far is queue wait.
  void task_started(SpanId task, Duration now);
  void close_task(SpanId id, Duration now, Bucket residual = Bucket::kOther);
  void close_stage(SpanId id, Duration now);
  void close_job(SpanId id, Duration now);

  SpanId open_migration(std::string name, std::string category, Duration now);
  void close_migration(SpanId id, Duration now);

  /// Closes a span with caller-provided buckets (DFS reads and writes,
  /// repair waves), folding the residual into `residual` and enforcing the
  /// exact-sum invariant.
  void close_with_attribution(SpanId id, Duration end, TimeAttribution attr,
                              Bucket residual);

  /// Closes stragglers (e.g. migrations still copying at run end) at
  /// `end`, then the run span with the job rollup. Idempotent.
  void finalize(Duration end);

  // ---- results ---------------------------------------------------------

  const std::vector<Span>& spans() const { return spans_; }
  const Span* find(SpanId id) const;
  /// Direct children ids of a span, in open order.
  const std::vector<SpanId>& children(SpanId id) const;
  std::size_t open_span_count() const;
  bool finalized() const { return finalized_; }
  SpanId run_span() const { return run_span_; }

  MetricsRegistry& metrics() { return metrics_; }
  const MetricsRegistry& metrics() const { return metrics_; }

 private:
  Span& at(SpanId id);
  const Span& at(SpanId id) const;
  /// duration + reconcile + invariant check.
  void seal(Span& span, Duration end, Bucket residual);

  std::vector<Span> spans_;
  std::vector<std::vector<SpanId>> children_;
  std::vector<SpanId> stack_;  ///< open run/job/stage nesting
  SpanId run_span_ = 0;
  bool finalized_ = false;
  CategoryFilter filter_;
  MetricsRegistry metrics_;
};

}  // namespace tsx::obs
