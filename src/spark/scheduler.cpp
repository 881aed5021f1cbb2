#include "spark/scheduler.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <functional>
#include <memory>

#include "core/error.hpp"
#include "core/log.hpp"
#include "core/running_median.hpp"
#include "core/strings.hpp"
#include "spark/context.hpp"
#include "spark/task_effects.hpp"

namespace tsx::spark {

namespace {
/// Wall-clock seconds elapsed since `start` (host execute accounting).
double elapsed_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// A task's context. Its rng stream is deterministic in (job seed, stage,
/// partition), so a retry, a duplicate or a recovery rerun under the
/// original stage's id replays the first attempt's draws.
TaskContext task_context(SparkContext& sc, int rng_stage, std::size_t p,
                         int executor_id) {
  std::uint64_t mix = sc.job_seed() ^
                      (static_cast<std::uint64_t>(rng_stage) << 32) ^
                      static_cast<std::uint64_t>(p);
  return TaskContext(rng_stage, p, sc.costs(), sc.cost_multiplier(),
                     Rng(splitmix64(mix)), executor_id);
}
}  // namespace

void DAGScheduler::collect_shuffles(
    const RddBase& rdd,
    std::vector<std::shared_ptr<ShuffleDependencyBase>>& order,
    std::unordered_set<int>& seen_rdds,
    std::unordered_set<int>& seen_shuffles) const {
  if (!seen_rdds.insert(rdd.id()).second) return;
  for (const Dependency& dep : rdd.dependencies()) {
    if (dep.is_shuffle()) {
      if (!seen_shuffles.insert(dep.shuffle->shuffle_id()).second) continue;
      if (sc_.shuffle_store().is_complete(dep.shuffle->shuffle_id()))
        continue;  // map output reuse: already materialized by a prior job
      collect_shuffles(*dep.shuffle->parent(), order, seen_rdds,
                       seen_shuffles);
      order.push_back(dep.shuffle);  // post-order: parents first
    } else {
      collect_shuffles(*dep.narrow, order, seen_rdds, seen_shuffles);
    }
  }
}

void DAGScheduler::advance(Duration d) {
  // run_until (not run): background activity — e.g. a noisy-neighbor load
  // generator — may keep the event queue permanently non-empty.
  sim::Simulator& sim = sc_.machine().simulator();
  sim.run_until(sim.now() + d);
}

StageRecord DAGScheduler::run_stage(const std::string& label,
                                    std::size_t num_tasks, const TaskFn& task,
                                    JobMetrics& metrics,
                                    const StageOptions& opts) {
  TSX_CHECK(num_tasks > 0, "stage with zero tasks: " + label);
  advance(sc_.conf().stage_overhead);

  StageRecord record;
  record.stage_id = next_stage_id_++;
  record.label = label;
  record.tasks = num_tasks;
  record.start = sc_.now();

  // Recovery stages are tagged by category so the job rollup folds their
  // whole window into the recovery bucket.
  obs::Recorder* const rec = sc_.obs();
  const obs::SpanId stage_span =
      rec != nullptr ? rec->open_stage(record.stage_id, label,
                                       starts_with(label, "recover:"),
                                       record.start)
                     : 0;

  // Snapshot per-channel drained volume to derive stage-average bandwidth.
  const auto channels = sc_.machine().all_memory_channels();
  std::vector<double> drained_before;
  drained_before.reserve(channels.size());
  for (const auto* ch : channels) drained_before.push_back(ch->drained_total().b());

  run_tasks(record, stage_span, num_tasks, task, metrics, opts);

  record.end = sc_.now();
  if (rec != nullptr) rec->close_stage(stage_span, record.end);
  if (record.duration().sec() > 0.0) {
    for (std::size_t c = 0; c < channels.size(); ++c) {
      const Bandwidth avg{
          (channels[c]->drained_total().b() - drained_before[c]) /
          record.duration().sec()};
      if (avg > record.peak_channel_bandwidth) {
        record.peak_channel_bandwidth = avg;
        record.peak_channel = channels[c]->name();
      }
    }
  }
  metrics.num_tasks += num_tasks;
  metrics.num_stages += 1;
  tasks_run_ += num_tasks;
  TSX_LOG(kInfo) << "stage " << record.stage_id << " [" << label << "] "
                 << num_tasks << " tasks in "
                 << tsx::to_string(record.duration());
  return record;
}

void DAGScheduler::run_tasks(StageRecord& record, obs::SpanId stage_span,
                             std::size_t num_tasks, const TaskFn& task,
                             JobMetrics& metrics, const StageOptions& opts) {
  // One entry per task slot of the stage. `done` is the first-completion-
  // wins guard: whichever launch (original, retry or speculative duplicate)
  // reports first owns the outcome; every later report is a zombie and is
  // dropped here. `live` counts launches currently queued or running so a
  // crash that kills one copy does not retry while a duplicate survives.
  struct TaskState {
    int attempts = 0;
    int live = 0;
    int spec_attempt = -1;  ///< attempt number of the speculative duplicate
    bool done = false;
    bool speculated = false;
    Duration launched;  ///< most recent launch (straggler detection)
  };

  const int stage_id = record.stage_id;
  const int rng_stage = opts.rng_stage >= 0 ? opts.rng_stage : stage_id;
  const bool fault_mode = sc_.fault() != nullptr;
  obs::Recorder* const rec = sc_.obs();

  // Parallel data plane (DESIGN.md §11), fault-free stages only: recovery
  // scheduling is adaptive, so a faulted stage evaluates each launch as it
  // starts. Phase 1 evaluates every host function of the stage on the
  // context's pool. A task is a pure function of (job seed, stage,
  // partition): its rng stream is private, its TaskContext is
  // thread-confined, and every write to shared engine state (shuffle
  // buckets, cached blocks, accumulators, tiering hotness) is recorded into
  // its TaskEffects buffer instead of applied. Reads see the stage-start
  // snapshot plus the task's own buffer — which is exactly what the serial
  // engine shows a task, because within one fault-free stage tasks only
  // ever read state they wrote themselves or state committed before the
  // previous stage barrier. The batch blocks until every task has run, so
  // no commit below can mutate state a worker is still reading.
  const bool plane =
      !fault_mode && sc_.task_pool() != nullptr && num_tasks > 1;
  // A throwing task (the batch still drains, then rethrows) or a failed
  // commit leaves buffered effects behind; drop them so a later stage on
  // this context starts from empty buffers.
  struct EffectsReset {
    std::vector<TaskEffects>& effects;
    std::size_t n;  ///< buffers to drop; 0 once the stage has committed
    ~EffectsReset() {
      for (std::size_t i = 0; i < n; ++i) effects[i].reset();
    }
  } reset_on_error{effects_, plane ? num_tasks : 0};
  if (plane) {
    // Recycled buffers: grow to the widest stage, never shrink.
    if (effects_.size() < num_tasks) effects_.resize(num_tasks);
    if (stage_costs_.size() < num_tasks) stage_costs_.resize(num_tasks);
    if (host_times_.size() < num_tasks) host_times_.resize(num_tasks);
    // Only recovery stages remap partitions, and they run in fault mode:
    // here task i computes partition i.
    sc_.task_pool()->run_batch(num_tasks, [this, stage_id,
                                           &task](std::size_t p) {
      TaskEffects::Scope scope(&effects_[p]);
      TaskContext ctx = task_context(sc_, stage_id, p, -1);
      const auto host_start = std::chrono::steady_clock::now();
      task(p, ctx);
      host_times_[p] = elapsed_since(host_start);
      stage_costs_[p] = ctx.cost();
    });
  }

  auto states = std::make_shared<std::vector<TaskState>>(num_tasks);
  auto remaining = std::make_shared<std::size_t>(num_tasks);
  // Completed-task durations feed the straggler sweep (fault mode only).
  // The two-heap keeps the upper median (the same rank-n/2 order statistic
  // a full nth_element selects) incrementally: O(log n) per completion
  // instead of copying and selecting over the whole sample every time.
  auto durations =
      fault_mode ? std::make_shared<RunningMedian>() : nullptr;
  auto launch = std::make_shared<std::function<void(std::size_t)>>();
  // The launcher holds itself weakly: its own shared_ptr would be a cycle
  // that never frees it or what it captures. Queued launches and pending
  // retries hold it strongly, so a zombie or retry callback that fires
  // after the barrier still finds it; the last of them frees it.
  const std::weak_ptr<std::function<void(std::size_t)>> self = launch;

  // Every task of every stage is submitted here, in partition order, then
  // again for each retry and speculative duplicate. Under the parallel
  // plane this is phase 2, the commit: the same submission sequence, with
  // a host that commits the task's buffer and returns its pre-computed
  // cost — so the simulator sees an identical event schedule, each buffer
  // commits at the very instant the serial engine would have mutated the
  // stores, and the done callbacks (whose += order sets the low bits of
  // total_cost) fire in the identical completion order.
  *launch = [this, states, remaining, durations, self, stage_id, rng_stage,
             num_tasks, opts, rec, stage_span, plane, fault_mode, &task,
             &metrics, &record](std::size_t i) {
    // Whoever calls the launcher holds it, so this never comes back null.
    const auto launch = self.lock();
    sim::Simulator& sim = sc_.machine().simulator();
    auto& executors = sc_.executors();

    TaskState& st = (*states)[i];
    const int attempt = st.attempts++;
    ++st.live;
    st.launched = sim.now();
    const std::size_t p = opts.partitions != nullptr ? (*opts.partitions)[i] : i;

    // Round-robin over executors currently accepting dispatches; when every
    // process is mid-restart, fall back to the plain round-robin choice
    // (the task then waits out the restart in the dispatch queue).
    Executor* chosen = nullptr;
    Executor* fallback = nullptr;
    for (std::size_t k = 0; k < executors.size(); ++k) {
      Executor& e = *executors[task_counter_++ % executors.size()];
      if (fallback == nullptr) fallback = &e;
      if (e.available_from() <= sim.now()) {
        chosen = &e;
        break;
      }
    }
    if (chosen == nullptr) chosen = fallback;

    Executor::Work work;
    work.stage_id = stage_id;
    work.partition = p;
    work.attempt = attempt;
    const int executor_id = chosen->spec().id;
    // Every launch — original, retry, speculative duplicate — is its own
    // span; the attempt number disambiguates them in the trace. Spans open
    // in submit order, so the span tree (ids included) is identical at any
    // thread count.
    if (rec != nullptr)
      work.obs_span = rec->open_task(stage_span, stage_id, p, attempt,
                                     executor_id, sim.now());
    const obs::SpanId tspan = work.obs_span;
    if (plane) {
      work.host = [this, i]() -> TaskCost {
        effects_[i].commit();
        host_seconds_ += host_times_[i];
        return stage_costs_[i];
      };
    } else {
      work.host = [this, states, i, p, rng_stage, executor_id,
                   &task]() -> TaskCost {
        if ((*states)[i].done) return TaskCost{};  // losing duplicate: no-op
        // Retries and duplicates replay the *same* rng stream as the first
        // attempt, which is what makes recovery reproduce results byte for
        // byte.
        TaskContext ctx = task_context(sc_, rng_stage, p, executor_id);
        const auto host_start = std::chrono::steady_clock::now();
        task(p, ctx);
        host_seconds_ += elapsed_since(host_start);
        return ctx.cost();
      };
    }
    work.done = [this, states, remaining, durations, launch, i, attempt,
                 stage_id, num_tasks, opts, rec, tspan,
                 &metrics](const TaskCost& cost) {
      TaskState& st = (*states)[i];
      // Close the launch span whether it won or lost the race: a losing
      // duplicate's whole residual is wasted (recovery) time.
      if (rec != nullptr)
        rec->close_task(tspan, sc_.machine().simulator().now(),
                        st.done ? obs::Bucket::kRecovery
                                : obs::Bucket::kOther);
      if (st.done) return;  // a duplicate already delivered this partition
      st.done = true;
      --st.live;
      metrics.total_cost += cost;
      lifetime_cost_ += cost;
      --*remaining;
      if (durations == nullptr) return;  // fault-free: nothing to speculate

      FaultHooks& fault = *sc_.fault();
      sim::Simulator& sim = sc_.machine().simulator();
      const std::size_t p =
          opts.partitions != nullptr ? (*opts.partitions)[i] : i;
      durations->push((sim.now() - st.launched).sec());
      if (st.spec_attempt >= 0 && attempt == st.spec_attempt)
        fault.on_speculative_win(stage_id, p, attempt);

      // Straggler sweep (Spark's speculative execution): once most of the
      // stage has finished, duplicate any task running far beyond the
      // median completed duration.
      const RecoveryPolicy& policy = fault.recovery();
      if (!policy.speculation || *remaining == 0) return;
      const std::size_t completed = num_tasks - *remaining;
      const auto quorum = static_cast<std::size_t>(
          std::ceil(policy.speculation_min_fraction *
                    static_cast<double>(num_tasks)));
      if (completed < quorum) return;
      const double median = durations->upper_median();
      for (std::size_t j = 0; j < states->size(); ++j) {
        TaskState& other = (*states)[j];
        if (other.done || other.speculated || other.attempts == 0) continue;
        const double running = (sim.now() - other.launched).sec();
        if (running <= median * policy.speculation_multiplier) continue;
        other.speculated = true;
        other.spec_attempt = other.attempts;
        const std::size_t pj =
            opts.partitions != nullptr ? (*opts.partitions)[j] : j;
        fault.on_speculative_launch(stage_id, pj, other.attempts);
        (*launch)(j);
      }
    };
    if (fault_mode) {
      work.failed = [this, states, launch, i, attempt, stage_id, p, rec,
                     tspan]() {
        TaskState& st = (*states)[i];
        // The launch died with the executor; everything it consumed is
        // recovery time from the job's perspective.
        if (rec != nullptr)
          rec->close_task(tspan, sc_.machine().simulator().now(),
                          obs::Bucket::kRecovery);
        if (st.done) return;  // zombie of an already-delivered partition
        --st.live;
        FaultHooks& fault = *sc_.fault();
        fault.on_task_failure(stage_id, p, attempt);
        if (st.live > 0) return;  // a surviving duplicate still owns the task
        TSX_CHECK(st.attempts < fault.recovery().max_task_attempts,
                  "task exhausted its attempts: stage " +
                      std::to_string(stage_id) + " partition " +
                      std::to_string(p));
        // Capped exponential backoff before the relaunch, exactly Spark's
        // per-task retry discipline.
        const RecoveryPolicy& policy = fault.recovery();
        const double wait =
            std::min(std::ldexp(policy.backoff_base.sec(), attempt),
                     policy.backoff_cap.sec());
        const Duration backoff = Duration::seconds(wait);
        fault.on_retry(stage_id, p, backoff);
        sc_.machine().simulator().schedule_in(backoff,
                                              [launch, i] { (*launch)(i); });
      };
    }
    chosen->submit(std::move(work));
  };

  for (std::size_t i = 0; i < num_tasks; ++i) (*launch)(i);

  // The stage barrier: step the simulator until the last task (and its
  // memory flows) completes. Stepping — rather than draining — tolerates
  // concurrent background activity (noisy-neighbor load generators).
  sim::Simulator& sim = sc_.machine().simulator();
  while (*remaining > 0) {
    TSX_CHECK(sim.step() > 0,
              "deadlock: stage " + record.label + " has unfinished tasks "
              "but no pending events");
  }
  reset_on_error.n = 0;
}

JobMetrics DAGScheduler::run_job(const std::shared_ptr<RddBase>& final_rdd,
                                 const ResultFn& result_task,
                                 std::size_t result_partitions,
                                 const std::string& name) {
  TSX_CHECK(final_rdd != nullptr, "run_job on null RDD");

  if (!executors_launched_) {
    // Executors spin up in parallel, but each additional one registers
    // serially with the driver.
    const auto extra =
        static_cast<double>(sc_.executors().size() - 1);
    advance(sc_.conf().executor_launch +
            sc_.conf().executor_register * extra);
    executors_launched_ = true;
  }
  advance(sc_.conf().job_submit_overhead);

  JobMetrics metrics;
  metrics.job = name;
  metrics.start = sc_.now();

  obs::Recorder* const rec = sc_.obs();
  const obs::SpanId job_span =
      rec != nullptr ? rec->open_job(name, metrics.start) : 0;

  std::vector<std::shared_ptr<ShuffleDependencyBase>> shuffle_order;
  std::unordered_set<int> seen_rdds;
  std::unordered_set<int> seen_shuffles;
  collect_shuffles(*final_rdd, shuffle_order, seen_rdds, seen_shuffles);

  const bool fault_mode = sc_.fault() != nullptr;
  for (const auto& dep : shuffle_order) {
    // Record the lineage before the stage runs: a crash inside the stage
    // (or any later one) recomputes lost map output through it.
    if (fault_mode) sc_.shuffle_store().register_dependency(dep);
    const auto map_tasks = dep->parent()->num_partitions();
    const auto map_fn = [&dep](std::size_t p, TaskContext& ctx) {
      ctx.set_kind(TaskKind::kShuffleMap);
      dep->run_map_task(p, ctx);
    };
    metrics.stages.push_back(run_stage("shuffle-map:" + dep->parent()->name(),
                                       map_tasks, map_fn, metrics));
    if (fault_mode) {
      sc_.shuffle_store().set_map_stage(dep->shuffle_id(),
                                        metrics.stages.back().stage_id);
      // A crash mid-stage can take already-completed map outputs down with
      // the executor; rerun exactly the lost partitions — under the
      // original stage's rng streams — before passing the barrier.
      while (true) {
        const std::vector<std::size_t> lost =
            sc_.shuffle_store().lost_parts(dep->shuffle_id());
        if (lost.empty()) break;
        StageOptions opts;
        opts.rng_stage = sc_.shuffle_store().map_stage(dep->shuffle_id());
        opts.partitions = &lost;
        metrics.stages.push_back(
            run_stage("recover:" + dep->parent()->name(), lost.size(),
                      map_fn, metrics, opts));
      }
    }
    sc_.shuffle_store().mark_complete(dep->shuffle_id());
  }

  metrics.stages.push_back(
      run_stage("result:" + final_rdd->name(), result_partitions, result_task,
                metrics));

  metrics.end = sc_.now();
  if (rec != nullptr) rec->close_job(job_span, metrics.end);
  ++jobs_run_;
  return metrics;
}

}  // namespace tsx::spark
