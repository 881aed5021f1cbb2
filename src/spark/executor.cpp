#include "spark/executor.hpp"

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "core/error.hpp"

namespace tsx::spark {

namespace {
constexpr double kCacheline = 64.0;
}

/// All per-launch state (see the header note).
struct Executor::TaskRun {
  std::size_t slot = 0;  ///< index in Executor::runs_
  Work work;
  std::shared_ptr<Flight> flight;  ///< fault mode only
  double stretch = 1.0;
  obs::SpanId span = 0;  ///< 0 = nothing watching this launch
  TaskCost cost;
  std::vector<mem::TransferRequest> requests;
  /// Attribution bucket per request (same indexing); filled only when a
  /// recorder is watching.
  std::vector<obs::Bucket> buckets;
  std::size_t next = 0;       ///< index of the next memory phase to run
  Duration t0;                ///< start of the phase being measured
  double mig0 = 0.0;          ///< migration-busy integral at phase start
  Duration burn_start;
};

Executor::Executor(mem::MachineModel& machine, ExecutorSpec spec,
                   const SparkConf& conf, const CostModel& costs)
    : machine_(machine),
      spec_(spec),
      conf_(conf),
      costs_(costs),
      pool_(machine.simulator(), "executor" + std::to_string(spec.id),
            static_cast<std::size_t>(spec.cores)) {}

Executor::~Executor() = default;

Executor::TaskRun* Executor::new_run() {
  runs_.push_back(std::make_unique<TaskRun>());
  runs_.back()->slot = runs_.size() - 1;
  return runs_.back().get();
}

void Executor::free_run(TaskRun* run) {
  // Swap the last live run into this one's slot; the moved-out pointer
  // (this run) is destroyed by the assignment or by pop_back.
  const std::size_t slot = run->slot;
  runs_[slot] = std::move(runs_.back());
  runs_[slot]->slot = slot;
  runs_.pop_back();
}

void Executor::submit(Work work) {
  sim::Simulator& sim = machine_.simulator();
  // Serialized dispatch: each task leaves the driver loop task_dispatch
  // after the previous one, never before "now" — and, after a crash, never
  // before the replacement process has re-registered.
  const Duration dispatch_at =
      std::max({sim.now(), next_dispatch_, available_from_}) +
      conf_.task_dispatch;
  next_dispatch_ = dispatch_at;

  TaskRun* run = new_run();
  run->work = std::move(work);
  if (fault_ != nullptr) {
    run->flight = std::make_shared<Flight>();
    run->flight->failed = run->work.failed;
    inflight_.push_back(run->flight);
  }
  sim.schedule_at(dispatch_at, [this, run] { dispatch(run); });
}

void Executor::dispatch(TaskRun* run) {
  // A crash between submit and dispatch killed the queued task; its
  // `failed` callback already fired at crash time.
  if (run->flight != nullptr && run->flight->aborted) {
    free_run(run);
    return;
  }
  // The straggle draw happens at dispatch so its order — and therefore
  // the injected schedule — is a pure function of virtual time.
  run->stretch = fault_ != nullptr
                     ? fault_->straggle_factor(run->work.stage_id,
                                               run->work.partition,
                                               run->work.attempt)
                     : 1.0;
  // A task needs one of this executor's slots *and* a hardware thread of
  // the bound socket — multiple executors oversubscribing one socket
  // queue on the shared core pool.
  pool_.acquire([this, run] {
    if (run->flight != nullptr && run->flight->aborted) {
      pool_.release();
      free_run(run);
      return;
    }
    machine_.socket_cores(spec_.socket).acquire(
        [this, run] { start_task(run); });
  });
}

void Executor::start_task(TaskRun* run) {
  if (run->flight != nullptr && run->flight->aborted) {
    machine_.socket_cores(spec_.socket).release();
    pool_.release();
    free_run(run);
    return;
  }
  // Task starts: run the host computation now, then replay its cost.
  run->span = obs_ != nullptr ? run->work.obs_span : 0;
  if (run->span != 0) {
    // Everything between submit and this instant was queue wait
    // (dispatch serialization + slot/core contention).
    obs_->task_started(run->span, machine_.simulator().now());
  }
  run->cost = run->work.host();

  build_requests(run);

  // Phase 0: fixed I/O latency + cpu burn, then disk, then memory chain.
  // A straggling dispatch (stretch > 1) drags this host-side phase out —
  // a GC storm or a descheduled JVM; the factor is exactly 1.0 when
  // healthy, so the multiplication is bit-exact on the fault-free path.
  run->burn_start = machine_.simulator().now();
  machine_.simulator().schedule_in(
      Duration::seconds((run->cost.io_seconds + run->cost.cpu_seconds) *
                        run->stretch),
      [this, run] { after_burn(run); });
}

void Executor::build_requests(TaskRun* run) {
  // Build the memory phase list: dependent reads on the heap tier, then
  // per-class streaming reads, per-class streaming writes, and finally
  // dependent writes. Classes route to their bound tiers, so e.g. shuffle
  // buffers can live on a different tier than the heap (SparkConf).
  const bool watched = run->span != 0;
  const auto classify = [this](StreamClass cls, mem::TierId tier) {
    if (cls == StreamClass::kShuffle) return obs::Bucket::kShuffleService;
    return machine_.tier(spec_.socket, tier).tech->kind ==
                   mem::TechKind::kNvm
               ? obs::Bucket::kNvmService
               : obs::Bucket::kDramService;
  };
  // With a fault observer attached, traffic bound for an offline tier is
  // redirected to the observer's surviving fallback tier.
  const auto route = [this](mem::TierId tier, Bytes volume) {
    return fault_ != nullptr ? fault_->effective_tier(tier, volume) : tier;
  };
  const auto add = [&](mem::AccessKind kind, Bytes volume, double mlp,
                       StreamClass cls) {
    if (volume.b() <= 0.0) return;
    // A tiering observer may split the class's traffic across tiers by
    // current region placement; an empty split is "no opinion" and falls
    // back to the static class binding (the exact pre-tiering path).
    if (tiering_ != nullptr) {
      const std::vector<TierShare> split = tiering_->traffic_split(cls);
      if (!split.empty()) {
        for (const TierShare& share : split) {
          const Bytes part = volume * share.fraction;
          if (part.b() <= 0.0) continue;
          run->requests.push_back(mem::TransferRequest{
              spec_.socket, route(share.tier, part), kind, part, mlp});
          if (watched)
            run->buckets.push_back(classify(cls, run->requests.back().tier));
        }
        return;
      }
    }
    run->requests.push_back(mem::TransferRequest{
        spec_.socket, route(conf_.tier_for(cls), volume), kind, volume, mlp});
    if (watched)
      run->buckets.push_back(classify(cls, run->requests.back().tier));
  };
  add(mem::AccessKind::kRead, Bytes::of(run->cost.dep_reads * kCacheline),
      costs_.dep_mlp, StreamClass::kHeap);
  for (int c = 0; c < kNumStreamClasses; ++c) {
    const auto cls = static_cast<StreamClass>(c);
    add(mem::AccessKind::kRead, run->cost.stream_read(cls),
        costs_.stream_mlp, cls);
  }
  for (int c = 0; c < kNumStreamClasses; ++c) {
    const auto cls = static_cast<StreamClass>(c);
    add(mem::AccessKind::kWrite, run->cost.stream_write(cls),
        costs_.stream_mlp, cls);
  }
  add(mem::AccessKind::kWrite, Bytes::of(run->cost.dep_writes * kCacheline),
      costs_.dep_mlp, StreamClass::kHeap);
}

void Executor::after_burn(TaskRun* run) {
  if (run->span != 0) {
    // The measured burn interval splits into its healthy share (compute)
    // and the straggle stretch-out (recovery time the schedule lost).
    const double burn = (machine_.simulator().now() - run->burn_start).sec();
    const double healthy =
        run->stretch > 1.0 ? burn / run->stretch : burn;
    obs_->add_segment(run->span, obs::Bucket::kCompute, healthy);
    obs_->add_segment(run->span, obs::Bucket::kRecovery, burn - healthy);
  }
  disk_read(run);
}

void Executor::disk_read(TaskRun* run) {
  run->t0 = machine_.simulator().now();
  machine_.storage_channel().start_flow(
      run->cost.disk_read, machine_.storage_channel().capacity(),
      [this, run] {
        if (run->span != 0)
          obs_->add_segment(run->span, obs::Bucket::kDisk,
                            (machine_.simulator().now() - run->t0).sec());
        disk_write(run);
      });
}

void Executor::disk_write(TaskRun* run) {
  run->t0 = machine_.simulator().now();
  machine_.storage_channel().start_flow(
      run->cost.disk_write, machine_.storage_channel().capacity(),
      [this, run] {
        if (run->span != 0)
          obs_->add_segment(run->span, obs::Bucket::kDisk,
                            (machine_.simulator().now() - run->t0).sec());
        advance_phase(run);
      });
}

void Executor::advance_phase(TaskRun* run) {
  // Each phase is a contiguous virtual-time interval, so the segments the
  // recorder sees are exact differences of event timestamps.
  if (run->next >= run->requests.size()) {
    finish(run);
    return;
  }
  const std::size_t i = run->next++;
  if (run->span == 0) {
    machine_.submit_transfer(run->requests[i],
                             [this, run] { advance_phase(run); });
    return;
  }
  // Measure the transfer and estimate its migration-stall share: the
  // slowdown versus an idle machine, capped by how long a tiering
  // migration was actually in flight during the transfer. The stall is
  // carved out of the service bucket, never added on top, so the task's
  // segment sum stays an exact interval sum.
  run->t0 = machine_.simulator().now();
  run->mig0 = tiering_ != nullptr ? tiering_->migration_busy_seconds() : 0.0;
  machine_.submit_transfer(run->requests[i], [this, run] {
    // Phases run strictly one at a time, so the phase that just completed
    // is the one the cursor passed last.
    const std::size_t done = run->next - 1;
    const double actual = (machine_.simulator().now() - run->t0).sec();
    const double idle =
        machine_.idle_transfer_time(run->requests[done]).sec();
    const double busy = tiering_ != nullptr
                            ? tiering_->migration_busy_seconds() - run->mig0
                            : 0.0;
    const double stall =
        std::min(std::max(actual - idle, 0.0), std::max(busy, 0.0));
    obs_->add_segment(run->span, run->buckets[done], actual - stall);
    obs_->add_segment(run->span, obs::Bucket::kMigrationStall, stall);
    advance_phase(run);
  });
}

void Executor::finish(TaskRun* run) {
  machine_.socket_cores(spec_.socket).release();
  pool_.release();
  // A zombie of a crashed incarnation: resources return to the OS but
  // nothing reports — the retry owns the task's outcome now.
  if (run->flight != nullptr && run->flight->aborted) {
    free_run(run);
    return;
  }
  ++tasks_completed_;
  forget(run->flight);
  // Free the run before reporting: the done callback may reentrantly submit
  // more tasks (fault-mode retries).
  auto done = std::move(run->work.done);
  const TaskCost cost = run->cost;
  free_run(run);
  done(cost);
}

void Executor::crash(Duration restart_delay) {
  TSX_CHECK(fault_ != nullptr, "crash on an executor without fault hooks");
  ++crashes_;
  const Duration now = machine_.simulator().now();
  available_from_ = std::max(available_from_, now + restart_delay);
  next_dispatch_ = std::max(next_dispatch_, available_from_);
  // Fail every queued or running launch at crash time. Their phase chains
  // (if any) keep draining as zombies and release slots on their own.
  auto victims = std::move(inflight_);
  inflight_.clear();
  for (const auto& flight : victims) {
    flight->aborted = true;
    if (flight->failed) flight->failed();
  }
}

void Executor::forget(const std::shared_ptr<Flight>& flight) {
  if (flight == nullptr) return;
  inflight_.erase(std::remove(inflight_.begin(), inflight_.end(), flight),
                  inflight_.end());
}

}  // namespace tsx::spark
