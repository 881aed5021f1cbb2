// Simulated Spark executor.
//
// An executor is a worker process bound (numactl-style) to a compute socket
// and a memory tier. It owns a pool of task slots ("cores"), a serialized
// dispatch loop (the driver<->executor RPC path), and converts a task's
// accumulated TaskCost into simulated phases:
//
//   dispatch -> core acquire -> blocking I/O -> cpu burn
//            -> dependent-read flow -> stream-read flow
//            -> stream-write flow -> dependent-write flow -> done
//
// Memory flows run on the FluidChannel of the executor's bound tier, so
// concurrent tasks — on this and every other executor bound to the same
// node — contend for bandwidth, and dependent flows see loaded latency.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "mem/machine.hpp"
#include "obs/recorder.hpp"
#include "spark/conf.hpp"
#include "spark/cost_model.hpp"
#include "spark/fault_hooks.hpp"
#include "spark/task.hpp"
#include "spark/tiering_hooks.hpp"

namespace tsx::spark {

struct ExecutorSpec {
  int id = 0;
  mem::SocketId socket = 1;
  int cores = 40;
  mem::TierId tier = mem::TierId::kTier0;
};

class Executor {
 public:
  Executor(mem::MachineModel& machine, ExecutorSpec spec,
           const SparkConf& conf, const CostModel& costs);
  ~Executor();

  Executor(const Executor&) = delete;
  Executor& operator=(const Executor&) = delete;

  struct Work {
    /// Host-side computation; runs at simulated task start and returns the
    /// charged cost profile. The scheduler's launcher (DESIGN.md §11) either
    /// runs the task here or, under the parallel data plane, commits the
    /// task's pre-evaluated effect buffer and returns its pre-computed cost
    /// — the simulated timeline is identical either way, because host
    /// execution is instantaneous in virtual time.
    std::function<TaskCost()> host;
    /// Fires when the task's last simulated phase completes.
    std::function<void(const TaskCost&)> done;

    // Fault-mode extras, read only with fault hooks attached.
    /// Fires at most once, at crash time, if this executor dies while the
    /// task is queued or running. `done` then never fires for this launch.
    /// Left empty on the fault-free path.
    std::function<void()> failed;
    int stage_id = -1;
    std::size_t partition = 0;
    int attempt = 0;

    /// Observability span of this launch (0 = obs off). The executor fills
    /// the span's time buckets as the simulated phases complete; the
    /// scheduler owns open/close.
    obs::SpanId obs_span = 0;
  };

  /// Queues one task. Dispatch is serialized per executor; execution
  /// parallelism is bounded by the executor's core count.
  void submit(Work work);

  const ExecutorSpec& spec() const { return spec_; }
  /// Integrated busy core-seconds (occupancy of this executor's slots).
  double busy_core_seconds() const { return pool_.busy_core_seconds(); }

  /// Attaches a tiering observer: stream traffic of a class follows the
  /// observer's traffic_split instead of the static class binding. Null
  /// (the default) or an empty split keeps the static path bit for bit.
  void set_tiering(const TieringHooks* hooks) { tiering_ = hooks; }

  /// Attaches a fault observer: tasks register in-flight so a crash can
  /// fail them, dispatch consults straggle_factor, and memory traffic is
  /// rerouted around offline tiers. Null keeps the pre-fault path.
  void set_fault(FaultHooks* hooks) { fault_ = hooks; }

  /// Attaches the observability recorder. Null (the default) keeps every
  /// phase at its single `obs_span != 0` guard — the pre-obs path bit for
  /// bit. The recorder is strictly observational.
  void set_obs(obs::Recorder* recorder) { obs_ = recorder; }

  /// Kills this executor process: every queued or running task fails now
  /// (its `failed` callback fires; `done` is suppressed), and a replacement
  /// process accepts dispatches only from now + `restart_delay`. In-flight
  /// simulated phases drain as zombies — they release their core slots but
  /// report nothing. Requires an attached fault observer.
  void crash(Duration restart_delay);

  /// Earliest virtual time the (possibly restarting) process accepts a
  /// dispatch; zero forever on the fault-free path.
  Duration available_from() const { return available_from_; }
  std::uint64_t crashes() const { return crashes_; }

 private:
  /// One queued-or-running launch; `aborted` flips when the owning
  /// incarnation crashes and every later phase of the chain bails out
  /// (releasing whatever it holds) instead of reporting completion.
  struct Flight {
    bool aborted = false;
    std::function<void()> failed;
  };

  /// One launch: the Work, its cost profile, the memory-phase request
  /// list and per-phase measurement state all live in one TaskRun, made at
  /// submit and freed when the launch ends, so every continuation captures
  /// exactly [this, run] — two pointers, inside std::function's small
  /// buffer (no per-phase heap closures, no shared_ptr self-cycles). The
  /// executor owns the live runs, so a run whose events never fire (a
  /// zombie still draining at teardown) is freed with it. Defined in the
  /// .cpp.
  struct TaskRun;

  TaskRun* new_run();
  void free_run(TaskRun* run);

  // The phase chain (each step schedules the next through the simulator).
  void dispatch(TaskRun* run);
  void start_task(TaskRun* run);
  void build_requests(TaskRun* run);
  void after_burn(TaskRun* run);
  void disk_read(TaskRun* run);
  void disk_write(TaskRun* run);
  void advance_phase(TaskRun* run);
  void finish(TaskRun* run);

  void forget(const std::shared_ptr<Flight>& flight);

  mem::MachineModel& machine_;
  ExecutorSpec spec_;
  const SparkConf& conf_;
  const CostModel& costs_;
  sim::CorePool pool_;
  Duration next_dispatch_ = Duration::zero();
  const TieringHooks* tiering_ = nullptr;
  FaultHooks* fault_ = nullptr;
  obs::Recorder* obs_ = nullptr;
  Duration available_from_ = Duration::zero();
  std::uint64_t crashes_ = 0;
  std::vector<std::shared_ptr<Flight>> inflight_;  ///< fault mode only
  std::vector<std::unique_ptr<TaskRun>> runs_;  ///< live launches
};

}  // namespace tsx::spark
