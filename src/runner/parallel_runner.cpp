#include "runner/parallel_runner.hpp"

#include <chrono>
#include <exception>
#include <mutex>

#include "core/thread_budget.hpp"

namespace tsx::runner {

ParallelRunner::ParallelRunner(RunnerOptions options)
    : options_(std::move(options)), pool_(options_.threads) {
  ThreadBudget::global().register_outer(pool_.thread_count());
}

ParallelRunner::~ParallelRunner() {
  ThreadBudget::global().unregister_outer(pool_.thread_count());
}

std::vector<workloads::RunResult> ParallelRunner::run(
    const std::vector<workloads::RunConfig>& configs) {
  std::vector<workloads::RunResult> results(configs.size());

  const auto start = std::chrono::steady_clock::now();
  std::mutex progress_mutex;
  Progress progress;
  progress.total = configs.size();
  const auto tick = [&](bool was_failure) {
    if (!options_.progress) return;
    std::lock_guard<std::mutex> lock(progress_mutex);
    ++progress.completed;
    if (was_failure) ++progress.failures;
    progress.elapsed_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
            .count();
    options_.progress(progress);
  };

  pool_.run_batch(configs.size(), [&](std::size_t i) {
    // A run that throws — an invariant failure, say — must not take the
    // sweep down with it: it becomes a failed result in its slot and every
    // other run proceeds.
    try {
      results[i] = workloads::run_workload(configs[i]);
    } catch (const std::exception& e) {
      results[i] = workloads::failed_result(configs[i], e.what());
    }
    tick(results[i].failed);
  });

  return results;
}

std::vector<workloads::RunResult> ParallelRunner::run(const SweepSpec& spec) {
  return run(spec.enumerate());
}

std::vector<workloads::RunResult> run_sweep(const SweepSpec& spec,
                                            RunnerOptions options) {
  return ParallelRunner(std::move(options)).run(spec);
}

}  // namespace tsx::runner
