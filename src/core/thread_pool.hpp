// Work-stealing thread pool for fixed batches of independent tasks.
//
// Two irregular batch shapes share this pool: experiment sweeps (a
// large-scale pagerank simulation costs orders of magnitude more than a tiny
// sort) and intra-run stage evaluation (task hosts of one Spark stage, where
// skew between partitions is the norm). Static partitioning leaves workers
// idle on both, so each worker owns a deque seeded with a contiguous slice
// of the batch; it pops work from the back of its own deque and, when empty,
// steals from the front of a victim's — the classic split that keeps owner
// access hot and hands thieves the oldest chunks.
//
// Deques hold index *ranges*, not single indices: a tiny stage (hundreds of
// microsecond-scale task hosts) would otherwise pay one deque lock per task.
// The grain heuristic splits each worker's slice into a handful of ranges,
// so dispatch cost amortizes over the grain while stealing still rebalances
// skew at range granularity.
//
// The pool is persistent: workers are spawned once and parked between
// batches, so repeated batches (one per sweep, or one per stage) pay no
// thread start-up cost. `run_batch` is the only entry point and it blocks
// until the batch drains, so workers only ever call the caller's callable
// while the caller is waiting for them.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace tsx {

class ThreadPool {
 public:
  /// `threads` <= 0 selects std::thread::hardware_concurrency().
  explicit ThreadPool(int threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int thread_count() const { return static_cast<int>(workers_.size()); }

  /// Runs task(i) for every i in [0, count) across the workers and blocks
  /// until the batch drains. Task invocations are unordered; each index runs
  /// exactly once. If tasks throw, the batch still drains and the first
  /// exception is rethrown here. At most one batch runs per pool at a time:
  /// a nested or concurrent call throws.
  void run_batch(std::size_t count,
                 const std::function<void(std::size_t)>& task);

 private:
  /// A contiguous claim of batch indices [lo, hi).
  struct Range {
    std::size_t lo = 0;
    std::size_t hi = 0;
  };

  /// Padded to a cache line: a worker hammers its own deque lock on every
  /// claim, and adjacent workers must not false-share those lock words.
  struct alignas(64) Worker {
    std::mutex mutex;
    std::deque<Range> queue;
  };

  void worker_loop(std::size_t self);
  /// Pops from the back of `self`'s deque, else steals from the front of
  /// another worker's. Returns false when the whole batch is claimed.
  bool next_range(std::size_t self, Range* range);

  std::vector<std::unique_ptr<Worker>> workers_;
  std::vector<std::thread> threads_;

  std::mutex batch_mutex_;
  std::condition_variable batch_start_;
  std::condition_variable batch_done_;
  /// The running batch's callable (the caller's, alive until run_batch
  /// returns); null between batches.
  const std::function<void(std::size_t)>* task_ = nullptr;
  std::uint64_t generation_ = 0;
  std::size_t remaining_ = 0;  ///< indices not yet executed
  std::size_t busy_ = 0;       ///< workers currently inside the batch
  std::exception_ptr first_error_;
  bool stop_ = false;

  /// Indices not yet claimed from any deque — lets a worker whose own deque
  /// drained skip the victim scan (and park) without taking any lock.
  alignas(64) std::atomic<std::size_t> unclaimed_{0};
};

}  // namespace tsx
