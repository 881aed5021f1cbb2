#include "core/thread_pool.hpp"

#include <algorithm>
#include <utility>

#include "core/error.hpp"

namespace tsx {

ThreadPool::ThreadPool(int threads) {
  if (threads <= 0) {
    const unsigned hw = std::thread::hardware_concurrency();
    threads = hw == 0 ? 1 : static_cast<int>(hw);
  }
  workers_.reserve(static_cast<std::size_t>(threads));
  for (int i = 0; i < threads; ++i)
    workers_.push_back(std::make_unique<Worker>());
  threads_.reserve(static_cast<std::size_t>(threads));
  for (int i = 0; i < threads; ++i)
    threads_.emplace_back(
        [this, i] { worker_loop(static_cast<std::size_t>(i)); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(batch_mutex_);
    stop_ = true;
  }
  batch_start_.notify_all();
  for (std::thread& t : threads_) t.join();
}

void ThreadPool::run_batch(std::size_t count,
                           const std::function<void(std::size_t)>& task) {
  if (count == 0) return;
  std::unique_lock<std::mutex> lock(batch_mutex_);
  TSX_CHECK(task_ == nullptr, "run_batch with a batch already in flight");

  // Seed each worker's deque with a contiguous slice of the index range,
  // split into grains. No worker can touch the deques here: the previous
  // batch only finished once every worker quiesced, and the next generation
  // is unpublished. Grains are pushed descending so the owner's pop_back
  // consumes its slice in ascending index order; a thief's pop_front takes
  // the highest — most distant — grain, which the owner would reach last
  // anyway.
  const std::size_t n_workers = workers_.size();
  const std::size_t chunk = (count + n_workers - 1) / n_workers;
  // Grain heuristic: a handful of steal targets per worker, so tiny stages
  // pay one deque claim per ~quarter slice instead of one per task.
  const std::size_t grain = std::max<std::size_t>(1, chunk / 4);
  for (std::size_t w = 0; w < n_workers; ++w) {
    const std::size_t lo = std::min(w * chunk, count);
    const std::size_t hi = std::min(lo + chunk, count);
    std::lock_guard<std::mutex> queue_lock(workers_[w]->mutex);
    std::size_t end = hi;
    while (end > lo) {
      const std::size_t start = end > lo + grain ? end - grain : lo;
      workers_[w]->queue.push_back(Range{start, end});
      end = start;
    }
  }
  unclaimed_.store(count, std::memory_order_release);

  task_ = &task;
  remaining_ = count;
  first_error_ = nullptr;
  ++generation_;
  batch_start_.notify_all();
  // The busy_ == 0 half of the predicate is the quiescence barrier: a
  // straggler still scanning deques must park before `task` goes out of
  // scope and before the next batch seeds.
  batch_done_.wait(lock, [this] { return remaining_ == 0 && busy_ == 0; });
  task_ = nullptr;
  if (first_error_)
    std::rethrow_exception(std::exchange(first_error_, nullptr));
}

bool ThreadPool::next_range(std::size_t self, Range* range) {
  // Claimed-out batches (the common drain state) cost one relaxed load.
  if (unclaimed_.load(std::memory_order_relaxed) == 0) return false;
  {
    Worker& own = *workers_[self];
    std::lock_guard<std::mutex> lock(own.mutex);
    if (!own.queue.empty()) {
      *range = own.queue.back();
      own.queue.pop_back();
      unclaimed_.fetch_sub(range->hi - range->lo, std::memory_order_relaxed);
      return true;
    }
  }
  // Own deque drained: steal the oldest range from the first victim found.
  for (std::size_t off = 1; off < workers_.size(); ++off) {
    Worker& victim = *workers_[(self + off) % workers_.size()];
    std::lock_guard<std::mutex> lock(victim.mutex);
    if (!victim.queue.empty()) {
      *range = victim.queue.front();
      victim.queue.pop_front();
      unclaimed_.fetch_sub(range->hi - range->lo, std::memory_order_relaxed);
      return true;
    }
  }
  return false;
}

void ThreadPool::worker_loop(std::size_t self) {
  std::uint64_t seen_generation = 0;
  while (true) {
    const std::function<void(std::size_t)>* task = nullptr;
    {
      std::unique_lock<std::mutex> lock(batch_mutex_);
      batch_start_.wait(lock, [&] {
        return stop_ || (generation_ != seen_generation && task_ != nullptr);
      });
      if (stop_) return;
      seen_generation = generation_;
      task = task_;
      ++busy_;
    }

    Range range;
    while (next_range(self, &range)) {
      std::exception_ptr error;
      for (std::size_t i = range.lo; i < range.hi; ++i) {
        try {
          (*task)(i);
        } catch (...) {
          if (!error) error = std::current_exception();
        }
      }
      std::lock_guard<std::mutex> lock(batch_mutex_);
      if (error && !first_error_) first_error_ = error;
      remaining_ -= range.hi - range.lo;
    }

    std::lock_guard<std::mutex> lock(batch_mutex_);
    if (--busy_ == 0 && remaining_ == 0) batch_done_.notify_all();
  }
}

}  // namespace tsx
