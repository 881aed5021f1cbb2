// Discrete-event simulation kernel.
//
// The simulator owns virtual time and an event queue. Components (fluid
// channels, core pools, the Spark task scheduler) schedule callbacks at
// absolute or relative virtual times; `run()` drains the queue in
// deterministic order. Two events at the same timestamp fire in scheduling
// order (a monotonically increasing sequence number breaks ties), which makes
// every simulation bit-reproducible.
//
// Events are cancellable: `schedule_*` returns an EventId that `cancel()`
// tombstones. Cancellation is O(1); tombstoned entries are skipped when
// popped.
#pragma once

#include <cstdint>
#include <functional>
#include <queue>
#include <unordered_set>
#include <vector>

#include "core/units.hpp"

namespace tsx::sim {

using EventId = std::uint64_t;

/// Virtual time point, measured from simulation start.
using TimePoint = Duration;

class Simulator {
 public:
  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current virtual time.
  TimePoint now() const { return now_; }

  /// Schedules `fn` at absolute virtual time `at` (>= now).
  EventId schedule_at(TimePoint at, std::function<void()> fn);

  /// Schedules `fn` after the given delay (>= 0).
  EventId schedule_in(Duration delay, std::function<void()> fn);

  /// Cancels a pending event. Cancelling an already-fired or already-
  /// cancelled event is a harmless no-op (the id is simply unknown).
  void cancel(EventId id);

  /// Runs until the queue is empty. Returns the number of events fired.
  std::size_t run();

  /// Fires exactly the next pending event (0 if none). Lets callers drive
  /// the simulation to a *condition* (e.g. a stage barrier) while unrelated
  /// activity — background load generators — keeps the queue non-empty.
  std::size_t step();

  /// Runs until virtual time would exceed `deadline`; events at exactly
  /// `deadline` do fire. Returns the number of events fired.
  std::size_t run_until(TimePoint deadline);

  /// True if any non-cancelled event is pending.
  bool has_pending() const;

 private:
  struct Entry {
    TimePoint at;
    EventId id;
    std::function<void()> fn;
  };
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.at != b.at) return a.at > b.at;
      return a.id > b.id;  // FIFO among simultaneous events
    }
  };

  /// Pops the next live entry, or returns false when drained.
  bool pop_next(Entry& out);

  TimePoint now_ = Duration::zero();
  EventId next_id_ = 1;
  std::priority_queue<Entry, std::vector<Entry>, Later> queue_;
  std::unordered_set<EventId> cancelled_;
};

}  // namespace tsx::sim
