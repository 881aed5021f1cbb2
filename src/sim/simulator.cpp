#include "sim/simulator.hpp"

#include <cmath>

#include "core/error.hpp"

namespace tsx::sim {

EventId Simulator::schedule_at(TimePoint at, std::function<void()> fn) {
  TSX_CHECK(std::isfinite(at.sec()), "cannot schedule at infinite time");
  TSX_CHECK(at >= now_, "cannot schedule in the past");
  const EventId id = next_id_++;
  queue_.push(Entry{at, id, std::move(fn)});
  return id;
}

EventId Simulator::schedule_in(Duration delay, std::function<void()> fn) {
  TSX_CHECK(delay.sec() >= 0.0, "negative scheduling delay");
  return schedule_at(now_ + delay, std::move(fn));
}

void Simulator::cancel(EventId id) { cancelled_.insert(id); }

bool Simulator::pop_next(Entry& out) {
  while (!queue_.empty()) {
    // priority_queue::top is const; move out via const_cast is UB-adjacent,
    // so copy the small fields and move the functor through a pop cycle.
    out = std::move(const_cast<Entry&>(queue_.top()));
    queue_.pop();
    const auto it = cancelled_.find(out.id);
    if (it == cancelled_.end()) return true;
    cancelled_.erase(it);
  }
  return false;
}

std::size_t Simulator::run() {
  std::size_t n = 0;
  Entry entry;
  while (pop_next(entry)) {
    now_ = entry.at;
    entry.fn();
    ++n;
  }
  return n;
}

std::size_t Simulator::step() {
  Entry entry;
  if (!pop_next(entry)) return 0;
  now_ = entry.at;
  entry.fn();
  return 1;
}

std::size_t Simulator::run_until(TimePoint deadline) {
  std::size_t n = 0;
  Entry entry;
  while (pop_next(entry)) {
    if (entry.at > deadline) {
      // Put it back: it belongs to the future beyond our horizon.
      queue_.push(std::move(entry));
      break;
    }
    now_ = entry.at;
    entry.fn();
    ++n;
  }
  if (now_ < deadline) now_ = deadline;
  return n;
}

bool Simulator::has_pending() const {
  // The cancelled set may hold ids of events still in the queue; a precise
  // answer requires comparing sizes.
  return queue_.size() > cancelled_.size();
}

}  // namespace tsx::sim
