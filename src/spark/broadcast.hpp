// Broadcast variables.
//
// Spark's driver-side read-only shared state: a value serialized once and
// shipped to every executor, where each task reads it from local memory.
// In the simulation, `value(ctx)` charges the first touch of a task with a
// streaming read of the broadcast's serialized size on the heap tier —
// exactly the traffic a TorrentBroadcast block produces — and subsequent
// touches in the same task are free (it is already in that task's working
// set).
#pragma once

#include <memory>

#include "spark/sizer.hpp"
#include "spark/task.hpp"

namespace tsx::spark {

template <typename T>
class Broadcast {
 public:
  Broadcast(std::shared_ptr<const T> value, Bytes size)
      : value_(std::move(value)), size_(size) {}

  /// Task-side access: charges the one-time local read, then hands out the
  /// shared value. Call once per task with its context.
  const T& value(TaskContext& ctx) const {
    ctx.charge_stream_read(size_, StreamClass::kHeap);
    ctx.charge_cpu_ns(size_.b() * ctx.costs().deserialize_cpu_ns_per_byte *
                      0.1);  // torrent blocks are kept deserialized
    return *value_;
  }

  /// Driver-side access (no charge; the driver owns the value).
  const T& driver_value() const { return *value_; }

  Bytes size() const { return size_; }

 private:
  std::shared_ptr<const T> value_;
  Bytes size_;
};

/// Creates a broadcast from a value, estimating its serialized size with
/// the engine's sizer.
template <typename T>
Broadcast<T> broadcast(T value) {
  const Bytes size = Bytes::of(est_bytes(value));
  return Broadcast<T>(std::make_shared<const T>(std::move(value)), size);
}

}  // namespace tsx::spark
