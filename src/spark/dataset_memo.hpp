// Dataset memo: one run group's generated partitions, reused across runs.
//
// A sweep runs every dataset on several tiers back to back, and no
// GenerateRDD generator reads the tier (DESIGN.md §19). The memo is a
// single slot bound to one *group* key — the run config with only the tier
// masked — that keeps the partitions GenerateRDD produced and hands every
// later request the stored, immutable buffer. It saves host time only:
// callers charge the simulated cost from the returned data exactly as for
// freshly generated data, so a hit and a miss are indistinguishable in every
// simulated output.
#pragma once

#include <cstddef>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <tuple>
#include <typeindex>
#include <typeinfo>
#include <utility>
#include <vector>

namespace tsx::spark {

class DatasetMemo {
 public:
  /// Binds the slot to a run group. A new group clears the slot. Stores are
  /// admitted from the second consecutive bind of the same group on, so a
  /// group that runs once (a one-off run, a fault drill) never holds its
  /// data. Returns whether this bind admits stores; until it does, the slot
  /// is empty and a run gains nothing from consulting it. Not concurrent
  /// with get_or_make: bind between runs.
  bool bind(const std::string& group);

  /// Partition `part` of the generator RDD (rdd_id, name, partitions) with
  /// element type T: the stored partition itself on a hit, otherwise
  /// `make()`, moved into the slot when the group is admitted. Thread-safe;
  /// `make()` runs outside the lock.
  template <typename T, typename Make>
  std::shared_ptr<const std::vector<T>> get_or_make(int rdd_id,
                                                    const std::string& name,
                                                    std::size_t partitions,
                                                    std::size_t part,
                                                    Make&& make) {
    Key key(rdd_id, name, partitions, part, std::type_index(typeid(T)));
    std::shared_ptr<const void> hit;
    bool admit = false;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (const auto it = entries_.find(key); it != entries_.end())
        hit = it->second;
      admit = admit_;
    }
    if (hit) return std::static_pointer_cast<const std::vector<T>>(hit);
    auto out = std::make_shared<const std::vector<T>>(make());
    if (admit) {
      std::lock_guard<std::mutex> lock(mu_);
      entries_.emplace(std::move(key), out);
    }
    return out;
  }

  /// Number of stored partitions.
  std::size_t size() const;

 private:
  /// (rdd id, rdd name, partition count, partition, element type).
  using Key = std::tuple<int, std::string, std::size_t, std::size_t,
                         std::type_index>;

  mutable std::mutex mu_;
  std::optional<std::string> group_;
  bool admit_ = false;
  std::map<Key, std::shared_ptr<const void>> entries_;
};

}  // namespace tsx::spark
