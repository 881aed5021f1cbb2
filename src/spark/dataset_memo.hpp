// Dataset memo: generated partitions a run group reads more than once.
//
// A sweep runs every dataset on several tiers back to back, and no
// GenerateRDD generator reads the tier (DESIGN.md §19). The memo is a
// single slot bound to one *group* key — the run config with only the tier
// masked — that keeps partitions GenerateRDD produced and hands a later
// request the stored, immutable buffer. It saves host time only: callers
// charge the simulated cost from the returned data exactly as for freshly
// generated data, so a hit and a miss are indistinguishable in every
// simulated output.
//
// What it keeps depends on the run. A *kept* run — the second or later
// consecutive run of a group — stores every partition it makes and never
// drops one, for the group's later runs. Any other run keeps a partition
// only while a later read is certain: what a result task (a driver action,
// such as sortByKey's sampling job) makes is stored, and the shuffle-map
// read that follows takes it out of the slot. Once a shuffle has its map
// output, its input is read again only to recover lost output, which counts
// as a shuffle-map read too.
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

#include "spark/task.hpp"

namespace tsx::spark {

class DatasetMemo {
 public:
  /// Binds the slot to a run group. A new group clears the slot. Returns
  /// whether the run is kept: the second or later consecutive bind of the
  /// same group. Not concurrent with get_or_make: bind between runs.
  bool bind(const std::string& group);

  /// Ends a run: a run that is not kept drops every partition it stored.
  void end_run();

  /// One run's binding: binds on construction and ends the run on
  /// destruction, so a run that throws drops its partitions too.
  class Run {
   public:
    Run(DatasetMemo& memo, const std::string& group)
        : memo_(memo), kept_(memo.bind(group)) {}
    ~Run() { memo_.end_run(); }
    Run(const Run&) = delete;
    Run& operator=(const Run&) = delete;

    bool kept() const { return kept_; }

   private:
    DatasetMemo& memo_;
    bool kept_;
  };

  /// Partition `part` of the generator RDD (rdd_id, name, partitions) with
  /// element type T, read by a task of kind `kind`: the stored partition on
  /// a hit, otherwise `make()`, stored as the run's regime says. A
  /// shuffle-map hit in a run that is not kept takes the partition out of
  /// the slot. The buffer is always allocated as a non-const vector, so a
  /// caller holding the only reference may move from it. Thread-safe;
  /// `make()` runs outside the lock, so two concurrent readers of one
  /// partition may both make it (equal bytes).
  template <typename T, typename Make>
  std::shared_ptr<const std::vector<T>> get_or_make(int rdd_id,
                                                    const std::string& name,
                                                    std::size_t partitions,
                                                    std::size_t part,
                                                    TaskKind kind,
                                                    Make&& make) {
    Key key(rdd_id, name, partitions, part, std::type_index(typeid(T)));
    std::shared_ptr<const void> hit;
    bool store = false;
    {
      std::lock_guard<std::mutex> lock(mu_);
      const bool take = !kept_ && kind == TaskKind::kShuffleMap;
      if (const auto it = entries_.find(key); it != entries_.end()) {
        hit = it->second;
        if (take) entries_.erase(it);
      }
      store = kept_ || kind == TaskKind::kResult;
    }
    if (hit) return std::static_pointer_cast<const std::vector<T>>(hit);
    std::shared_ptr<const std::vector<T>> out =
        std::make_shared<std::vector<T>>(make());
    if (store) {
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
  bool kept_ = false;
  std::map<Key, std::shared_ptr<const void>> entries_;
};

}  // namespace tsx::spark
