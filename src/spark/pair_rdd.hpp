// Keyed RDD operations: shuffles, aggregations, sorting and joins.
//
// These are the wide transformations that define stage boundaries. A map
// task computes its parent partition, (optionally) combines map-side,
// partitions records by key and deposits buckets in the ShuffleStore,
// charging hashing cpu, serialization cpu and a streaming write of the
// shuffle bytes. A reduce task fetches its bucket column — paying extra for
// buckets that live on *other executors* (executor co-operation traffic,
// the paper's Takeaway 6) — and merges it, paying dependent accesses for
// hash-table work (the latency-bound traffic of Takeaway 4).
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <unordered_map>
#include <utility>

#include "spark/rdd.hpp"

namespace tsx::spark {

// ---------------------------------------------------------------------------
// Hashing for key types
// ---------------------------------------------------------------------------

template <typename K>
struct TsxHash {
  std::size_t operator()(const K& k) const { return std::hash<K>{}(k); }
};

template <typename A, typename B>
struct TsxHash<std::pair<A, B>> {
  std::size_t operator()(const std::pair<A, B>& p) const {
    const std::size_t h1 = TsxHash<A>{}(p.first);
    const std::size_t h2 = TsxHash<B>{}(p.second);
    return h1 ^ (h2 + 0x9e3779b97f4a7c15ULL + (h1 << 6) + (h1 >> 2));
  }
};

// ---------------------------------------------------------------------------
// Shuffle cost helpers
// ---------------------------------------------------------------------------

namespace detail {

/// Charges one map task for bucketing + writing `bytes` of shuffle output
/// covering `records` records. With zero-copy shuffle (unified memory
/// space) the serialization pass and per-record framing disappear.
inline void charge_shuffle_write(TaskContext& ctx, double records,
                                 double bytes, bool zero_copy) {
  const CostModel& c = ctx.costs();
  ctx.charge_cpu_ns(records * c.hash_cpu_ns);
  ctx.charge_dep_writes(records * c.shuffle_scatter_dep_writes);
  if (zero_copy) {
    // The records already reside in the unified memory space; the "write"
    // is only the bucket index (covered by the scatter dep-writes above).
    return;
  }
  ctx.charge_cpu_ns(bytes * c.serialize_cpu_ns_per_byte);
  ctx.charge_stream_write(
      Bytes::of(bytes + records * c.shuffle_record_overhead_bytes),
      StreamClass::kShuffle);
}

/// Per-reduce-task accumulator for shuffle fetch costs. Local buckets are a
/// deserializing stream read; records living on *other executors* addition-
/// ally pay the co-operation path (copy through the peer's address space),
/// and each contacted peer costs one batched RPC round — Netty batches all
/// of a mapper-executor's blocks into one request, so the RPC count is
/// bounded by the executor count, not by map x reduce.
class ShuffleFetchAccount {
 public:
  ShuffleFetchAccount(TaskContext& ctx, std::size_t reduce_part,
                      std::size_t executors, bool zero_copy = false)
      : ctx_(ctx),
        reduce_part_(reduce_part),
        executors_(executors),
        zero_copy_(zero_copy) {}

  /// Whether map partition `m`'s bucket lives on a different executor than
  /// this reduce task (both sides are placed round-robin).
  bool is_remote(std::size_t map_part) const {
    return executors_ > 1 &&
           (map_part % executors_) != (reduce_part_ % executors_);
  }

  void add_bucket(std::size_t map_part, double records, double bytes) {
    const CostModel& c = ctx_.costs();
    if (zero_copy_) {
      // Unified memory space: the reducer maps the producer's buffer in
      // place — no deserialization pass, no framing, no fetch RPC.
      ctx_.charge_stream_read(Bytes::of(bytes), StreamClass::kShuffle);
      return;
    }
    ctx_.charge_cpu_ns(bytes * c.deserialize_cpu_ns_per_byte);
    ctx_.charge_stream_read(
        Bytes::of(bytes + records * c.shuffle_record_overhead_bytes),
        StreamClass::kShuffle);
    if (is_remote(map_part)) {
      remote_records_ += records;
      peers_[map_part % executors_] = true;
    }
  }

  ~ShuffleFetchAccount() {
    double peers = 0.0;
    for (const auto& [peer, seen] : peers_) peers += seen ? 1.0 : 0.0;
    if (peers == 0.0) return;
    // One batched RPC per contacted peer + a copy touch per remote record.
    ctx_.charge_cpu_unscaled(Duration::micros(250) * peers);
    ctx_.charge_dep_reads(remote_records_ * 0.5 + 64.0 * peers);
  }

 private:
  TaskContext& ctx_;
  std::size_t reduce_part_;
  std::size_t executors_;
  bool zero_copy_;
  double remote_records_ = 0.0;
  std::map<std::size_t, bool> peers_;
};

/// One task's combine table (DESIGN.md §20): a flat, insertion-ordered
/// open-addressing map. Entries live in first-seen order; `slots_` holds
/// entry index + 1 (0 = empty) in a power-of-two array sized once to at
/// least twice the task's record count, so it never rehashes and every
/// probe ends at an empty slot. Probing is linear from a Fibonacci mix of
/// `TsxHash<K>`, so identity hashes and keys that differ only in their high
/// bits still spread; keys match with `==`.
template <typename K, typename C>
class CombineTable {
 public:
  explicit CombineTable(std::size_t records) {
    TSX_CHECK(records < std::numeric_limits<std::uint32_t>::max(),
              "combine task has more records than a u32 slot can index: " +
                  std::to_string(records));
    int bits = 1;
    while ((std::size_t{1} << bits) < 2 * records) ++bits;
    slots_.assign(std::size_t{1} << bits, 0);
    shift_ = 64 - bits;
  }

  /// Folds one record of `key`: `create()` makes the combiner on the key's
  /// first record, `merge(combiner)` folds each later one into it.
  template <typename Create, typename Merge>
  void fold(const K& key, Create&& create, Merge&& merge) {
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = static_cast<std::size_t>(
        (static_cast<std::uint64_t>(TsxHash<K>{}(key)) *
         0x9e3779b97f4a7c15ULL) >>
        shift_);
    for (;; i = (i + 1) & mask) {
      const std::uint32_t slot = slots_[i];
      if (slot == 0) {
        entries_.emplace_back(key, create());
        slots_[i] = static_cast<std::uint32_t>(entries_.size());
        return;
      }
      std::pair<K, C>& entry = entries_[slot - 1];
      if (entry.first == key) {
        merge(entry.second);
        return;
      }
    }
  }

  /// The distinct keys with their combiners, in first-seen order.
  std::vector<std::pair<K, C>>& entries() { return entries_; }

 private:
  std::vector<std::pair<K, C>> entries_;
  std::vector<std::uint32_t> slots_;
  int shift_ = 63;
};

}  // namespace detail

// ---------------------------------------------------------------------------
// Plain shuffle (repartition / sort / join inputs): records pass unchanged.
// ---------------------------------------------------------------------------

template <typename K, typename V>
class PlainShuffleDep final : public ShuffleDependencyBase {
 public:
  using Record = std::pair<K, V>;
  using PartitionFn = std::function<std::size_t(const K&)>;

  PlainShuffleDep(RddPtr<Record> parent, std::size_t reduce_partitions,
                  PartitionFn partition_fn)
      : ShuffleDependencyBase(
            parent->context()->shuffle_store().register_shuffle(
                parent->num_partitions(), reduce_partitions),
            parent, reduce_partitions),
        typed_parent_(std::move(parent)),
        partition_fn_(std::move(partition_fn)) {}

  void run_map_task(std::size_t map_part, TaskContext& ctx) const override {
    std::vector<Record> in = typed_parent_->compute(map_part, ctx);
    std::vector<std::vector<Record>> buckets(reduce_partitions_);
    for (auto& bucket : buckets)
      bucket.reserve(in.size() / reduce_partitions_ + 1);
    double bytes = 0.0;
    for (Record& r : in) {
      bytes += est_bytes(r);
      buckets[partition_fn_(r.first) % reduce_partitions_].push_back(
          std::move(r));
    }
    detail::charge_shuffle_write(
        ctx, static_cast<double>(in.size()), bytes,
        typed_parent_->context()->conf().zero_copy_shuffle);
    ShuffleStore& store = typed_parent_->context()->shuffle_store();
    for (std::size_t r = 0; r < buckets.size(); ++r) {
      const Bytes size = Bytes::of(est_bytes_all(buckets[r]));
      store.put_bucket(shuffle_id_, map_part, r, std::move(buckets[r]), size,
                       ctx.executor_id());
    }
  }

 private:
  RddPtr<Record> typed_parent_;
  PartitionFn partition_fn_;
};

/// Output side of a plain shuffle; optionally sorts each partition by key
/// (sortByKey with a range partitioner gives a globally sorted result).
template <typename K, typename V>
class PlainShuffledRDD final : public RDD<std::pair<K, V>> {
 public:
  using Record = std::pair<K, V>;

  PlainShuffledRDD(SparkContext* sc,
                   std::shared_ptr<PlainShuffleDep<K, V>> dep, bool sorted,
                   std::string name)
      : RDD<Record>(sc, std::move(name)), dep_(std::move(dep)),
        sorted_(sorted) {}

  std::size_t num_partitions() const override {
    return dep_->reduce_partitions();
  }
  std::vector<Dependency> dependencies() const override {
    return {Dependency::via(dep_)};
  }

  /// Reads the fetched buckets in place and copies each record once, in
  /// output order. The record pointers stay valid until the task returns:
  /// no simulator event runs inside a task body, and a fetch that recovers
  /// a lost map part re-puts only that part's cells, none of which the task
  /// has read yet.
  std::vector<Record> compute(std::size_t part,
                              TaskContext& ctx) const override {
    ShuffleStore& store = this->context()->shuffle_store();
    const std::size_t maps = store.map_partitions(dep_->shuffle_id());
    const std::size_t executors = this->context()->executors().size();
    std::vector<const Record*> records;
    {
      detail::ShuffleFetchAccount fetch(
          ctx, part, executors, this->context()->conf().zero_copy_shuffle);
      for (std::size_t m = 0; m < maps; ++m) {
        const std::any& cell =
            store.fetch_bucket(dep_->shuffle_id(), m, part, ctx);
        TSX_CHECK(cell.has_value(), "missing shuffle bucket");
        const auto& bucket = std::any_cast<const std::vector<Record>&>(cell);
        fetch.add_bucket(m, static_cast<double>(bucket.size()),
                         store.bucket_size(dep_->shuffle_id(), m, part).b());
        for (const Record& r : bucket) records.push_back(&r);
      }
    }
    if (sorted_) {
      const double n = static_cast<double>(records.size());
      const double comparisons = n > 1.0 ? n * std::log2(n) : 0.0;
      const CostModel& c = ctx.costs();
      ctx.charge_cpu_ns(comparisons * c.compare_cpu_ns);
      ctx.charge_dep_reads(comparisons * c.sort_miss_fraction);
      ctx.charge_dep_writes(n * 0.4);  // merge-phase record placement
      // Stable: equal keys keep map-partition-then-bucket order.
      std::stable_sort(records.begin(), records.end(),
                       [](const Record* a, const Record* b) {
                         return a->first < b->first;
                       });
    }
    std::vector<Record> out;
    out.reserve(records.size());
    for (const Record* r : records) out.push_back(*r);
    return out;
  }

 private:
  std::shared_ptr<PlainShuffleDep<K, V>> dep_;
  bool sorted_;
};

// ---------------------------------------------------------------------------
// Combining shuffle (reduceByKey / groupByKey)
// ---------------------------------------------------------------------------

template <typename K, typename V, typename C>
struct Combiner {
  std::function<C(const V&)> create;
  std::function<void(C&, const V&)> merge_value;
  std::function<void(C&, const C&)> merge_combiners;
};

template <typename K, typename V, typename C>
class CombineShuffleDep final : public ShuffleDependencyBase {
 public:
  using InRecord = std::pair<K, V>;
  using OutRecord = std::pair<K, C>;
  using PartitionFn = std::function<std::size_t(const K&)>;

  CombineShuffleDep(RddPtr<InRecord> parent, std::size_t reduce_partitions,
                    PartitionFn partition_fn, Combiner<K, V, C> combiner)
      : ShuffleDependencyBase(
            parent->context()->shuffle_store().register_shuffle(
                parent->num_partitions(), reduce_partitions),
            parent, reduce_partitions),
        typed_parent_(std::move(parent)),
        partition_fn_(std::move(partition_fn)),
        combiner_(std::move(combiner)) {}

  void run_map_task(std::size_t map_part, TaskContext& ctx) const override {
    const PartitionView<InRecord> view = typed_parent_->view(map_part, ctx);
    const std::vector<InRecord>& in = *view;
    const CostModel& c = ctx.costs();

    // Map-side combine in input order: the latency-bound phase.
    detail::CombineTable<K, C> combined(in.size());
    for (const InRecord& r : in)
      combined.fold(
          r.first, [&] { return combiner_.create(r.second); },
          [&](C& acc) { combiner_.merge_value(acc, r.second); });
    const double n = static_cast<double>(in.size());
    const double distinct = static_cast<double>(combined.entries().size());
    ctx.charge_cpu_ns(n * (c.hash_cpu_ns + c.agg_cpu_ns));
    ctx.charge_dep_reads(n * c.hash_probe_dep_reads);
    ctx.charge_dep_writes(distinct * c.hash_insert_dep_writes);

    // Partition and write buckets.
    std::vector<std::vector<OutRecord>> buckets(reduce_partitions_);
    for (auto& bucket : buckets)
      bucket.reserve(combined.entries().size() / reduce_partitions_ + 1);
    double bytes = 0.0;
    for (auto& [k, v] : combined.entries()) {
      const std::size_t r = partition_fn_(k) % reduce_partitions_;
      bytes += est_bytes(k) + est_bytes(v);
      buckets[r].emplace_back(k, std::move(v));
    }
    // Keys within a bucket are unique, so sorting fixes its order.
    for (auto& bucket : buckets)
      std::sort(bucket.begin(), bucket.end(),
                [](const OutRecord& a, const OutRecord& b) {
                  return a.first < b.first;
                });
    detail::charge_shuffle_write(
        ctx, distinct, bytes,
        typed_parent_->context()->conf().zero_copy_shuffle);
    ShuffleStore& store = typed_parent_->context()->shuffle_store();
    for (std::size_t r = 0; r < buckets.size(); ++r) {
      const Bytes size = Bytes::of(est_bytes_all(buckets[r]));
      store.put_bucket(shuffle_id_, map_part, r, std::move(buckets[r]), size,
                       ctx.executor_id());
    }
  }

  const Combiner<K, V, C>& combiner() const { return combiner_; }

 private:
  RddPtr<InRecord> typed_parent_;
  PartitionFn partition_fn_;
  Combiner<K, V, C> combiner_;
};

template <typename K, typename V, typename C>
class CombinedShuffledRDD final : public RDD<std::pair<K, C>> {
 public:
  using OutRecord = std::pair<K, C>;

  CombinedShuffledRDD(SparkContext* sc,
                      std::shared_ptr<CombineShuffleDep<K, V, C>> dep,
                      std::string name)
      : RDD<OutRecord>(sc, std::move(name)), dep_(std::move(dep)) {}

  std::size_t num_partitions() const override {
    return dep_->reduce_partitions();
  }
  std::vector<Dependency> dependencies() const override {
    return {Dependency::via(dep_)};
  }

  std::vector<OutRecord> compute(std::size_t part,
                                 TaskContext& ctx) const override {
    ShuffleStore& store = this->context()->shuffle_store();
    const std::size_t maps = store.map_partitions(dep_->shuffle_id());
    const std::size_t executors = this->context()->executors().size();
    const CostModel& c = ctx.costs();

    std::vector<const std::vector<OutRecord>*> buckets(maps);
    std::size_t records = 0;
    {
      detail::ShuffleFetchAccount fetch(
          ctx, part, executors, this->context()->conf().zero_copy_shuffle);
      for (std::size_t m = 0; m < maps; ++m) {
        const std::any& cell =
            store.fetch_bucket(dep_->shuffle_id(), m, part, ctx);
        TSX_CHECK(cell.has_value(), "missing shuffle bucket");
        buckets[m] = &std::any_cast<const std::vector<OutRecord>&>(cell);
        fetch.add_bucket(m, static_cast<double>(buckets[m]->size()),
                         store.bucket_size(dep_->shuffle_id(), m, part).b());
        records += buckets[m]->size();
      }
    }
    // Merge in map-partition order, so each key folds as it always has.
    detail::CombineTable<K, C> merged(records);
    for (const std::vector<OutRecord>* bucket : buckets)
      for (const OutRecord& r : *bucket)
        merged.fold(
            r.first, [&] { return r.second; },
            [&](C& acc) { dep_->combiner().merge_combiners(acc, r.second); });
    const double n = static_cast<double>(records);
    ctx.charge_cpu_ns(n * (c.hash_cpu_ns + c.agg_cpu_ns));
    ctx.charge_dep_reads(n * c.hash_probe_dep_reads);
    ctx.charge_dep_writes(static_cast<double>(merged.entries().size()) *
                          c.hash_insert_dep_writes);

    std::vector<OutRecord> out = std::move(merged.entries());
    std::sort(out.begin(), out.end(),
              [](const OutRecord& a, const OutRecord& b) {
                return a.first < b.first;
              });
    return out;
  }

 private:
  std::shared_ptr<CombineShuffleDep<K, V, C>> dep_;
};

// ---------------------------------------------------------------------------
// Join (hash cogroup of two keyed RDDs)
// ---------------------------------------------------------------------------

template <typename K, typename V, typename W>
class JoinedRDD final : public RDD<std::pair<K, std::pair<V, W>>> {
 public:
  using OutRecord = std::pair<K, std::pair<V, W>>;

  JoinedRDD(SparkContext* sc, std::shared_ptr<PlainShuffleDep<K, V>> left,
            std::shared_ptr<PlainShuffleDep<K, W>> right)
      : RDD<OutRecord>(sc, "join"),
        left_(std::move(left)),
        right_(std::move(right)) {
    TSX_CHECK(left_->reduce_partitions() == right_->reduce_partitions(),
              "join sides must use the same partitioner");
  }

  std::size_t num_partitions() const override {
    return left_->reduce_partitions();
  }
  std::vector<Dependency> dependencies() const override {
    return {Dependency::via(left_), Dependency::via(right_)};
  }

  std::vector<OutRecord> compute(std::size_t part,
                                 TaskContext& ctx) const override {
    ShuffleStore& store = this->context()->shuffle_store();
    const std::size_t executors = this->context()->executors().size();
    const CostModel& c = ctx.costs();

    // Build side: indexes the left buckets in place. The pointers stay
    // valid until the task returns: no simulator event runs inside a task
    // body, and a fetch that recovers a lost map part re-puts only that
    // part's cells (a right-side recovery only cells of the right shuffle),
    // so no left cell is freed mid-task.
    std::unordered_multimap<K, const V*, TsxHash<K>> table;
    {
      detail::ShuffleFetchAccount fetch(
          ctx, part, executors, this->context()->conf().zero_copy_shuffle);
      const std::size_t maps = store.map_partitions(left_->shuffle_id());
      double n = 0.0;
      for (std::size_t m = 0; m < maps; ++m) {
        const std::any& cell =
            store.fetch_bucket(left_->shuffle_id(), m, part, ctx);
        TSX_CHECK(cell.has_value(), "missing shuffle bucket");
        const auto& bucket =
            std::any_cast<const std::vector<std::pair<K, V>>&>(cell);
        fetch.add_bucket(m, static_cast<double>(bucket.size()),
                         store.bucket_size(left_->shuffle_id(), m, part).b());
        for (const auto& r : bucket) table.emplace(r.first, &r.second);
        n += static_cast<double>(bucket.size());
      }
      ctx.charge_cpu_ns(n * c.hash_cpu_ns);
      ctx.charge_dep_writes(n * c.hash_insert_dep_writes);
    }

    // Probe side.
    std::vector<OutRecord> out;
    {
      detail::ShuffleFetchAccount fetch(
          ctx, part, executors, this->context()->conf().zero_copy_shuffle);
      const std::size_t maps = store.map_partitions(right_->shuffle_id());
      double n = 0.0;
      for (std::size_t m = 0; m < maps; ++m) {
        const std::any& cell =
            store.fetch_bucket(right_->shuffle_id(), m, part, ctx);
        TSX_CHECK(cell.has_value(), "missing shuffle bucket");
        const auto& bucket =
            std::any_cast<const std::vector<std::pair<K, W>>&>(cell);
        fetch.add_bucket(m, static_cast<double>(bucket.size()),
                         store.bucket_size(right_->shuffle_id(), m, part).b());
        for (const auto& r : bucket) {
          auto [lo, hi] = table.equal_range(r.first);
          for (auto it = lo; it != hi; ++it)
            out.emplace_back(r.first, std::make_pair(*it->second, r.second));
        }
        n += static_cast<double>(bucket.size());
      }
      ctx.charge_cpu_ns(n * (c.hash_cpu_ns + c.agg_cpu_ns));
      ctx.charge_dep_reads(n * c.hash_probe_dep_reads);
    }
    std::sort(out.begin(), out.end(), [](const OutRecord& a,
                                         const OutRecord& b) {
      return a.first < b.first;
    });
    return out;
  }

 private:
  std::shared_ptr<PlainShuffleDep<K, V>> left_;
  std::shared_ptr<PlainShuffleDep<K, W>> right_;
};

// ---------------------------------------------------------------------------
// Keyed operation facades
// ---------------------------------------------------------------------------

template <typename K, typename V, typename C>
RddPtr<std::pair<K, C>> combine_by_key(RddPtr<std::pair<K, V>> rdd,
                                       Combiner<K, V, C> combiner,
                                       std::size_t num_partitions = 0,
                                       std::string name = "combineByKey") {
  SparkContext& sc = *rdd->context();
  const std::size_t parts =
      num_partitions > 0
          ? num_partitions
          : static_cast<std::size_t>(sc.default_parallelism());
  auto dep = std::make_shared<CombineShuffleDep<K, V, C>>(
      std::move(rdd), parts,
      [](const K& k) { return TsxHash<K>{}(k); }, std::move(combiner));
  return std::make_shared<CombinedShuffledRDD<K, V, C>>(&sc, std::move(dep),
                                                        std::move(name));
}

template <typename K, typename V, typename F>
RddPtr<std::pair<K, V>> reduce_by_key(RddPtr<std::pair<K, V>> rdd, F fn,
                                      std::size_t num_partitions = 0) {
  Combiner<K, V, V> combiner;
  combiner.create = [](const V& v) { return v; };
  combiner.merge_value = [fn](V& acc, const V& v) { acc = fn(acc, v); };
  combiner.merge_combiners = [fn](V& acc, const V& v) { acc = fn(acc, v); };
  return combine_by_key<K, V, V>(std::move(rdd), std::move(combiner),
                                 num_partitions, "reduceByKey");
}

template <typename K, typename V>
RddPtr<std::pair<K, std::vector<V>>> group_by_key(
    RddPtr<std::pair<K, V>> rdd, std::size_t num_partitions = 0) {
  Combiner<K, V, std::vector<V>> combiner;
  combiner.create = [](const V& v) { return std::vector<V>{v}; };
  combiner.merge_value = [](std::vector<V>& acc, const V& v) {
    acc.push_back(v);
  };
  combiner.merge_combiners = [](std::vector<V>& acc,
                                const std::vector<V>& v) {
    acc.insert(acc.end(), v.begin(), v.end());
  };
  return combine_by_key<K, V, std::vector<V>>(std::move(rdd),
                                              std::move(combiner),
                                              num_partitions, "groupByKey");
}

/// Hash-repartitions a keyed RDD without combining.
template <typename K, typename V>
RddPtr<std::pair<K, V>> partition_by(RddPtr<std::pair<K, V>> rdd,
                                     std::size_t num_partitions) {
  SparkContext& sc = *rdd->context();
  auto dep = std::make_shared<PlainShuffleDep<K, V>>(
      std::move(rdd), num_partitions,
      [](const K& k) { return TsxHash<K>{}(k); });
  return std::make_shared<PlainShuffledRDD<K, V>>(&sc, std::move(dep),
                                                  /*sorted=*/false,
                                                  "partitionBy");
}

/// Round-robin keys for `repartition`, spreading records evenly like
/// Spark's. It consumes its parent's records, so it reads them through
/// compute() and moves them; a read-only view would cost a copy of every
/// record of a freshly generated partition.
template <typename T>
class RoundRobinKeyRDD final : public RDD<std::pair<std::uint64_t, T>> {
 public:
  explicit RoundRobinKeyRDD(RddPtr<T> parent)
      : RDD<std::pair<std::uint64_t, T>>(parent->context(), "roundRobinKey"),
        parent_(std::move(parent)) {}

  std::size_t num_partitions() const override {
    return parent_->num_partitions();
  }
  std::vector<Dependency> dependencies() const override {
    return {Dependency::on(parent_)};
  }

  std::vector<std::pair<std::uint64_t, T>> compute(
      std::size_t part, TaskContext& ctx) const override {
    std::vector<T> data = parent_->compute(part, ctx);
    std::vector<std::pair<std::uint64_t, T>> out;
    out.reserve(data.size());
    std::uint64_t i = ctx.partition() * 0x9e3779b9ULL;
    for (T& x : data) out.emplace_back(i++, std::move(x));
    ctx.charge_cpu_ns(static_cast<double>(out.size()) *
                      ctx.costs().map_cpu_ns);
    return out;
  }

 private:
  RddPtr<T> parent_;
};

/// The values of a keyed RDD, moved out of the partition its parent
/// computes (charged like the equivalent map). For a parent that makes a
/// fresh partition per call, such as a shuffle's reduce side.
template <typename K, typename V>
class MovedValuesRDD final : public RDD<V> {
 public:
  MovedValuesRDD(RddPtr<std::pair<K, V>> parent, std::string name)
      : RDD<V>(parent->context(), std::move(name)),
        parent_(std::move(parent)) {}

  std::size_t num_partitions() const override {
    return parent_->num_partitions();
  }
  std::vector<Dependency> dependencies() const override {
    return {Dependency::on(parent_)};
  }

  std::vector<V> compute(std::size_t part, TaskContext& ctx) const override {
    std::vector<std::pair<K, V>> in = parent_->compute(part, ctx);
    std::vector<V> out;
    out.reserve(in.size());
    for (auto& kv : in) out.push_back(std::move(kv.second));
    detail::charge_map(in.size(), ctx);
    return out;
  }

 private:
  RddPtr<std::pair<K, V>> parent_;
};

/// Redistributes any RDD across `num_partitions` partitions through a full
/// shuffle (what HiBench's repartition microbenchmark exercises).
template <typename T>
RddPtr<T> repartition(RddPtr<T> rdd, std::size_t num_partitions) {
  auto shuffled = partition_by(
      RddPtr<std::pair<std::uint64_t, T>>(
          std::make_shared<RoundRobinKeyRDD<T>>(std::move(rdd))),
      num_partitions);
  return std::make_shared<MovedValuesRDD<std::uint64_t, T>>(
      std::move(shuffled), "dropKey");
}

/// Globally sorts by key with a sampled range partitioner. Like Spark's
/// sortByKey this runs a small sampling job first to pick the partition
/// bounds (that job's time is part of the workload).
template <typename K, typename V>
RddPtr<std::pair<K, V>> sort_by_key(RddPtr<std::pair<K, V>> rdd,
                                    std::size_t num_partitions = 0) {
  SparkContext& sc = *rdd->context();
  const std::size_t parts =
      num_partitions > 0
          ? num_partitions
          : static_cast<std::size_t>(sc.default_parallelism());

  // Sampling job: collect ~10% of keys and choose quantile bounds.
  auto sampled_keys = map_rdd(
      sample_rdd(rdd, 0.1),
      [](const std::pair<K, V>& kv) { return kv.first; }, "sampleKeys");
  std::vector<K> sample = collect(sampled_keys);
  std::sort(sample.begin(), sample.end());
  auto bounds = std::make_shared<std::vector<K>>();
  for (std::size_t i = 1; i < parts && !sample.empty(); ++i) {
    const std::size_t idx =
        std::min(sample.size() - 1, i * sample.size() / parts);
    if (bounds->empty() || sample[idx] > bounds->back())
      bounds->push_back(sample[idx]);
  }

  auto dep = std::make_shared<PlainShuffleDep<K, V>>(
      std::move(rdd), parts, [bounds](const K& k) {
        return static_cast<std::size_t>(
            std::upper_bound(bounds->begin(), bounds->end(), k) -
            bounds->begin());
      });
  return std::make_shared<PlainShuffledRDD<K, V>>(&sc, std::move(dep),
                                                  /*sorted=*/true,
                                                  "sortByKey");
}

/// Inner hash join.
template <typename K, typename V, typename W>
RddPtr<std::pair<K, std::pair<V, W>>> join(RddPtr<std::pair<K, V>> left,
                                           RddPtr<std::pair<K, W>> right,
                                           std::size_t num_partitions = 0) {
  SparkContext& sc = *left->context();
  const std::size_t parts =
      num_partitions > 0
          ? num_partitions
          : static_cast<std::size_t>(sc.default_parallelism());
  auto hash_fn = [](const K& k) { return TsxHash<K>{}(k); };
  auto ldep = std::make_shared<PlainShuffleDep<K, V>>(std::move(left), parts,
                                                      hash_fn);
  auto rdep = std::make_shared<PlainShuffleDep<K, W>>(std::move(right), parts,
                                                      hash_fn);
  return std::make_shared<JoinedRDD<K, V, W>>(&sc, std::move(ldep),
                                              std::move(rdep));
}

template <typename K, typename V, typename F>
auto map_values(RddPtr<std::pair<K, V>> rdd, F fn) {
  return map_rdd(std::move(rdd),
                 [fn](const std::pair<K, V>& kv) {
                   return std::make_pair(kv.first, fn(kv.second));
                 },
                 "mapValues");
}

}  // namespace tsx::spark
