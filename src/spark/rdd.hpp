// Typed RDDs: sources, narrow transformations and actions.
//
// RDD<T> is an immutable, lazily evaluated, partitioned collection with
// lineage — the Spark programming model. Narrow transformations (map,
// flatMap, mapPartitions, sample) pipeline inside one stage: a task computes
// its partition by recursively computing the parent partition in the same
// call.
// Keyed/shuffling operations live in pair_rdd.hpp.
//
// Every compute() both *does the work on host data* (so results are real and
// testable) and *charges* the TaskContext with the simulated cost of that
// work under the engine's cost model. view() is the read-only twin of
// compute(): the same charges, but a source that already holds the
// partition (a cached block, a memoized dataset) shares it instead of
// copying it (DESIGN.md §21). Consumers that only read their input use
// view(); those that consume it record by record use compute().
#pragma once

#include <algorithm>
#include <any>
#include <functional>
#include <memory>
#include <numeric>
#include <optional>
#include <string>
#include <type_traits>
#include <vector>

#include "core/error.hpp"
#include "core/rng.hpp"
#include "spark/context.hpp"
#include "spark/dataset_memo.hpp"
#include "spark/rdd_base.hpp"
#include "spark/sizer.hpp"
#include "spark/task.hpp"

namespace tsx::spark {

/// A read-only partition, possibly shared with a block or a dataset memo.
template <typename T>
using PartitionView = std::shared_ptr<const std::vector<T>>;

template <typename T>
class RDD : public RddBase {
 public:
  using value_type = T;
  using RddBase::RddBase;

  /// Computes partition `part` (recursively computing narrow parents) and
  /// charges `ctx` for the simulated work.
  virtual std::vector<T> compute(std::size_t part, TaskContext& ctx) const = 0;

  /// Partition `part` for reading only, charged exactly like compute().
  virtual PartitionView<T> view(std::size_t part, TaskContext& ctx) const {
    return std::make_shared<const std::vector<T>>(compute(part, ctx));
  }

  /// Appends to `out` the records of partition `part` for which `keep()`,
  /// drawn once per record in order, says yes; returns how many records
  /// the partition has. Charged exactly like compute(). An RDD that can
  /// skip the work of a dropped record (MapRDD) overrides it.
  virtual std::size_t compute_kept(std::size_t part, TaskContext& ctx,
                                   const std::function<bool()>& keep,
                                   std::vector<T>& out) const {
    std::vector<T> in = compute(part, ctx);
    for (T& x : in)
      if (keep()) out.push_back(std::move(x));
    return in.size();
  }

  /// shared_ptr to this RDD with its concrete element type.
  std::shared_ptr<const RDD<T>> self() const {
    return std::static_pointer_cast<const RDD<T>>(shared_from_this());
  }
  std::shared_ptr<RDD<T>> self() {
    return std::static_pointer_cast<RDD<T>>(shared_from_this());
  }
};

template <typename T>
using RddPtr = std::shared_ptr<RDD<T>>;

// ---------------------------------------------------------------------------
// Sources
// ---------------------------------------------------------------------------

/// Partitioned in-memory collection (SparkContext.parallelize analogue).
/// compute() charges a streaming read of the partition's bytes: the driver
/// data lives on the executors' bound tier once distributed.
template <typename T>
class ParallelCollectionRDD final : public RDD<T> {
 public:
  ParallelCollectionRDD(SparkContext* sc, std::vector<T> data,
                        std::size_t partitions)
      : RDD<T>(sc, "parallelize"),
        data_(std::make_shared<std::vector<T>>(std::move(data))),
        partitions_(partitions) {
    TSX_CHECK(partitions > 0, "parallelize needs at least one partition");
  }

  std::size_t num_partitions() const override { return partitions_; }
  std::vector<Dependency> dependencies() const override { return {}; }

  std::vector<T> compute(std::size_t part, TaskContext& ctx) const override {
    TSX_CHECK(part < partitions_, "partition out of range");
    const std::size_t n = data_->size();
    const std::size_t lo = part * n / partitions_;
    const std::size_t hi = (part + 1) * n / partitions_;
    std::vector<T> out(data_->begin() + static_cast<std::ptrdiff_t>(lo),
                       data_->begin() + static_cast<std::ptrdiff_t>(hi));
    ctx.charge_stream_read(Bytes::of(est_bytes_all(out)));
    return out;
  }

 private:
  std::shared_ptr<std::vector<T>> data_;
  std::size_t partitions_;
};

/// Deterministic per-partition generator source. The generator receives a
/// partition-seeded Rng (independent of stage numbering, so the same
/// partition always regenerates identical data across jobs and stages).
/// With `charge_input_io` the partition additionally pays DFS read time and
/// a memory stream write, modeling "read the prepared dataset from HDFS".
/// With a dataset memo on the context, a partition the memo holds is
/// shared instead of regenerated, and what the memo keeps follows the
/// reading task's kind (DESIGN.md §19); the charges come from the returned
/// data either way.
template <typename T>
class GenerateRDD final : public RDD<T> {
 public:
  using Generator = std::function<std::vector<T>(std::size_t part, Rng& rng)>;

  GenerateRDD(SparkContext* sc, std::string name, std::size_t partitions,
              Generator generator, bool charge_input_io)
      : RDD<T>(sc, std::move(name)),
        partitions_(partitions),
        generator_(std::move(generator)),
        charge_input_io_(charge_input_io) {
    TSX_CHECK(partitions > 0, "generator needs at least one partition");
  }

  std::size_t num_partitions() const override { return partitions_; }
  std::vector<Dependency> dependencies() const override { return {}; }

  std::vector<T> compute(std::size_t part, TaskContext& ctx) const override {
    PartitionView<T> out = view(part, ctx);
    // The only reference (never stored, or taken out of the memo): move the
    // buffer out rather than copy it. view() allocates it non-const.
    if (out.use_count() == 1)
      return std::move(const_cast<std::vector<T>&>(*out));
    return *out;
  }

  PartitionView<T> view(std::size_t part, TaskContext& ctx) const override {
    DatasetMemo* memo = this->context()->dataset_memo();
    PartitionView<T> out =
        memo ? memo->get_or_make<T>(this->id(), this->name(), partitions_,
                                    part, ctx.kind(),
                                    [&] { return generate(part); })
             : std::make_shared<std::vector<T>>(generate(part));
    charge(*out, ctx);
    return out;
  }

 private:
  std::vector<T> generate(std::size_t part) const {
    TSX_CHECK(part < partitions_, "partition out of range");
    std::uint64_t mix = this->context()->job_seed() ^
                        (static_cast<std::uint64_t>(this->id()) << 40) ^
                        (part * 0x9e3779b97f4a7c15ULL);
    Rng rng(splitmix64(mix));
    return generator_(part, rng);
  }

  void charge(const std::vector<T>& out, TaskContext& ctx) const {
    const Bytes bytes = Bytes::of(est_bytes_all(out));
    if (charge_input_io_) {
      const dfs::IoCharge rd = this->context()->dfs().read_charge(bytes);
      ctx.charge_io(rd.seek);
      ctx.charge_disk_read(rd.disk);
      ctx.charge_cpu_ns(bytes.b() * ctx.costs().deserialize_cpu_ns_per_byte);
      ctx.charge_dep_writes(static_cast<double>(out.size()) *
                            ctx.costs().record_dep_writes);
      ctx.charge_stream_write(bytes);  // page cache -> executor heap
    } else {
      ctx.charge_cpu_ns(static_cast<double>(out.size()) *
                        ctx.costs().map_cpu_ns);
      ctx.charge_stream_write(bytes);
    }
  }

  std::size_t partitions_;
  Generator generator_;
  bool charge_input_io_;
};

// ---------------------------------------------------------------------------
// Narrow transformations
// ---------------------------------------------------------------------------

namespace detail {

/// What mapping `records` records one to one costs.
inline void charge_map(std::size_t records, TaskContext& ctx) {
  const auto n = static_cast<double>(records);
  ctx.charge_cpu_ns(n * ctx.costs().map_cpu_ns);
  ctx.charge_dep_reads(n * ctx.costs().record_dep_reads);
  ctx.charge_dep_writes(n * ctx.costs().record_dep_writes);
}

}  // namespace detail

template <typename T, typename U>
class MapRDD final : public RDD<U> {
 public:
  MapRDD(RddPtr<T> parent, std::function<U(const T&)> fn, std::string name)
      : RDD<U>(parent->context(), std::move(name)),
        parent_(std::move(parent)),
        fn_(std::move(fn)) {}

  std::size_t num_partitions() const override {
    return parent_->num_partitions();
  }
  std::vector<Dependency> dependencies() const override {
    return {Dependency::on(parent_)};
  }

  std::vector<U> compute(std::size_t part, TaskContext& ctx) const override {
    const PartitionView<T> view = parent_->view(part, ctx);
    const std::vector<T>& in = *view;
    std::vector<U> out;
    out.reserve(in.size());
    for (const T& x : in) out.push_back(fn_(x));
    detail::charge_map(in.size(), ctx);
    return out;
  }

  /// Maps only the kept records, but bills the whole partition as mapped.
  std::size_t compute_kept(std::size_t part, TaskContext& ctx,
                           const std::function<bool()>& keep,
                           std::vector<U>& out) const override {
    const PartitionView<T> view = parent_->view(part, ctx);
    for (const T& x : *view)
      if (keep()) out.push_back(fn_(x));
    detail::charge_map(view->size(), ctx);
    return view->size();
  }

 private:
  RddPtr<T> parent_;
  std::function<U(const T&)> fn_;
};

/// flatMap: the function appends each input record's outputs to the
/// partition's output vector.
template <typename T, typename U>
class FlatMapRDD final : public RDD<U> {
 public:
  using Fn = std::function<void(const T&, std::vector<U>&)>;

  FlatMapRDD(RddPtr<T> parent, Fn fn, std::string name)
      : RDD<U>(parent->context(), std::move(name)),
        parent_(std::move(parent)),
        fn_(std::move(fn)) {}

  std::size_t num_partitions() const override {
    return parent_->num_partitions();
  }
  std::vector<Dependency> dependencies() const override {
    return {Dependency::on(parent_)};
  }

  std::vector<U> compute(std::size_t part, TaskContext& ctx) const override {
    const PartitionView<T> view = parent_->view(part, ctx);
    const std::vector<T>& in = *view;
    std::vector<U> out;
    out.reserve(in.size());  // each input yields at least ~one record
    for (const T& x : in) fn_(x, out);
    ctx.charge_cpu_ns(static_cast<double>(in.size() + out.size()) *
                      ctx.costs().map_cpu_ns);
    ctx.charge_dep_reads(static_cast<double>(in.size() + out.size()) *
                         ctx.costs().record_dep_reads);
    ctx.charge_dep_writes(static_cast<double>(out.size()) *
                          ctx.costs().record_dep_writes);
    return out;
  }

 private:
  RddPtr<T> parent_;
  Fn fn_;
};

/// Whole-partition transformation (mapPartitions): the function sees all
/// records of a partition at once, read-only (a cached parent's block is
/// not copied), and charges through the context itself if it does more
/// than linear work.
template <typename T, typename U>
class MapPartitionsRDD final : public RDD<U> {
 public:
  using Fn =
      std::function<std::vector<U>(const std::vector<T>&, TaskContext&)>;

  MapPartitionsRDD(RddPtr<T> parent, Fn fn, std::string name)
      : RDD<U>(parent->context(), std::move(name)),
        parent_(std::move(parent)),
        fn_(std::move(fn)) {}

  std::size_t num_partitions() const override {
    return parent_->num_partitions();
  }
  std::vector<Dependency> dependencies() const override {
    return {Dependency::on(parent_)};
  }

  std::vector<U> compute(std::size_t part, TaskContext& ctx) const override {
    return fn_(*parent_->view(part, ctx), ctx);
  }

 private:
  RddPtr<T> parent_;
  Fn fn_;
};

/// Bernoulli sample of the parent.
template <typename T>
class SampleRDD final : public RDD<T> {
 public:
  SampleRDD(RddPtr<T> parent, double fraction)
      : RDD<T>(parent->context(), "sample"),
        parent_(std::move(parent)),
        fraction_(fraction) {
    TSX_CHECK(fraction >= 0.0 && fraction <= 1.0, "sample fraction in [0,1]");
  }

  std::size_t num_partitions() const override {
    return parent_->num_partitions();
  }
  std::vector<Dependency> dependencies() const override {
    return {Dependency::on(parent_)};
  }

  std::vector<T> compute(std::size_t part, TaskContext& ctx) const override {
    // Deterministic in (rdd, partition), independent of stage numbering.
    std::uint64_t mix = mix_for(part);
    Rng rng(splitmix64(mix));
    std::vector<T> out;
    const std::size_t n = parent_->compute_kept(
        part, ctx, [&] { return rng.bernoulli(fraction_); }, out);
    ctx.charge_cpu_ns(static_cast<double>(n) * ctx.costs().filter_cpu_ns);
    return out;
  }

 private:
  std::uint64_t mix_for(std::size_t part) const {
    return this->context()->job_seed() ^
           (static_cast<std::uint64_t>(this->id()) << 40) ^
           (part * 0x9e3779b97f4a7c15ULL);
  }

  RddPtr<T> parent_;
  double fraction_;
};

/// Cached RDD (persist(MEMORY_ONLY)). First computation stores the partition
/// in the block manager on the bound tier (charging a streaming write);
/// subsequent computations read it back (streaming read) without recomputing
/// the lineage. If the block cannot be cached, the lineage recomputes. A
/// view aliases the block's own buffer, which it keeps alive even if the
/// block is dropped meanwhile; compute() copies it.
template <typename T>
class CachedRDD final : public RDD<T> {
 public:
  explicit CachedRDD(RddPtr<T> parent)
      : RDD<T>(parent->context(), "cache:" + parent->name()),
        parent_(std::move(parent)) {}

  std::size_t num_partitions() const override {
    return parent_->num_partitions();
  }
  std::vector<Dependency> dependencies() const override {
    return {Dependency::on(parent_)};
  }

  std::vector<T> compute(std::size_t part, TaskContext& ctx) const override {
    return *view(part, ctx);
  }

  PartitionView<T> view(std::size_t part, TaskContext& ctx) const override {
    BlockManager& blocks = this->context()->block_manager();
    const BlockKey key{this->id(), part};
    if (BlockData hit = blocks.get(key)) {
      const Bytes size = blocks.size_of(key);
      // Cached partitions are unscaled host samples; the charge multiplier
      // in the context restores the virtual volume.
      ctx.charge_stream_read(size, StreamClass::kCache);
      ctx.charge_cpu_ns(size.b() * 0.02);  // object graph traversal
      return alias(std::move(hit));
    }
    auto block = std::make_shared<const std::any>(parent_->compute(part, ctx));
    PartitionView<T> data = alias(block);
    const Bytes size = Bytes::of(est_bytes_all(*data));
    ctx.charge_stream_write(size, StreamClass::kCache);
    blocks.put(key, std::move(block), size, ctx.executor_id());
    return data;
  }

 private:
  /// The block's vector, sharing the block's ownership.
  static PartitionView<T> alias(BlockData block) {
    const auto* data = &std::any_cast<const std::vector<T>&>(*block);
    return PartitionView<T>(std::move(block), data);
  }

  RddPtr<T> parent_;
};

// ---------------------------------------------------------------------------
// Factories
// ---------------------------------------------------------------------------

template <typename T>
RddPtr<T> parallelize(SparkContext& sc, std::vector<T> data,
                      std::size_t partitions) {
  return std::make_shared<ParallelCollectionRDD<T>>(&sc, std::move(data),
                                                    partitions);
}

template <typename T>
RddPtr<T> generate_rdd(SparkContext& sc, std::string name,
                       std::size_t partitions,
                       typename GenerateRDD<T>::Generator generator,
                       bool charge_input_io = true) {
  return std::make_shared<GenerateRDD<T>>(&sc, std::move(name), partitions,
                                          std::move(generator),
                                          charge_input_io);
}

// ---------------------------------------------------------------------------
// Fluent transformation helpers
// ---------------------------------------------------------------------------

template <typename T, typename F>
auto map_rdd(RddPtr<T> parent, F fn, std::string name = "map") {
  using U = std::invoke_result_t<F, const T&>;
  return std::static_pointer_cast<RDD<U>>(std::make_shared<MapRDD<T, U>>(
      std::move(parent), std::function<U(const T&)>(std::move(fn)),
      std::move(name)));
}

/// flatMap producing records of type `U`: `fn(x, out)` appends x's outputs
/// to `out`.
template <typename U, typename T>
RddPtr<U> flat_map_rdd(RddPtr<T> parent,
                       typename FlatMapRDD<T, U>::Fn fn,
                       std::string name = "flatMap") {
  return std::make_shared<FlatMapRDD<T, U>>(std::move(parent), std::move(fn),
                                            std::move(name));
}

template <typename U, typename T>
RddPtr<U> map_partitions_rdd(
    RddPtr<T> parent,
    typename MapPartitionsRDD<T, U>::Fn fn,
    std::string name = "mapPartitions") {
  return std::make_shared<MapPartitionsRDD<T, U>>(std::move(parent),
                                                  std::move(fn),
                                                  std::move(name));
}

template <typename T>
RddPtr<T> sample_rdd(RddPtr<T> parent, double fraction) {
  return std::make_shared<SampleRDD<T>>(std::move(parent), fraction);
}

template <typename T>
RddPtr<T> cache_rdd(RddPtr<T> parent) {
  return std::make_shared<CachedRDD<T>>(std::move(parent));
}

// ---------------------------------------------------------------------------
// Actions
// ---------------------------------------------------------------------------

/// collect(): materializes every partition at the driver.
template <typename T>
std::vector<T> collect(const RddPtr<T>& rdd, JobMetrics* metrics = nullptr) {
  const std::size_t parts = rdd->num_partitions();
  auto slots = std::make_shared<std::vector<std::vector<T>>>(parts);
  JobMetrics jm = rdd->context()->scheduler().run_job(
      rdd,
      [&rdd, slots](std::size_t p, TaskContext& ctx) {
        (*slots)[p] = rdd->compute(p, ctx);
        // Results serialize back to the driver.
        ctx.charge_cpu_ns(est_bytes_all((*slots)[p]) *
                          ctx.costs().serialize_cpu_ns_per_byte);
      },
      parts, "collect:" + rdd->name());
  if (metrics) *metrics = jm;
  std::size_t records = 0;
  for (const auto& slot : *slots) records += slot.size();
  std::vector<T> out;
  out.reserve(records);
  for (auto& slot : *slots)
    std::move(slot.begin(), slot.end(), std::back_inserter(out));
  return out;
}

/// count(): number of records.
template <typename T>
std::size_t count(const RddPtr<T>& rdd, JobMetrics* metrics = nullptr) {
  const std::size_t parts = rdd->num_partitions();
  auto counts = std::make_shared<std::vector<std::size_t>>(parts, 0);
  JobMetrics jm = rdd->context()->scheduler().run_job(
      rdd,
      [&rdd, counts](std::size_t p, TaskContext& ctx) {
        (*counts)[p] = rdd->view(p, ctx)->size();
      },
      parts, "count:" + rdd->name());
  if (metrics) *metrics = jm;
  return std::accumulate(counts->begin(), counts->end(), std::size_t{0});
}

/// reduce(): fold all records with an associative combiner. Throws on an
/// empty RDD, like Spark. The accumulator is passed as an rvalue, so a
/// combiner that takes it by value can add into it in place.
template <typename T, typename F>
T reduce(const RddPtr<T>& rdd, F combine, JobMetrics* metrics = nullptr) {
  const std::size_t parts = rdd->num_partitions();
  auto partials = std::make_shared<std::vector<std::optional<T>>>(parts);
  JobMetrics jm = rdd->context()->scheduler().run_job(
      rdd,
      [&rdd, &combine, partials](std::size_t p, TaskContext& ctx) {
        std::vector<T> data = rdd->compute(p, ctx);
        ctx.charge_cpu_ns(static_cast<double>(data.size()) *
                          ctx.costs().agg_cpu_ns);
        if (data.empty()) return;
        T acc = std::move(data.front());
        for (std::size_t i = 1; i < data.size(); ++i)
          acc = combine(std::move(acc), data[i]);
        (*partials)[p] = std::move(acc);
      },
      parts, "reduce:" + rdd->name());
  if (metrics) *metrics = jm;
  std::optional<T> acc;
  for (std::optional<T>& slot : *partials) {
    if (!slot) continue;
    if (acc)
      acc = combine(std::move(*acc), *slot);
    else
      acc = std::move(slot);
  }
  TSX_CHECK(acc.has_value(), "reduce of empty RDD");
  return std::move(*acc);
}

/// saveAsTextFile(): renders records with `format` and writes one DFS file.
/// `format(text, x)` appends record x's line to `text`. Each task
/// serializes its partition into one buffer of '\n'-terminated lines, and
/// the driver writes the file from those buffers. Charges the result tasks
/// with serialization cpu and DFS write I/O.
template <typename T, typename F>
void save_as_text_file(const RddPtr<T>& rdd, const std::string& path,
                       F format, JobMetrics* metrics = nullptr) {
  const std::size_t parts = rdd->num_partitions();
  auto slots = std::make_shared<std::vector<std::string>>(parts);
  dfs::Dfs& fs = rdd->context()->dfs();
  JobMetrics jm = rdd->context()->scheduler().run_job(
      rdd,
      [&rdd, &format, slots, &fs](std::size_t p, TaskContext& ctx) {
        const PartitionView<T> view = rdd->view(p, ctx);
        // Build locally and commit by assignment: task attempts must be
        // idempotent (a retry or speculative duplicate replaces — never
        // extends — a failed attempt's partial output).
        std::string text;
        for (const T& x : *view) {
          format(text, x);
          text += '\n';
        }
        const auto bytes = static_cast<double>(text.size());
        ctx.charge_cpu_ns(bytes * ctx.costs().serialize_cpu_ns_per_byte);
        ctx.charge_stream_read(Bytes::of(bytes));
        const dfs::IoCharge wr = fs.write_charge(Bytes::of(bytes));
        ctx.charge_io(wr.seek);
        ctx.charge_disk_write(wr.disk);
        (*slots)[p] = std::move(text);
      },
      parts, "saveAsTextFile:" + rdd->name());
  if (metrics) *metrics = jm;
  fs.write_parts(path, std::move(*slots));
}

}  // namespace tsx::spark
