#include "columnar/query.hpp"

#include <algorithm>
#include <any>
#include <cmath>
#include <memory>
#include <utility>

#include "core/error.hpp"
#include "core/strings.hpp"
#include "spark/context.hpp"
#include "spark/pair_rdd.hpp"
#include "spark/shuffle.hpp"
#include "spark/task.hpp"

namespace tsx::columnar {

using Op = Query::Op;
using Kind = Query::Op::Kind;

// ---------------------------------------------------------------------------
// Query builder
// ---------------------------------------------------------------------------

Query Query::scan(ScanSpec spec) {
  TSX_CHECK(spec.partitions > 0, "scan needs at least one partition");
  TSX_CHECK(spec.generate != nullptr, "scan needs a generator");
  Query q;
  Op op;
  op.kind = Kind::kScan;
  op.label = spec.label;
  op.partitions = spec.partitions;
  op.scan = std::move(spec);
  q.ops_.push_back(std::move(op));
  return q;
}

Query Query::scan_store(int store, std::size_t partitions, std::string label) {
  TSX_CHECK(partitions > 0, "store scan needs at least one partition");
  Query q;
  Op op;
  op.kind = Kind::kScanStore;
  op.label = std::move(label);
  op.store = store;
  op.partitions = partitions;
  q.ops_.push_back(std::move(op));
  return q;
}

Query& Query::filter_i64(int col, CmpOp cmp, std::int64_t bound) {
  Op op;
  op.kind = Kind::kFilterI64;
  op.col = col;
  op.cmp = cmp;
  op.i64_bound = bound;
  ops_.push_back(std::move(op));
  return *this;
}

Query& Query::filter_f64(int col, CmpOp cmp, double bound) {
  Op op;
  op.kind = Kind::kFilterF64;
  op.col = col;
  op.cmp = cmp;
  op.f64_bound = bound;
  ops_.push_back(std::move(op));
  return *this;
}

Query& Query::project_scale(int col, double mul, double add) {
  Op op;
  op.kind = Kind::kProjectScale;
  op.col = col;
  op.mul = mul;
  op.add = add;
  ops_.push_back(std::move(op));
  return *this;
}

Query& Query::transform(std::string label, TransformFn fn) {
  Op op;
  op.kind = Kind::kTransform;
  op.label = std::move(label);
  op.fn = std::move(fn);
  ops_.push_back(std::move(op));
  return *this;
}

Query& Query::join_store(int store, int probe_col, int build_col,
                         std::string label) {
  Op op;
  op.kind = Kind::kJoinStore;
  op.label = std::move(label);
  op.store = store;
  op.col = probe_col;
  op.build_col = build_col;
  ops_.push_back(std::move(op));
  return *this;
}

Query& Query::repartition_by_key(int key_col, std::size_t partitions,
                                 KeyPartitionFn fn, bool sort_by_key) {
  Op op;
  op.kind = Kind::kRepartition;
  op.key_col = key_col;
  op.partitions = partitions;
  op.part_fn = std::move(fn);
  op.sort_output = sort_by_key;
  ops_.push_back(std::move(op));
  return *this;
}

Query& Query::aggregate_sum(int key_col, int val_col, std::size_t partitions,
                            KeyPartitionFn fn) {
  Op op;
  op.kind = Kind::kAggregateSum;
  op.key_col = key_col;
  op.val_col = val_col;
  op.partitions = partitions;
  op.part_fn = std::move(fn);
  ops_.push_back(std::move(op));
  return *this;
}

Query& Query::sort_by_bytes(int col, std::size_t key_width,
                            std::size_t partitions) {
  Op op;
  op.kind = Kind::kSortBytes;
  op.col = col;
  op.key_width = key_width;
  op.partitions = partitions;
  ops_.push_back(std::move(op));
  return *this;
}

Query& Query::sink(std::string label, SinkFn fn) {
  Op op;
  op.kind = Kind::kSink;
  op.label = std::move(label);
  op.sink_fn = std::move(fn);
  ops_.push_back(std::move(op));
  return *this;
}

// ---------------------------------------------------------------------------
// Batch plumbing helpers
// ---------------------------------------------------------------------------

namespace {

/// Ledger-only kernel record: bills nothing to the task (the caller already
/// charged through the row-parity seam), but itemizes the kernel's touched
/// bytes so the run report decomposes traffic per operator family.
void note_kernel(KernelCtx& kc, KernelKind kind, double rows_in,
                 double rows_out, double bytes_read, double bytes_written) {
  KernelStats& lg = kc.delta.kernel(kind);
  ++lg.invocations;
  lg.rows_in += static_cast<std::uint64_t>(rows_in);
  lg.rows_out += static_cast<std::uint64_t>(rows_out);
  lg.bytes_read += Bytes::of(bytes_read);
  lg.bytes_written += Bytes::of(bytes_written);
}

/// Concatenates same-schema chunks into one. Dictionary columns decode to
/// plain strings (dictionaries are chunk-local; merging them across chunks
/// would need code remapping).
Chunk concat_chunks(std::vector<Chunk> chunks) {
  if (chunks.empty()) return Chunk{};
  if (chunks.size() == 1) return std::move(chunks.front());
  Chunk out;
  for (const Chunk& c : chunks) out.rows += c.rows;
  const std::size_t ncols = chunks.front().cols.size();
  out.cols.reserve(ncols);
  for (std::size_t j = 0; j < ncols; ++j) {
    const ColType type = chunks.front().cols[j].type;
    Column col;
    bool any_null = false;
    for (const Chunk& c : chunks)
      if (!c.cols[j].validity.empty()) any_null = true;
    if (type == ColType::kI64) {
      col.type = ColType::kI64;
      col.i64.reserve(out.rows);
      for (const Chunk& c : chunks)
        col.i64.insert(col.i64.end(), c.cols[j].i64.begin(),
                       c.cols[j].i64.end());
    } else if (type == ColType::kF64) {
      col.type = ColType::kF64;
      col.f64.reserve(out.rows);
      for (const Chunk& c : chunks)
        col.f64.insert(col.f64.end(), c.cols[j].f64.begin(),
                       c.cols[j].f64.end());
    } else {
      StrBuilder sb;
      for (const Chunk& c : chunks) {
        const Column& in = c.cols[j];
        for (std::size_t i = 0; i < c.rows; ++i) {
          if (any_null && !in.is_valid(i))
            sb.append_null();
          else
            sb.append(in.str(i));
        }
      }
      col = sb.seal();
      out.cols.push_back(std::move(col));
      continue;
    }
    if (any_null) {
      col.ensure_validity(out.rows);
      std::size_t base = 0;
      for (const Chunk& c : chunks) {
        const Column& in = c.cols[j];
        for (std::size_t i = 0; i < c.rows; ++i)
          if (!in.is_valid(i)) col.set_null(base + i);
        base += c.rows;
      }
    }
    out.cols.push_back(std::move(col));
  }
  return out;
}

/// Materializes the selected rows of every column.
Chunk gather_chunk(const Chunk& in, const SelVec& sel) {
  Chunk out;
  out.rows = sel.size;
  out.cols.reserve(in.cols.size());
  for (const Column& col : in.cols) out.cols.push_back(gather(col, sel));
  return out;
}

double chunk_bytes(const Chunk& c) { return c.byte_size().b(); }

double chunks_bytes(const std::vector<Chunk>& chunks) {
  double total = 0.0;
  for (const Chunk& c : chunks) total += chunk_bytes(c);
  return total;
}

double chunks_rows(const std::vector<Chunk>& chunks) {
  double total = 0.0;
  for (const Chunk& c : chunks) total += static_cast<double>(c.rows);
  return total;
}

// ---------------------------------------------------------------------------
// Fused narrow-operator pipeline
// ---------------------------------------------------------------------------

/// Applies ops[start..) (all narrow) to the partition's chunks. Consecutive
/// filters chain selection vectors and materialize once at the end of the
/// run — the materializing gather bills as a kProject (that is literally
/// what it is: a projection of all columns through the selection).
void apply_narrow(std::size_t part, std::vector<Chunk>& chunks,
                  const std::vector<Op>& ops, std::size_t start,
                  KernelCtx& kc, Runtime& rt) {
  const spark::CostModel& c = kc.task.costs();
  for (std::size_t i = start; i < ops.size(); ++i) {
    const Op& op = ops[i];
    switch (op.kind) {
      case Kind::kFilterI64:
      case Kind::kFilterF64: {
        std::size_t j = i;
        while (j < ops.size() && (ops[j].kind == Kind::kFilterI64 ||
                                  ops[j].kind == Kind::kFilterF64))
          ++j;
        for (Chunk& chunk : chunks) {
          SelVec sel;
          bool have = false;
          for (std::size_t k = i; k < j; ++k) {
            const Op& f = ops[k];
            const double rows_in =
                have ? static_cast<double>(sel.size)
                     : static_cast<double>(chunk.rows);
            sel = f.kind == Kind::kFilterI64
                      ? filter_i64(kc.arena, chunk.cols[f.col], f.cmp,
                                   f.i64_bound, have ? &sel : nullptr)
                      : filter_f64(kc.arena, chunk.cols[f.col], f.cmp,
                                   f.f64_bound, have ? &sel : nullptr);
            have = true;
            kc.charge(KernelKind::kFilter, rows_in,
                      static_cast<double>(sel.size), Bytes::of(rows_in * 8.0),
                      Bytes{}, spark::StreamClass::kHeap,
                      rows_in * c.filter_cpu_ns);
          }
          const double in_bytes = chunk_bytes(chunk);
          Chunk dense = gather_chunk(chunk, sel);
          kc.charge(KernelKind::kProject, static_cast<double>(sel.size),
                    static_cast<double>(sel.size), Bytes::of(in_bytes),
                    Bytes::of(chunk_bytes(dense)), spark::StreamClass::kHeap,
                    static_cast<double>(sel.size) * c.map_cpu_ns);
          chunk = std::move(dense);
        }
        i = j - 1;
        break;
      }
      case Kind::kProjectScale: {
        for (Chunk& chunk : chunks) {
          const double in_bytes = chunk.cols[op.col].byte_size();
          chunk.cols[op.col] =
              project_scale_f64(chunk.cols[op.col], op.mul, op.add);
          kc.charge(KernelKind::kProject, static_cast<double>(chunk.rows),
                    static_cast<double>(chunk.rows), Bytes::of(in_bytes),
                    Bytes::of(chunk.cols[op.col].byte_size()),
                    spark::StreamClass::kHeap,
                    static_cast<double>(chunk.rows) * c.map_cpu_ns);
        }
        break;
      }
      case Kind::kTransform: {
        chunks = op.fn(part, std::move(chunks), kc);
        break;
      }
      case Kind::kJoinStore: {
        const std::vector<Chunk>& build_chunks =
            rt.store_read(op.store, part, kc.task, kc.delta);
        Chunk bc = concat_chunks(build_chunks);
        Chunk pc = concat_chunks(std::move(chunks));
        TSX_CHECK(bc.cols.size() > static_cast<std::size_t>(op.build_col) &&
                      pc.cols.size() > static_cast<std::size_t>(op.col),
                  "join key column out of range");
        const JoinResult jr =
            hash_join(kc.arena, bc.cols[op.build_col].i64.data(), bc.rows,
                      pc.cols[op.col].i64.data(), pc.rows);
        const SelVec psel{jr.probe_rows, jr.size};
        const SelVec bsel{jr.build_rows, jr.size};
        Chunk out;
        out.rows = jr.size;
        out.cols.reserve(pc.cols.size() + bc.cols.size());
        for (const Column& col : pc.cols) out.cols.push_back(gather(col, psel));
        for (const Column& col : bc.cols) out.cols.push_back(gather(col, bsel));
        const double bn = static_cast<double>(bc.rows);
        const double pn = static_cast<double>(pc.rows);
        kc.task.charge_dep_writes(bn * c.hash_insert_dep_writes);
        kc.task.charge_dep_reads(pn * c.hash_probe_dep_reads);
        kc.charge(KernelKind::kJoin, bn + pn, static_cast<double>(jr.size),
                  Bytes::of(chunk_bytes(bc) + chunk_bytes(pc)),
                  Bytes::of(chunk_bytes(out)), spark::StreamClass::kHeap,
                  bn * c.hash_cpu_ns + pn * (c.hash_cpu_ns + c.agg_cpu_ns));
        chunks.clear();
        chunks.push_back(std::move(out));
        break;
      }
      default:
        TSX_CHECK(false, "operator not valid mid-pipeline");
    }
  }
}

// ---------------------------------------------------------------------------
// RDD nodes
// ---------------------------------------------------------------------------

/// One fused stage segment: an optional source (generator scan or batch
/// store scan) followed by a run of narrow operators, applied per task with
/// a leased arena.
class ChunkRdd final : public spark::RDD<Chunk> {
 public:
  ChunkRdd(spark::SparkContext* sc, Runtime* rt, spark::RddPtr<Chunk> parent,
           std::vector<Op> ops, std::string name)
      : spark::RDD<Chunk>(sc, std::move(name)),
        rt_(rt),
        parent_(std::move(parent)),
        ops_(std::move(ops)) {
    if (parent_ == nullptr) {
      TSX_CHECK(!ops_.empty() && (ops_.front().kind == Kind::kScan ||
                                  ops_.front().kind == Kind::kScanStore),
                "source segment must start with a scan");
      partitions_ = ops_.front().partitions;
    } else {
      partitions_ = parent_->num_partitions();
    }
  }

  std::size_t num_partitions() const override { return partitions_; }
  std::vector<spark::Dependency> dependencies() const override {
    if (parent_ == nullptr) return {};
    return {spark::Dependency::on(parent_)};
  }

  std::vector<Chunk> compute(std::size_t part,
                             spark::TaskContext& ctx) const override {
    Runtime::ArenaLease lease = rt_->lease_arena();
    KernelCtx kc(ctx, *lease, rt_->config(), rt_->context().obs() != nullptr);
    std::vector<Chunk> chunks;
    std::size_t start = 0;
    if (parent_ == nullptr) {
      const Op& src = ops_.front();
      start = 1;
      if (src.kind == Kind::kScan) {
        // Same seeding discipline as GenerateRDD: stable in (rdd, part).
        std::uint64_t mix = this->context()->job_seed() ^
                            (static_cast<std::uint64_t>(this->id()) << 40) ^
                            (part * 0x9e3779b97f4a7c15ULL);
        Rng rng(splitmix64(mix));
        chunks = src.scan.generate(part, rng);
        const double rows = chunks_rows(chunks);
        const Bytes bytes = Bytes::of(chunks_bytes(chunks));
        if (src.scan.charge_input_io) {
          const dfs::IoCharge rd = this->context()->dfs().read_charge(bytes);
          ctx.charge_io(rd.seek);
          ctx.charge_disk_read(rd.disk);
          ctx.charge_cpu_ns(bytes.b() * ctx.costs().deserialize_cpu_ns_per_byte);
          ctx.charge_dep_writes(rows * ctx.costs().record_dep_writes);
          ctx.charge_stream_write(bytes);  // page cache -> executor heap
        } else {
          ctx.charge_cpu_ns(rows * ctx.costs().map_cpu_ns);
          ctx.charge_stream_write(bytes);
        }
        note_kernel(kc, KernelKind::kScan, rows, rows, 0.0, bytes.b());
        kc.delta.batches += chunks.size();
      } else {
        chunks = rt_->store_read(src.store, part, ctx, kc.delta);
      }
    } else {
      chunks = parent_->compute(part, ctx);
    }
    apply_narrow(part, chunks, ops_, start, kc, *rt_);
    rt_->commit_task(kc);
    return chunks;
  }

 private:
  Runtime* rt_;
  spark::RddPtr<Chunk> parent_;
  std::vector<Op> ops_;
  std::size_t partitions_ = 0;
};

/// Map side of a columnar exchange. Scatters the partition's rows into
/// per-reduce bucket chunks (order-preserving), with map-side combine for
/// aggregate exchanges, then bills through the same shuffle-write seam as
/// the row-path dependencies.
class ChunkShuffleDep final : public spark::ShuffleDependencyBase {
 public:
  ChunkShuffleDep(spark::RddPtr<Chunk> parent, std::size_t reduce_partitions,
                  Runtime* rt, Op op,
                  std::shared_ptr<std::vector<std::string>> bounds)
      : spark::ShuffleDependencyBase(
            parent->context()->shuffle_store().register_shuffle(
                parent->num_partitions(), reduce_partitions),
            parent, reduce_partitions),
        typed_parent_(std::move(parent)),
        rt_(rt),
        op_(std::move(op)),
        bounds_(std::move(bounds)) {}

  void run_map_task(std::size_t map_part,
                    spark::TaskContext& ctx) const override {
    std::vector<Chunk> chunks = typed_parent_->compute(map_part, ctx);
    Runtime::ArenaLease lease = rt_->lease_arena();
    KernelCtx kc(ctx, *lease, rt_->config(), rt_->context().obs() != nullptr);
    const spark::CostModel& c = ctx.costs();
    const bool zero_copy = typed_parent_->context()->conf().zero_copy_shuffle;
    spark::ShuffleStore& store = typed_parent_->context()->shuffle_store();

    Chunk in = concat_chunks(std::move(chunks));
    const std::size_t n = in.rows;
    const double in_bytes = chunk_bytes(in);

    double records_written = 0.0;
    double bytes_written = 0.0;
    std::vector<Chunk> buckets(reduce_partitions_);
    if (op_.kind == Kind::kAggregateSum) {
      // Map-side combine before partitioning: one hash aggregate over the
      // whole partition (per-key accumulation in record order — the same
      // floating-point reduction as the row engine's record-order
      // unordered_map combine), then the far smaller group list scatters
      // into buckets. Keys never straddle buckets and appear at most once
      // per bucket, so bucket-internal order is free: the reduce side
      // re-aggregates in map order and emits sorted, so partials skip the
      // sort and go out in deterministic table-scan order.
      const Column& kcol = in.cols[op_.key_col];
      const Column& vcol = in.cols[op_.val_col];
      const AggResult ar = agg_sum(
          kc.arena, kcol.i64.data(), vcol.f64.data(), n,
          kcol.validity.empty() ? nullptr : kcol.validity.data(),
          vcol.validity.empty() ? nullptr : vcol.validity.data(),
          /*emit_sorted=*/false);
      const std::size_t groups = ar.keys.size();
      auto* pid = kc.arena.alloc_array<std::uint32_t>(groups);
      for (std::size_t g = 0; g < groups; ++g) {
        const std::uint64_t bucket =
            op_.part_fn ? op_.part_fn(ar.keys[g])
                        : static_cast<std::uint64_t>(ar.keys[g]);
        pid[g] = static_cast<std::uint32_t>(bucket % reduce_partitions_);
      }
      const Scatter sg = scatter_by_partition(kc.arena, pid, groups,
                                              reduce_partitions_);
      for (std::size_t r = 0; r < reduce_partitions_; ++r) {
        const std::size_t cnt = sg.offsets[r + 1] - sg.offsets[r];
        if (cnt == 0) continue;
        std::vector<std::int64_t> bk(cnt);
        std::vector<double> bv(cnt);
        for (std::size_t t = 0; t < cnt; ++t) {
          const std::uint32_t g = sg.rows[sg.offsets[r] + t];
          bk[t] = ar.keys[g];
          bv[t] = ar.sums[g];
        }
        Chunk bucket;
        bucket.rows = cnt;
        bucket.cols.push_back(Column::make_i64(std::move(bk)));
        bucket.cols.push_back(Column::make_f64(std::move(bv)));
        buckets[r] = std::move(bucket);
      }
      const double dn = static_cast<double>(n);
      ctx.charge_cpu_ns(dn * (c.hash_cpu_ns + c.agg_cpu_ns));
      ctx.charge_dep_reads(dn * c.hash_probe_dep_reads);
      ctx.charge_dep_writes(static_cast<double>(groups) *
                            c.hash_insert_dep_writes);
      for (const Chunk& b : buckets) {
        records_written += static_cast<double>(b.rows);
        bytes_written += chunk_bytes(b);
      }
      note_kernel(kc, KernelKind::kAggregate, dn, records_written,
                  kcol.byte_size() + vcol.byte_size(), bytes_written);
    } else {
      auto* pid = kc.arena.alloc_array<std::uint32_t>(n);
      if (op_.kind == Kind::kSortBytes) {
        const Column& col = in.cols[op_.col];
        const std::vector<std::string>& bounds = *bounds_;
        for (std::size_t i = 0; i < n; ++i) {
          std::string_view sv = col.str(i);
          sv = sv.substr(0, std::min(op_.key_width, sv.size()));
          pid[i] = static_cast<std::uint32_t>(
              std::upper_bound(bounds.begin(), bounds.end(), sv) -
              bounds.begin());
        }
      } else {
        const std::vector<std::int64_t>& keys = in.cols[op_.key_col].i64;
        for (std::size_t i = 0; i < n; ++i) {
          const std::uint64_t bucket =
              op_.part_fn ? op_.part_fn(keys[i])
                          : static_cast<std::uint64_t>(keys[i]);
          pid[i] = static_cast<std::uint32_t>(bucket % reduce_partitions_);
        }
      }
      const Scatter sc = scatter_by_partition(kc.arena, pid, n,
                                              reduce_partitions_);
      for (std::size_t r = 0; r < reduce_partitions_; ++r) {
        const std::size_t cnt = sc.offsets[r + 1] - sc.offsets[r];
        if (cnt == 0) continue;
        const SelVec sel{sc.rows + sc.offsets[r], cnt};
        buckets[r] = gather_chunk(in, sel);
        records_written += static_cast<double>(cnt);
        bytes_written += chunk_bytes(buckets[r]);
      }
      note_kernel(kc, KernelKind::kPartition, static_cast<double>(n),
                  records_written, in_bytes, bytes_written);
    }
    spark::detail::charge_shuffle_write(ctx, records_written, bytes_written,
                                        zero_copy);
    kc.delta.batches += reduce_partitions_;
    for (std::size_t r = 0; r < reduce_partitions_; ++r) {
      const Bytes size = buckets[r].byte_size();
      store.put_bucket(shuffle_id_, map_part, r,
                       std::any(std::move(buckets[r])), size,
                       ctx.executor_id());
    }
    rt_->commit_task(kc);
  }

  const Op& op() const { return op_; }

 private:
  spark::RddPtr<Chunk> typed_parent_;
  Runtime* rt_;
  Op op_;
  std::shared_ptr<std::vector<std::string>> bounds_;
};

/// Reduce side of a columnar exchange: fetches bucket chunks in map order
/// (same fetch accounting as the row shuffles), then merges / sorts.
class ShuffledChunkRdd final : public spark::RDD<Chunk> {
 public:
  ShuffledChunkRdd(spark::SparkContext* sc,
                   std::shared_ptr<ChunkShuffleDep> dep, Runtime* rt,
                   std::string name)
      : spark::RDD<Chunk>(sc, std::move(name)),
        dep_(std::move(dep)),
        rt_(rt) {}

  std::size_t num_partitions() const override {
    return dep_->reduce_partitions();
  }
  std::vector<spark::Dependency> dependencies() const override {
    return {spark::Dependency::via(dep_)};
  }

  std::vector<Chunk> compute(std::size_t part,
                             spark::TaskContext& ctx) const override {
    spark::ShuffleStore& store = this->context()->shuffle_store();
    const std::size_t maps = store.map_partitions(dep_->shuffle_id());
    const std::size_t executors = this->context()->executors().size();
    const Op& op = dep_->op();
    std::vector<Chunk> got;
    {
      spark::detail::ShuffleFetchAccount fetch(
          ctx, part, executors, this->context()->conf().zero_copy_shuffle);
      for (std::size_t m = 0; m < maps; ++m) {
        const std::any& cell =
            store.fetch_bucket(dep_->shuffle_id(), m, part, ctx);
        TSX_CHECK(cell.has_value(), "missing columnar shuffle bucket");
        const auto& bucket = std::any_cast<const Chunk&>(cell);
        fetch.add_bucket(m, static_cast<double>(bucket.rows),
                         store.bucket_size(dep_->shuffle_id(), m, part).b());
        if (bucket.rows > 0) got.push_back(bucket);
      }
    }
    if (got.empty()) return {};

    Runtime::ArenaLease lease = rt_->lease_arena();
    KernelCtx kc(ctx, *lease, rt_->config(), rt_->context().obs() != nullptr);
    const spark::CostModel& c = ctx.costs();
    std::vector<Chunk> out;

    if (op.kind == Kind::kRepartition && !op.sort_output) {
      out = std::move(got);
    } else if (op.kind == Kind::kAggregateSum) {
      // Merge the pre-combined buckets in map order: concatenating the
      // partials and re-running the record-order aggregate reproduces the
      // row engine's fold over buckets exactly (each key appears at most
      // once per bucket, so array order *is* bucket order).
      std::size_t total = 0;
      for (const Chunk& b : got) total += b.rows;
      auto* mk = kc.arena.alloc_array<std::int64_t>(total);
      auto* mv = kc.arena.alloc_array<double>(total);
      std::size_t at = 0;
      for (const Chunk& b : got) {
        std::copy(b.cols[0].i64.begin(), b.cols[0].i64.end(), mk + at);
        std::copy(b.cols[1].f64.begin(), b.cols[1].f64.end(), mv + at);
        at += b.rows;
      }
      AggResult ar = agg_sum(kc.arena, mk, mv, total);
      const double dn = static_cast<double>(total);
      const double groups = static_cast<double>(ar.keys.size());
      ctx.charge_cpu_ns(dn * (c.hash_cpu_ns + c.agg_cpu_ns));
      ctx.charge_dep_reads(dn * c.hash_probe_dep_reads);
      ctx.charge_dep_writes(groups * c.hash_insert_dep_writes);
      Chunk merged;
      merged.rows = ar.keys.size();
      merged.cols.push_back(Column::make_i64(std::move(ar.keys)));
      merged.cols.push_back(Column::make_f64(std::move(ar.sums)));
      note_kernel(kc, KernelKind::kAggregate, dn, groups,
                  chunks_bytes(got), chunk_bytes(merged));
      out.push_back(std::move(merged));
    } else {
      // Sorted gather: one dense chunk ordered by the exchange key.
      Chunk in = concat_chunks(std::move(got));
      const std::size_t n = in.rows;
      const std::uint32_t* idx = nullptr;
      if (op.kind == Kind::kSortBytes) {
        const Column& col = in.cols[op.col];
        idx = sort_indices_by_bytes(kc.arena, col.bytes.data(),
                                    col.codes.data(), n, op.key_width);
      } else {
        auto* order = kc.arena.alloc_array<std::uint32_t>(n);
        for (std::size_t i = 0; i < n; ++i)
          order[i] = static_cast<std::uint32_t>(i);
        const std::vector<std::int64_t>& keys = in.cols[op.key_col].i64;
        std::stable_sort(order, order + n,
                         [&keys](std::uint32_t a, std::uint32_t b) {
                           return keys[a] < keys[b];
                         });
        idx = order;
      }
      const double dn = static_cast<double>(n);
      const double comparisons = n > 1 ? dn * std::log2(dn) : 0.0;
      ctx.charge_cpu_ns(comparisons * c.compare_cpu_ns);
      ctx.charge_dep_reads(comparisons * c.sort_miss_fraction);
      ctx.charge_dep_writes(dn * 0.4);  // merge-phase record placement
      Chunk sorted = gather_chunk(in, SelVec{idx, n});
      note_kernel(kc, KernelKind::kSort, dn, dn, chunk_bytes(in),
                  chunk_bytes(sorted));
      out.push_back(std::move(sorted));
    }
    rt_->commit_task(kc);
    return out;
  }

 private:
  std::shared_ptr<ChunkShuffleDep> dep_;
  Runtime* rt_;
};

// ---------------------------------------------------------------------------
// Plan rendering
// ---------------------------------------------------------------------------

const char* cmp_name(CmpOp op) {
  switch (op) {
    case CmpOp::kLt: return "<";
    case CmpOp::kLe: return "<=";
    case CmpOp::kGt: return ">";
    case CmpOp::kGe: return ">=";
    case CmpOp::kEq: return "==";
    case CmpOp::kNe: return "!=";
  }
  return "?";
}

std::string parts_name(std::size_t parts) {
  return parts == 0 ? std::string("auto") : strfmt("%zu", parts);
}

std::string op_describe(const Op& op) {
  switch (op.kind) {
    case Kind::kScan:
      return strfmt("scan[%s x%zu]", op.label.c_str(), op.partitions);
    case Kind::kScanStore:
      return strfmt("scanStore[%s #%d x%zu]", op.label.c_str(), op.store,
                    op.partitions);
    case Kind::kFilterI64:
      return strfmt("filter(c%d %s %lld)", op.col, cmp_name(op.cmp),
                    static_cast<long long>(op.i64_bound));
    case Kind::kFilterF64:
      return strfmt("filter(c%d %s %g)", op.col, cmp_name(op.cmp),
                    op.f64_bound);
    case Kind::kProjectScale:
      return strfmt("project(c%d*%g%+g)", op.col, op.mul, op.add);
    case Kind::kTransform:
      return strfmt("transform[%s]", op.label.c_str());
    case Kind::kJoinStore:
      return strfmt("join[%s #%d on c%d=c%d]", op.label.c_str(), op.store,
                    op.col, op.build_col);
    case Kind::kRepartition:
      return strfmt("exchange[hash c%d -> %s%s]", op.key_col,
                    parts_name(op.partitions).c_str(),
                    op.sort_output ? " sorted" : "");
    case Kind::kAggregateSum:
      return strfmt("exchange[sum c%d by c%d -> %s]", op.val_col, op.key_col,
                    parts_name(op.partitions).c_str());
    case Kind::kSortBytes:
      return strfmt("exchange[sortBytes c%d w%zu -> %s]", op.col,
                    op.key_width, parts_name(op.partitions).c_str());
    case Kind::kSink:
      return strfmt("sink[%s]", op.label.c_str());
  }
  return "?";
}

std::vector<std::string> render_plan(const std::vector<Op>& ops) {
  std::vector<std::string> lines;
  std::string stage;
  int stage_index = 0;
  auto flush = [&] {
    if (stage.empty()) return;
    lines.push_back(strfmt("stage %d: ", stage_index++) + stage);
    stage.clear();
  };
  for (const Op& op : ops) {
    if (op.is_exchange()) {
      flush();
      stage = op_describe(op);
      continue;
    }
    if (!stage.empty()) stage += " | ";
    stage += op_describe(op);
  }
  flush();
  return lines;
}

/// What the sort pre-pass produced: range bounds for the exchange plus the
/// staging store holding the already-computed source batches.
struct SortStage {
  std::shared_ptr<std::vector<std::string>> bounds;
  int store = -1;
  std::size_t partitions = 0;
};

/// Samples key prefixes from the pre-exchange RDD (its own scheduler job,
/// like sort_by_key's range-bound sampling) and derives parts-1 ascending
/// bounds via quantiles. Unlike the row engine — which recomputes the
/// lineage for the shuffle after sampling it — the sampled batches are
/// staged in a Runtime store, so the exchange map stage re-reads sealed
/// chunks through the cache stream class instead of re-running the scan:
/// the columnar staging advantage the batch stores exist for.
SortStage stage_and_sample_sort(Runtime& rt, const spark::RddPtr<Chunk>& src,
                                const Op& op, std::size_t parts,
                                const std::string& name, int segment,
                                std::vector<spark::JobMetrics>& jobs) {
  spark::SparkContext& sc = rt.context();
  const std::size_t in_parts = src->num_partitions();
  auto samples =
      std::make_shared<std::vector<std::vector<std::string>>>(in_parts);
  auto staged = std::make_shared<std::vector<std::vector<Chunk>>>(in_parts);
  const int col = op.col;
  const std::size_t width = op.key_width;
  jobs.push_back(sc.scheduler().run_job(
      src,
      [src, samples, staged, col, width](std::size_t p,
                                         spark::TaskContext& ctx) {
        std::vector<Chunk> chunks = src->compute(p, ctx);
        std::vector<std::string> out;
        for (const Chunk& chunk : chunks) {
          const Column& keys = chunk.cols[col];
          for (std::size_t i = 0; i < chunk.rows; i += 10) {
            std::string_view sv = keys.str(i);
            out.emplace_back(sv.substr(0, std::min(width, sv.size())));
          }
        }
        ctx.charge_cpu_ns(static_cast<double>(out.size()) *
                          ctx.costs().map_cpu_ns);
        (*samples)[p] = std::move(out);
        (*staged)[p] = std::move(chunks);
      },
      in_parts, "query:" + name + ":sample"));
  SortStage stage;
  stage.partitions = in_parts;
  stage.store =
      rt.create_store(strfmt("query:%s:stage%d", name.c_str(), segment));
  for (std::size_t p = 0; p < in_parts; ++p)
    rt.store_put(stage.store, p, std::move((*staged)[p]));
  std::vector<std::string> all;
  for (std::vector<std::string>& s : *samples)
    for (std::string& key : s) all.push_back(std::move(key));
  std::sort(all.begin(), all.end());
  stage.bounds = std::make_shared<std::vector<std::string>>();
  for (std::size_t i = 1; i < parts && !all.empty(); ++i) {
    const std::size_t at = std::min(all.size() - 1, i * all.size() / parts);
    if (stage.bounds->empty() || all[at] > stage.bounds->back())
      stage.bounds->push_back(all[at]);
  }
  return stage;
}

}  // namespace

// ---------------------------------------------------------------------------
// Planner
// ---------------------------------------------------------------------------

std::string explain(const Query& query) {
  std::string out;
  for (const std::string& line : render_plan(query.ops())) {
    out += line;
    out += '\n';
  }
  return out;
}

QueryResult execute(Runtime& rt, const Query& query, const std::string& name) {
  spark::SparkContext& sc = rt.context();
  const std::vector<Op>& ops = query.ops();
  TSX_CHECK(!ops.empty() && (ops.front().kind == Kind::kScan ||
                             ops.front().kind == Kind::kScanStore),
            "query must begin with a scan");
  bool seen_sink = false;
  for (std::size_t i = 1; i < ops.size(); ++i) {
    TSX_CHECK(ops[i].kind != Kind::kScan && ops[i].kind != Kind::kScanStore,
              "scan is only valid as the first operator");
    TSX_CHECK(!seen_sink || ops[i].kind == Kind::kSink,
              "sinks are only valid at the tail of the plan");
    seen_sink = seen_sink || ops[i].kind == Kind::kSink;
  }

  QueryResult result;
  const std::vector<std::string> plan_lines = render_plan(ops);
  for (const std::string& line : plan_lines) {
    result.plan += line;
    result.plan += '\n';
  }
  rt.driver_stats().queries += 1;
  rt.driver_stats().stages_planned += plan_lines.size();

  spark::RddPtr<Chunk> current;
  std::vector<Op> pending;
  std::vector<Op> sinks;
  std::vector<int> staging_stores;
  int segment = 0;
  const auto flush = [&] {
    if (current != nullptr && pending.empty()) return;
    current = std::make_shared<ChunkRdd>(
        &sc, &rt, current, std::move(pending),
        strfmt("query:%s:seg%d", name.c_str(), segment++));
    pending.clear();
  };
  for (const Op& op : ops) {
    if (op.kind == Kind::kSink) {
      sinks.push_back(op);
      continue;
    }
    if (!op.is_exchange()) {
      pending.push_back(op);
      continue;
    }
    flush();
    const std::size_t parts = op.partitions != 0
                                  ? op.partitions
                                  : sc.conf().effective_shuffle_partitions();
    std::shared_ptr<std::vector<std::string>> bounds;
    if (op.kind == Kind::kSortBytes) {
      // The sampling pass materializes the source once; swap the exchange
      // input to the staging store it filled so the map stage re-reads
      // sealed batches instead of recomputing the scan.
      SortStage stage = stage_and_sample_sort(rt, current, op, parts, name,
                                              segment, result.jobs);
      bounds = std::move(stage.bounds);
      staging_stores.push_back(stage.store);
      Op staged_scan;
      staged_scan.kind = Kind::kScanStore;
      staged_scan.store = stage.store;
      staged_scan.partitions = stage.partitions;
      current = std::make_shared<ChunkRdd>(
          &sc, &rt, nullptr, std::vector<Op>{std::move(staged_scan)},
          strfmt("query:%s:stage%d", name.c_str(), segment));
    }
    auto dep = std::make_shared<ChunkShuffleDep>(current, parts, &rt, op,
                                                 std::move(bounds));
    current = std::make_shared<ShuffledChunkRdd>(
        &sc, std::move(dep), &rt,
        strfmt("query:%s:exchange%d", name.c_str(), segment));
  }
  flush();

  const std::size_t parts = current->num_partitions();
  auto slots = std::make_shared<std::vector<std::vector<Chunk>>>(parts);
  Runtime* rtp = &rt;
  const spark::RddPtr<Chunk> final_rdd = current;
  auto sink_ops = std::make_shared<std::vector<Op>>(std::move(sinks));
  result.jobs.push_back(sc.scheduler().run_job(
      final_rdd,
      [final_rdd, slots, rtp, sink_ops](std::size_t p,
                                        spark::TaskContext& ctx) {
        std::vector<Chunk> chunks = final_rdd->compute(p, ctx);
        Runtime::ArenaLease lease = rtp->lease_arena();
        KernelCtx kc(ctx, *lease, rtp->config(),
                     rtp->context().obs() != nullptr);
        const double rows = chunks_rows(chunks);
        const double bytes = chunks_bytes(chunks);
        if (sink_ops->empty()) {
          // Collect-style exit: serialize the partition back to the driver.
          ctx.charge_cpu_ns(bytes * ctx.costs().serialize_cpu_ns_per_byte);
        }
        note_kernel(kc, KernelKind::kSink, rows, rows, bytes, 0.0);
        for (const Op& s : *sink_ops) s.sink_fn(p, chunks, kc);
        rtp->commit_task(kc);
        (*slots)[p] = std::move(chunks);
      },
      parts, "query:" + name));
  result.partitions = std::move(*slots);
  for (const int store : staging_stores) rt.drop_store(store);
  return result;
}

}  // namespace tsx::columnar
