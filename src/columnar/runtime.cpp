#include "columnar/runtime.hpp"

#include <utility>

#include "core/error.hpp"
#include "obs/recorder.hpp"
#include "spark/context.hpp"
#include "spark/task_effects.hpp"
#include "spark/tiering_hooks.hpp"

namespace tsx::columnar {

namespace {

// Process-wide SparkContext -> Runtime registry. Registration happens on
// the driver thread (Runtime construction/destruction brackets the run);
// lookups may come from worker threads, hence the mutex.
std::mutex g_registry_mu;
std::map<const spark::SparkContext*, Runtime*>& registry() {
  static std::map<const spark::SparkContext*, Runtime*> map;
  return map;
}

}  // namespace

Runtime::Runtime(spark::SparkContext& sc, ColumnarConfig config)
    : sc_(sc), config_(std::move(config)) {
  std::lock_guard<std::mutex> lock(g_registry_mu);
  registry()[&sc_] = this;
}

Runtime::~Runtime() {
  finish();
  std::lock_guard<std::mutex> lock(g_registry_mu);
  auto it = registry().find(&sc_);
  if (it != registry().end() && it->second == this) registry().erase(it);
}

Runtime* Runtime::of(const spark::SparkContext& sc) {
  std::lock_guard<std::mutex> lock(g_registry_mu);
  const auto it = registry().find(&sc);
  return it == registry().end() ? nullptr : it->second;
}

// ---------------------------------------------------------------------------
// Arena leasing
// ---------------------------------------------------------------------------

core::Arena* Runtime::checkout_() {
  std::lock_guard<std::mutex> lock(arena_mu_);
  if (arena_pool_.empty()) {
    arena_pool_.push_back(std::make_unique<core::Arena>(
        static_cast<std::size_t>(config_.arena_chunk_kib * 1024.0)));
  }
  arena_leased_.push_back(std::move(arena_pool_.back()));
  arena_pool_.pop_back();
  return arena_leased_.back().get();
}

void Runtime::checkin_(core::Arena* arena) {
  std::lock_guard<std::mutex> lock(arena_mu_);
  ++lease_count_;
  const double hw = arena->high_water_bytes();
  if (hw > lease_high_water_) lease_high_water_ = hw;
  arena->reset();
  for (auto it = arena_leased_.begin(); it != arena_leased_.end(); ++it) {
    if (it->get() == arena) {
      arena_pool_.push_back(std::move(*it));
      arena_leased_.erase(it);
      return;
    }
  }
  TSX_CHECK(false, "arena checkin of an arena this runtime never leased");
}

// ---------------------------------------------------------------------------
// Batch stores
// ---------------------------------------------------------------------------

int Runtime::create_store(std::string name) {
  store_names_.push_back(std::move(name));
  return static_cast<int>(store_names_.size()) - 1;
}

void Runtime::store_put(int store, std::size_t part,
                        std::vector<Chunk> chunks) {
  TSX_CHECK(store >= 0 &&
                static_cast<std::size_t>(store) < store_names_.size(),
            "store_put on unknown store");
  std::vector<Chunk>& slot = stores_[store_key(store, part)];
  const bool fresh = slot.empty();
  spark::TieringHooks* hooks = sc_.tiering();
  for (Chunk& chunk : chunks) {
    const Bytes size = chunk.byte_size();
    if (hooks != nullptr)
      hooks->on_region_put(spark::StreamClass::kCache,
                           spark::columnar_region(store, part), size);
    stats_.region_bytes += size;
    slot.push_back(std::move(chunk));
  }
  if (fresh && !slot.empty()) ++stats_.regions;
}

const std::vector<Chunk>* Runtime::store_find(int store,
                                              std::size_t part) const {
  const auto it = stores_.find(store_key(store, part));
  return it == stores_.end() ? nullptr : &it->second;
}

const std::vector<Chunk>& Runtime::store_read(int store, std::size_t part,
                                              spark::TaskContext& ctx,
                                              ColumnarStats& delta) {
  const std::vector<Chunk>* chunks = store_find(store, part);
  TSX_CHECK(chunks != nullptr, "store_read of a partition never stored");
  spark::TieringHooks* hooks = sc_.tiering();
  KernelStats& ledger = delta.kernel(KernelKind::kCacheRead);
  for (const Chunk& chunk : *chunks) {
    const Bytes size = chunk.byte_size();
    // The CachedRDD-hit bill: a cache-class stream read plus a light
    // pointer-chasing touch (no deserialization — batches live in place).
    ctx.charge_stream_read(size, spark::StreamClass::kCache);
    ctx.charge_cpu_ns(size.b() * 0.02);
    ctx.charge_dep_reads(4.0);
    if (hooks != nullptr) {
      const spark::RegionId id = spark::columnar_region(store, part);
      const auto access = [hooks, id, size] {
        hooks->on_region_access(spark::StreamClass::kCache, id, size,
                                mem::AccessKind::kRead);
      };
      // Region hotness is order-sensitive bookkeeping: defer under the
      // parallel data plane so it lands in serial task order.
      if (spark::TaskEffects* fx = spark::TaskEffects::current())
        fx->defer(access);
      else
        access();
    }
    ++ledger.invocations;
    ledger.rows_in += chunk.rows;
    ledger.rows_out += chunk.rows;
    ledger.bytes_read += size;
  }
  return *chunks;
}

void Runtime::drop_store(int store) {
  spark::TieringHooks* hooks = sc_.tiering();
  const std::uint64_t lo = store_key(store, 0);
  const std::uint64_t hi = store_key(store + 1, 0);
  for (auto it = stores_.lower_bound(lo);
       it != stores_.end() && it->first < hi;) {
    if (hooks != nullptr)
      hooks->on_region_drop(
          spark::StreamClass::kCache,
          spark::columnar_region(store, it->first & 0xffffffffULL));
    it = stores_.erase(it);
  }
}

// ---------------------------------------------------------------------------
// Stats plumbing
// ---------------------------------------------------------------------------

void Runtime::commit_delta(const ColumnarStats& delta) {
  if (spark::TaskEffects* fx = spark::TaskEffects::current()) {
    fx->defer([this, delta] { stats_.merge(delta); });
    return;
  }
  stats_.merge(delta);
}

void Runtime::commit_task(KernelCtx& kc) {
  if (kc.log_kernels) {
    std::vector<obs::Recorder::KernelHit> hits;
    for (int k = 0; k < kNumKernelKinds; ++k) {
      const KernelKind kind = static_cast<KernelKind>(k);
      const KernelStats& ks = kc.delta.kernel(kind);
      if (ks.invocations == 0) continue;
      obs::Recorder::KernelHit hit;
      hit.name = to_string(kind);
      hit.stream = kernel_stream_label(kind);
      hit.cpu_ns = kc.kernel_cpu_ns[static_cast<std::size_t>(k)];
      hit.invocations = ks.invocations;
      hit.rows_in = ks.rows_in;
      hit.rows_out = ks.rows_out;
      hit.bytes_read = ks.bytes_read.b();
      hit.bytes_written = ks.bytes_written.b();
      hits.push_back(std::move(hit));
    }
    if (!hits.empty()) {
      // Under the parallel plane the emit lands during the task's commit
      // replay — inside the recorder's begin_host/end_host window, so the
      // kernels attach to the right task span in serial submit order.
      const auto emit = [this, hits = std::move(hits)] {
        if (obs::Recorder* rec = sc_.obs())
          rec->emit_kernels(hits, sc_.cost_multiplier(), sc_.now());
      };
      if (spark::TaskEffects* fx = spark::TaskEffects::current())
        fx->defer(emit);
      else
        emit();
    }
  }
  commit_delta(kc.delta);
}

void Runtime::finish() {
  if (finished_) return;
  finished_ = true;
  spark::TieringHooks* hooks = sc_.tiering();
  for (const auto& [key, chunks] : stores_) {
    (void)chunks;
    if (hooks != nullptr)
      hooks->on_region_drop(
          spark::StreamClass::kCache,
          spark::columnar_region(static_cast<int>(key >> 32),
                                 key & 0xffffffffULL));
  }
  stores_.clear();
  std::lock_guard<std::mutex> lock(arena_mu_);
  TSX_CHECK(arena_leased_.empty(), "columnar runtime finished with live leases");
  stats_.arena_leases += lease_count_;
  lease_count_ = 0;
  if (Bytes::of(lease_high_water_) > stats_.arena_high_water)
    stats_.arena_high_water = Bytes::of(lease_high_water_);
  lease_high_water_ = 0.0;
}

void KernelCtx::charge(KernelKind kind, double rows_in, double rows_out,
                       Bytes read, Bytes written, spark::StreamClass cls,
                       double cpu_ns) {
  if (cpu_ns > 0.0) task.charge_cpu_ns(cpu_ns);
  if (read.b() > 0.0) task.charge_stream_read(read, cls);
  if (written.b() > 0.0) task.charge_stream_write(written, cls);
  if (log_kernels) kernel_cpu_ns[static_cast<std::size_t>(kind)] += cpu_ns;
  KernelStats& ledger = delta.kernel(kind);
  ++ledger.invocations;
  ledger.rows_in += static_cast<std::uint64_t>(rows_in);
  ledger.rows_out += static_cast<std::uint64_t>(rows_out);
  ledger.bytes_read += read;
  ledger.bytes_written += written;
}

}  // namespace tsx::columnar
