#include "dfs/dfs.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <set>

#include "core/error.hpp"
#include "core/strings.hpp"
#include "dfs/placement.hpp"
#include "obs/recorder.hpp"
#include "sim/simulator.hpp"

namespace tsx::dfs {

namespace {

std::uint64_t path_hash(const std::string& path) {
  // FNV-1a, 64-bit: stable across processes and platforms.
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : path) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

}  // namespace

Dfs::Dfs(const DfsConfig& config, std::uint64_t seed)
    : config_(config),
      seed_(seed),
      block_size_(Bytes::mib(config.block_mib)),
      cluster_(config.racks, config.nodes_per_rack) {
  const auto issues = config.validate();
  if (!issues.empty()) throw diagnostics_error("dfs", issues);
  dead_.assign(cluster_.size(), 0);
}

std::size_t Dfs::blocks_for(Bytes size) const {
  return std::max<std::size_t>(
      1, static_cast<std::size_t>(std::ceil(size.b() / block_size_.b())));
}

Dfs::File Dfs::make_file(const std::string& path,
                         std::vector<std::string> parts, Bytes size,
                         bool is_virtual) {
  File file;
  file.size = size;
  file.is_virtual = is_virtual;
  const std::size_t nblocks = blocks_for(size);
  file.blocks.reserve(nblocks);
  for (std::size_t b = 0; b < nblocks; ++b)
    file.blocks.push_back(BlockId{next_block_++});

  const std::uint64_t fhash = path_hash(path);
  const std::size_t block_b = static_cast<std::size_t>(block_size_.b());
  const std::size_t size_b = static_cast<std::size_t>(size.b());
  const auto slice_length = [&](std::size_t block) {
    const std::size_t at = block * block_b;
    return at >= size_b ? 0 : std::min(block_b, size_b - at);
  };

  // A data chunk carries the next `len` file bytes, copied straight from
  // the partition buffers; a buffer is freed as soon as it is consumed.
  std::size_t part = 0, off = 0;  // next buffer to copy, bytes of it done
  const auto fill = [&](ChunkData& out, std::size_t len) {
    out.reserve(len);
    while (out.size() < len) {
      std::string& text = parts[part];
      const std::size_t n = std::min(text.size() - off, len - out.size());
      const auto* at = reinterpret_cast<const std::uint8_t*>(text.data()) + off;
      out.insert(out.end(), at, at + n);
      off += n;
      if (off == text.size()) {
        std::string().swap(text);
        ++part;
        off = 0;
      }
    }
  };

  if (config_.codec == CodecKind::kRs) {
    // Data chunk j of stripe s carries the file bytes [(s*k + j) * block,
    // ...). Parity is not written here: encode_parity fills it in on the
    // stripe's first loss.
    const int k = config_.rs_k;
    const int m = config_.rs_m;
    const std::size_t nstripes =
        (nblocks + static_cast<std::size_t>(k) - 1) / k;
    for (std::size_t s = 0; s < nstripes; ++s) {
      Stripe stripe;
      const int d = static_cast<int>(
          std::min<std::size_t>(k, nblocks - s * static_cast<std::size_t>(k)));
      stripe.data = d;
      std::size_t max_len = 0;
      for (int j = 0; j < d; ++j) {
        const std::size_t block = s * static_cast<std::size_t>(k) + j;
        const std::size_t len = slice_length(block);
        max_len = std::max(max_len, len);
        Chunk chunk;
        chunk.length = len;
        if (!is_virtual) fill(chunk.payload, len);
        stripe.chunks.push_back(std::move(chunk));
      }
      // Parity fits only where there are online nodes left beyond the data
      // chunks — a write into a degraded cluster lands under-protected
      // rather than failing.
      const int width_cap = static_cast<int>(cluster_.online_count());
      const int m_eff = std::min(m, std::max(0, width_cap - d));
      for (int i = 0; i < m_eff; ++i) {
        Chunk chunk;
        chunk.length = max_len;
        stripe.chunks.push_back(std::move(chunk));
      }
      stripe.parity_pending = !is_virtual && m_eff > 0;
      const auto nodes =
          place_stripe(cluster_, seed_, fhash, s, d + m_eff);
      for (std::size_t c = 0; c < stripe.chunks.size(); ++c)
        stripe.chunks[c].node = nodes[c];
      total_data_chunks_ += static_cast<std::uint64_t>(d);
      file.stripes.push_back(std::move(stripe));
    }
  } else {
    const int r_eff = std::min(
        config_.replication,
        std::max(1, static_cast<int>(cluster_.online_count())));
    for (std::size_t b = 0; b < nblocks; ++b) {
      Stripe stripe;
      stripe.data = 1;
      const auto nodes = place_stripe(cluster_, seed_, fhash, b, r_eff);
      for (int c = 0; c < r_eff; ++c) {
        Chunk chunk;
        chunk.length = slice_length(b);
        chunk.node = nodes[static_cast<std::size_t>(c)];
        if (c == 0 && !is_virtual) fill(chunk.payload, chunk.length);
        stripe.chunks.push_back(std::move(chunk));
      }
      ++total_data_chunks_;
      file.stripes.push_back(std::move(stripe));
    }
  }
  return file;
}

void Dfs::release_counters(const File& file) {
  for (const Stripe& stripe : file.stripes)
    for (std::size_t c = 0; c < stripe.chunks.size(); ++c) {
      if (static_cast<int>(c) >= stripe.data) continue;
      --total_data_chunks_;
      if (!stripe.chunks[c].present) --lost_data_chunks_;
    }
}

void Dfs::insert_file(const std::string& path, File file) {
  const auto it = files_.find(path);
  if (it != files_.end()) release_counters(it->second);
  files_[path] = std::move(file);
}

FileStatus Dfs::write_parts(const std::string& path,
                            std::vector<std::string> parts) {
  std::size_t bytes = 0;
  for (const std::string& text : parts) {
    TSX_CHECK(text.empty() || text.back() == '\n',
              "dfs: partition buffer does not end a line: " + path);
    bytes += text.size();
  }
  const Bytes size = Bytes::of(static_cast<double>(bytes));
  insert_file(path, make_file(path, std::move(parts), size, false));
  emit_span("dfs.write", "dfs.write", path, size);
  return status(path);
}

FileStatus Dfs::provision(const std::string& path, Bytes size) {
  insert_file(path, make_file(path, {}, size, true));
  return status(path);
}

void Dfs::for_each_line(const std::string& path,
                        const std::function<void(std::string_view)>& fn) {
  const auto it = files_.find(path);
  TSX_CHECK(it != files_.end(), "dfs: no such file: " + path);
  File& file = it->second;
  TSX_CHECK(!file.is_virtual,
            "dfs: provisioned file has no content: " + path);
  emit_span("dfs.read", "dfs.read", path, file.size);

  // Lines are split straight out of the data chunks; only a line that
  // crosses a chunk boundary is assembled in `carry`. Lost RS data chunks
  // are reconstructed from any k survivors on the way. A replicated block
  // is read from its first replica's bytes whichever replica serves it.
  std::string carry;
  const auto split = [&](const ChunkData& chunk) {
    const char* p = reinterpret_cast<const char*>(chunk.data());
    const char* const end = p + chunk.size();
    while (p < end) {
      const auto* nl = static_cast<const char*>(
          std::memchr(p, '\n', static_cast<std::size_t>(end - p)));
      if (nl == nullptr) break;
      if (carry.empty()) {
        fn(std::string_view(p, static_cast<std::size_t>(nl - p)));
      } else {
        carry.append(p, nl);
        fn(carry);
        carry.clear();
      }
      p = nl + 1;
    }
    carry.append(p, end);
  };
  for (const Stripe& stripe : file.stripes) {
    bool degraded = false;
    if (config_.codec == CodecKind::kRs)
      for (int j = 0; j < stripe.data; ++j)
        if (!stripe.chunks[static_cast<std::size_t>(j)].present)
          degraded = true;
    if (!degraded) {
      for (int j = 0; j < stripe.data; ++j)
        split(stripe.chunks[static_cast<std::size_t>(j)].payload);
      continue;
    }
    ++stats_.degraded_reads;
    const auto data = reconstruct_data(stripe);
    for (int j = 0; j < stripe.data; ++j) {
      if (!stripe.chunks[static_cast<std::size_t>(j)].present)
        ++stats_.reconstructed_chunks;
      split(data[static_cast<std::size_t>(j)]);
    }
  }
}

bool Dfs::exists(const std::string& path) const {
  return files_.count(path) > 0;
}

void Dfs::remove(const std::string& path) {
  const auto it = files_.find(path);
  TSX_CHECK(it != files_.end(), "dfs: remove of missing file: " + path);
  release_counters(it->second);
  files_.erase(it);
}

FileStatus Dfs::status(const std::string& path) const {
  const auto it = files_.find(path);
  TSX_CHECK(it != files_.end(), "dfs: no such file: " + path);
  return FileStatus{path, it->second.size, it->second.blocks.size(),
                    config_.replication};
}

std::vector<std::string> Dfs::list() const {
  std::vector<std::string> out;
  out.reserve(files_.size());
  for (const auto& [path, file] : files_) out.push_back(path);
  return out;
}

// ---- cost model --------------------------------------------------------

IoCharge Dfs::read_charge(Bytes bytes) {
  const auto blocks = static_cast<double>(blocks_for(bytes));
  if (lost_data_chunks_ == 0) {
    // Healthy path: the original flat-model arithmetic, and no state
    // writes — pool threads call this concurrently in parallel runs.
    return IoCharge{kBlockSeek * blocks, bytes};
  }
  // Degraded: the lost fraction of data chunks reads k survivors instead
  // of one (RS reconstruction); replication reroutes at no amplification.
  const double f = degraded_fraction();
  const double amp =
      1.0 + f * static_cast<double>(config_.data_chunks() - 1);
  ++stats_.degraded_reads;
  return IoCharge{kBlockSeek * blocks * amp, bytes * amp};
}

IoCharge Dfs::write_charge(Bytes bytes) const {
  const std::size_t blocks = blocks_for(bytes);
  if (config_.codec == CodecKind::kRs) {
    const auto k = static_cast<std::size_t>(config_.rs_k);
    const auto m = static_cast<std::size_t>(config_.rs_m);
    const std::size_t stripes = (blocks + k - 1) / k;
    return IoCharge{
        kBlockSeek * static_cast<double>(blocks + stripes * m),
        bytes * (1.0 + static_cast<double>(m) / static_cast<double>(k))};
  }
  const auto r = static_cast<std::size_t>(config_.replication);
  return IoCharge{kBlockSeek * static_cast<double>(blocks * r),
                  bytes * static_cast<double>(r)};
}

// ---- failure + repair --------------------------------------------------

void Dfs::node_down(int node) {
  cluster_.set_online(node, false);
  for (auto& [path, file] : files_)
    for (Stripe& stripe : file.stripes) {
      bool hit = false;
      for (std::size_t c = 0; c < stripe.chunks.size(); ++c) {
        Chunk& chunk = stripe.chunks[c];
        if (chunk.node != node || !chunk.present) continue;
        if (stripe.parity_pending) encode_parity(stripe);
        chunk.present = false;
        hit = true;
        ++stats_.chunks_lost;
        if (static_cast<int>(c) < stripe.data) ++lost_data_chunks_;
      }
      if (hit) {
        int present = 0;
        for (const Chunk& chunk : stripe.chunks)
          if (chunk.present) ++present;
        // Crossing below `data` survivors is the codec budget: the stripe
        // just became unreconstructible.
        if (present == stripe.data - 1) ++stats_.chunks_unreadable;
      }
    }
}

void Dfs::fail_datanode(int node) {
  TSX_CHECK(node >= 0 && node < static_cast<int>(cluster_.size()),
            "dfs: no such datanode: " + std::to_string(node));
  if (!cluster_.online(node)) return;
  dead_[static_cast<std::size_t>(node)] = 1;
  node_down(node);
  ++stats_.datanodes_lost;
}

void Dfs::fail_rack(int rack) {
  TSX_CHECK(rack >= 0 && rack < cluster_.racks(),
            "dfs: no such rack: " + std::to_string(rack));
  for (const int node : cluster_.rack_members(rack))
    if (cluster_.online(node)) node_down(node);
  ++stats_.racks_lost;
}

void Dfs::recover_rack(int rack) {
  TSX_CHECK(rack >= 0 && rack < cluster_.racks(),
            "dfs: no such rack: " + std::to_string(rack));
  for (const int node : cluster_.rack_members(rack)) {
    // A partition heals with its disks intact; a crashed node stays dead.
    if (dead_[static_cast<std::size_t>(node)]) continue;
    if (cluster_.online(node)) continue;
    cluster_.set_online(node, true);
    for (auto& [path, file] : files_)
      for (Stripe& stripe : file.stripes)
        for (std::size_t c = 0; c < stripe.chunks.size(); ++c) {
          Chunk& chunk = stripe.chunks[c];
          if (chunk.node != node || chunk.present) continue;
          chunk.present = true;
          if (static_cast<int>(c) < stripe.data) --lost_data_chunks_;
        }
  }
  ++stats_.racks_recovered;
}

RepairSchedule Dfs::plan_repair() const {
  RepairSchedule sched;
  for (const auto& [path, file] : files_) {
    for (std::size_t s = 0; s < file.stripes.size(); ++s) {
      const Stripe& stripe = file.stripes[s];
      int present = 0;
      for (const Chunk& chunk : stripe.chunks)
        if (chunk.present) ++present;
      // Fewer than `data` survivors: past the codec budget, unrepairable.
      if (present < stripe.data) continue;
      if (present == static_cast<int>(stripe.chunks.size())) continue;

      std::set<int> used;
      std::vector<int> rack_load(static_cast<std::size_t>(cluster_.racks()),
                                 0);
      for (const Chunk& chunk : stripe.chunks)
        if (chunk.present) {
          used.insert(chunk.node);
          ++rack_load[static_cast<std::size_t>(cluster_.rack_of(chunk.node))];
        }

      for (std::size_t c = 0; c < stripe.chunks.size(); ++c) {
        const Chunk& chunk = stripe.chunks[c];
        if (chunk.present) continue;
        // Replacement target: an online node hosting nothing of this
        // stripe, in the rack carrying the fewest of its chunks (ties by
        // node id) — the same spread invariant placement enforces.
        int target = -1;
        for (const int node : cluster_.online_nodes()) {
          if (used.count(node)) continue;
          if (target < 0 ||
              rack_load[static_cast<std::size_t>(cluster_.rack_of(node))] <
                  rack_load[static_cast<std::size_t>(
                      cluster_.rack_of(target))])
            target = node;
        }
        if (target < 0) continue;  // cluster too degraded to re-spread
        used.insert(target);
        ++rack_load[static_cast<std::size_t>(cluster_.rack_of(target))];

        RepairTask task;
        task.path = path;
        task.stripe = s;
        task.chunk_index = static_cast<int>(c);
        task.target = target;
        // RS reconstruction streams `data` surviving chunks; replication
        // copies the one lost replica. Actual payload lengths, not padded
        // blocks — repair moves data, not allocation.
        if (config_.codec == CodecKind::kRs) {
          int sources = 0;
          for (const Chunk& src : stripe.chunks) {
            if (!src.present || sources == stripe.data) continue;
            ++sources;
            task.read_bytes += Bytes::of(static_cast<double>(src.length));
          }
        } else {
          task.read_bytes = Bytes::of(static_cast<double>(chunk.length));
        }
        task.write_bytes = Bytes::of(static_cast<double>(chunk.length));
        sched.total_read += task.read_bytes;
        sched.total_write += task.write_bytes;
        sched.tasks.push_back(std::move(task));
      }
    }
  }
  return sched;
}

bool Dfs::apply_repair(const RepairTask& task) {
  const auto it = files_.find(task.path);
  if (it == files_.end()) {
    ++stats_.repair_tasks_cancelled;
    return false;
  }
  File& file = it->second;
  if (task.stripe >= file.stripes.size() || task.chunk_index < 0) {
    ++stats_.repair_tasks_cancelled;
    return false;
  }
  Stripe& stripe = file.stripes[task.stripe];
  if (static_cast<std::size_t>(task.chunk_index) >= stripe.chunks.size()) {
    ++stats_.repair_tasks_cancelled;
    return false;
  }
  Chunk& chunk = stripe.chunks[static_cast<std::size_t>(task.chunk_index)];
  // Healed in the meantime (rack recovered) or the target died since the
  // plan was drawn: tolerated, counted, skipped.
  if (chunk.present || task.target < 0 || !cluster_.online(task.target)) {
    ++stats_.repair_tasks_cancelled;
    return false;
  }
  int present = 0;
  for (const Chunk& c : stripe.chunks)
    if (c.present) ++present;
  if (present < stripe.data) {
    ++stats_.repair_tasks_cancelled;
    return false;
  }

  if (config_.codec == CodecKind::kRs && !file.is_virtual) {
    const auto data = reconstruct_data(stripe);
    if (task.chunk_index < stripe.data) {
      chunk.payload = data[static_cast<std::size_t>(task.chunk_index)];
    } else {
      const int m = static_cast<int>(stripe.chunks.size()) - stripe.data;
      auto parity = rs_encode(data, m);
      chunk.payload = std::move(
          parity[static_cast<std::size_t>(task.chunk_index - stripe.data)]);
    }
    ++stats_.reconstructed_chunks;
  }
  chunk.node = task.target;
  chunk.present = true;
  if (task.chunk_index < stripe.data) --lost_data_chunks_;
  ++stats_.chunks_repaired;
  return true;
}

void Dfs::note_repair_traffic(Bytes read, Bytes written, double seconds) {
  stats_.repair_read_bytes += read;
  stats_.repair_write_bytes += written;
  stats_.repair_seconds += seconds;
}

void Dfs::encode_parity(Stripe& stripe) {
  // Runs while every chunk is still present, and data payloads never change
  // after a write, so these bytes equal a write-time encode. The data
  // payloads are lent to the encoder by move, not copied.
  const auto d = static_cast<std::size_t>(stripe.data);
  std::vector<ChunkData> data(d);
  for (std::size_t j = 0; j < d; ++j)
    data[j] = std::move(stripe.chunks[j].payload);
  std::vector<ChunkData> parity =
      rs_encode(data, static_cast<int>(stripe.chunks.size() - d));
  for (std::size_t j = 0; j < d; ++j)
    stripe.chunks[j].payload = std::move(data[j]);
  for (std::size_t i = 0; i < parity.size(); ++i)
    stripe.chunks[d + i].payload = std::move(parity[i]);
  stripe.parity_pending = false;
}

std::vector<ChunkData> Dfs::reconstruct_data(const Stripe& stripe) const {
  TSX_CHECK(!stripe.parity_pending, "dfs: decode of unencoded parity");
  const int k = stripe.data;
  const int m = static_cast<int>(stripe.chunks.size()) - k;
  std::vector<const ChunkData*> chunks;
  std::vector<bool> present;
  std::vector<std::size_t> lengths;
  chunks.reserve(stripe.chunks.size());
  for (const Chunk& c : stripe.chunks) {
    chunks.push_back(&c.payload);
    present.push_back(c.present);
  }
  for (int j = 0; j < k; ++j)
    lengths.push_back(stripe.chunks[static_cast<std::size_t>(j)].length);
  return rs_reconstruct(chunks, present, lengths, k, m);
}

// ---- observability -----------------------------------------------------

void Dfs::set_obs(obs::Recorder* recorder, sim::Simulator* simulator) {
  obs_ = recorder;
  sim_ = simulator;
}

void Dfs::emit_span(const char* name, const std::string& category,
                    const std::string& path, Bytes bytes) {
  if (obs_ == nullptr || sim_ == nullptr) return;
  const Duration now = sim_->now();
  const obs::SpanId id =
      obs_->open(obs::SpanKind::kMigration, name, category, now);
  if (id == 0) return;
  obs_->set_arg(id, "path", path);
  obs_->set_arg(id, "bytes", strfmt("%.0f", bytes.b()));
  obs_->close_with_attribution(id, now, obs::TimeAttribution{},
                               obs::Bucket::kOther);
}

// ---- introspection -----------------------------------------------------

double Dfs::degraded_fraction() const {
  if (total_data_chunks_ == 0) return 0.0;
  return static_cast<double>(lost_data_chunks_) /
         static_cast<double>(total_data_chunks_);
}

std::vector<int> Dfs::stripe_nodes(const std::string& path,
                                   std::size_t stripe) const {
  const auto it = files_.find(path);
  TSX_CHECK(it != files_.end(), "dfs: no such file: " + path);
  TSX_CHECK(stripe < it->second.stripes.size(),
            "dfs: no such stripe: " + std::to_string(stripe));
  std::vector<int> nodes;
  for (const Chunk& chunk : it->second.stripes[stripe].chunks)
    nodes.push_back(chunk.node);
  return nodes;
}

const ChunkData& Dfs::chunk_payload(const std::string& path,
                                    std::size_t stripe,
                                    std::size_t slot) const {
  const auto it = files_.find(path);
  TSX_CHECK(it != files_.end(), "dfs: no such file: " + path);
  TSX_CHECK(stripe < it->second.stripes.size(),
            "dfs: no such stripe: " + std::to_string(stripe));
  const std::vector<Chunk>& chunks = it->second.stripes[stripe].chunks;
  TSX_CHECK(slot < chunks.size(), "dfs: no such slot: " + std::to_string(slot));
  return chunks[slot].payload;
}

std::size_t Dfs::block_count() const {
  std::size_t n = 0;
  for (const auto& [path, file] : files_) n += file.blocks.size();
  return n;
}

Bytes Dfs::bytes_stored() const {
  // Physical occupancy: every chunk pins a full block — last-block padding
  // included — times however many chunks the codec laid down.
  std::size_t chunks = 0;
  for (const auto& [path, file] : files_)
    for (const Stripe& stripe : file.stripes) chunks += stripe.chunks.size();
  return block_size_ * static_cast<double>(chunks);
}

}  // namespace tsx::dfs
