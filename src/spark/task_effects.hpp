// Per-task side-effect buffer for the parallel data plane.
//
// When the scheduler evaluates a stage's host functions concurrently
// (DESIGN.md §11), tasks must not touch shared engine state: the
// shuffle store, the block manager and the tiering observer all keep
// order-sensitive bookkeeping (LRU lists, hit/miss counters, hotness
// decay) whose low bits encode mutation order. Each task therefore records its writes into a TaskEffects buffer
// — an ordered list of deferred operations — while its reads see the
// stage-start snapshot plus its own buffered writes (the block overlay).
// The commit phase replays every buffer through the real components at the
// same simulated instant, in the same order, as serial execution would
// have produced, so every counter, trace and double is bit-identical.
//
// Every op kind (shuffle bucket puts, block puts/gets, shuffle hotness
// bumps) is a typed record in a flat vector — no per-op closure or heap
// allocation — with `order_` preserving the exact interleaving across
// kinds. Consecutive puts into the same (shuffle, map partition) — the
// shape every map task produces — commit through one merged
// ShuffleStore::put_buckets call.
// Buffers are owned and recycled by the scheduler across stages, so the
// steady state allocates nothing.
//
// The buffer is installed per worker thread via TaskEffects::Scope;
// components consult TaskEffects::current() — a thread_local — and fall
// back to the direct (serial) path when none is installed. The driver
// thread never installs one, so serial and fault-mode execution run the
// pre-parallel code byte for byte.
#pragma once

#include <any>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "core/units.hpp"
#include "spark/block_manager.hpp"
#include "spark/shuffle.hpp"

namespace tsx::spark {

class TaskEffects {
 public:
  /// The buffer installed on the calling thread, or nullptr when execution
  /// is direct (serial driver, fault mode, commit replay).
  static TaskEffects* current();

  /// RAII installation of a buffer on the current thread (restores the
  /// previous one on destruction, so scopes nest).
  class Scope {
   public:
    explicit Scope(TaskEffects* effects);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    TaskEffects* prev_;
  };

  // --- Recorders (called by the stores under an installed buffer) -------
  // Ops replay in record order at commit — the order the serial engine
  // would have applied them within this task.

  /// A block-manager read: replayed so LRU order, hit/miss counters and
  /// cache hotness land exactly where the serial engine put them.
  void record_block_get(BlockManager* blocks, const BlockKey& key) {
    bind_blocks(blocks);
    order_.push_back(OpKind::kBlockGet);
    block_gets_.push_back(key);
  }

  /// A block-manager put (the data is already type-erased and shared with
  /// this task's overlay).
  void record_block_put(BlockManager* blocks, const BlockKey& key,
                        BlockData data, Bytes size, int owner) {
    bind_blocks(blocks);
    order_.push_back(OpKind::kBlockPut);
    block_puts_.push_back(BlockPutOp{key, std::move(data), size, owner});
  }

  /// One shuffle bucket deposit. Consecutive records for one
  /// (shuffle, map_part) merge into a single put_buckets commit pass.
  void record_shuffle_put(ShuffleStore* store, int shuffle,
                          std::size_t map_part, std::size_t reduce_part,
                          std::any records, Bytes size, int owner);

  /// A shuffle-region hotness bump (the read side of tiering).
  void record_shuffle_read(ShuffleStore* store, int shuffle,
                           std::size_t map_part, Bytes size);

  // --- The task's private block overlay ----------------------------------

  /// Records a block this task cached, so its own later reads hit it
  /// (diamond lineages recompute a cached parent twice within one task).
  void put_block(const BlockKey& key, BlockData data, Bytes size) {
    overlay_[key] = OverlayEntry{std::move(data), size};
  }

  /// The task's own buffered block, or null if it never cached `key`.
  BlockData find_block(const BlockKey& key) const {
    const auto it = overlay_.find(key);
    return it == overlay_.end() ? nullptr : it->second.data;
  }
  bool has_block(const BlockKey& key) const {
    return overlay_.count(key) > 0;
  }
  /// Size of the task's own buffered block; requires has_block(key).
  Bytes block_size(const BlockKey& key) const {
    return overlay_.at(key).size;
  }

  /// Replays the deferred mutations in order against the real components.
  /// Runs on the driver thread with no buffer installed, so each op takes
  /// the direct path. Idempotence is not required: commit runs once. The
  /// buffer resets (capacity kept) for reuse by a later stage.
  void commit();

  /// Drops all recorded state without applying it (capacity kept).
  void reset();

 private:
  enum class OpKind : std::uint8_t {
    kBlockGet,
    kBlockPut,
    kShufflePut,
    kShuffleRead,
  };

  struct BlockPutOp {
    BlockKey key;
    BlockData data;
    Bytes size;
    int owner = -1;
  };
  struct ShuffleReadOp {
    int shuffle = -1;
    std::size_t map_part = 0;
    Bytes size;
  };
  struct OverlayEntry {
    BlockData data;
    Bytes size;
  };

  void bind_blocks(BlockManager* blocks);
  void bind_shuffles(ShuffleStore* store);

  std::vector<OpKind> order_;
  std::vector<BlockKey> block_gets_;
  std::vector<BlockPutOp> block_puts_;
  std::vector<ShuffleBucketPut> shuffle_puts_;
  std::vector<ShuffleReadOp> shuffle_reads_;
  std::unordered_map<BlockKey, OverlayEntry, BlockKeyHash> overlay_;
  BlockManager* blocks_ = nullptr;
  ShuffleStore* shuffles_ = nullptr;
};

}  // namespace tsx::spark
