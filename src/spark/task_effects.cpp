#include "spark/task_effects.hpp"

#include <utility>

#include "core/error.hpp"

namespace tsx::spark {

namespace {
thread_local TaskEffects* g_current = nullptr;
}  // namespace

TaskEffects* TaskEffects::current() { return g_current; }

TaskEffects::Scope::Scope(TaskEffects* effects) : prev_(g_current) {
  g_current = effects;
}

TaskEffects::Scope::~Scope() { g_current = prev_; }

void TaskEffects::bind_blocks(BlockManager* blocks) {
  TSX_CHECK(blocks_ == nullptr || blocks_ == blocks,
            "one TaskEffects buffer fed by two block managers");
  blocks_ = blocks;
}

void TaskEffects::bind_shuffles(ShuffleStore* store) {
  TSX_CHECK(shuffles_ == nullptr || shuffles_ == store,
            "one TaskEffects buffer fed by two shuffle stores");
  shuffles_ = store;
}

void TaskEffects::record_shuffle_put(ShuffleStore* store, int shuffle,
                                     std::size_t map_part,
                                     std::size_t reduce_part,
                                     std::any records, Bytes size,
                                     int owner) {
  bind_shuffles(store);
  order_.push_back(OpKind::kShufflePut);
  ShuffleBucketPut op;
  op.shuffle = shuffle;
  op.map_part = map_part;
  op.reduce_part = reduce_part;
  op.records = std::move(records);
  op.size = size;
  op.owner = owner;
  shuffle_puts_.push_back(std::move(op));
}

void TaskEffects::record_shuffle_read(ShuffleStore* store, int shuffle,
                                      std::size_t map_part, Bytes size) {
  bind_shuffles(store);
  order_.push_back(OpKind::kShuffleRead);
  shuffle_reads_.push_back(ShuffleReadOp{shuffle, map_part, size});
}

void TaskEffects::commit() {
  std::size_t bg = 0, bp = 0, sp = 0, sr = 0;
  const std::size_t n_ops = order_.size();
  for (std::size_t i = 0; i < n_ops; ++i) {
    switch (order_[i]) {
      case OpKind::kBlockGet:
        (void)blocks_->get(block_gets_[bg++]);
        break;
      case OpKind::kBlockPut: {
        BlockPutOp& op = block_puts_[bp++];
        (void)blocks_->put(op.key, std::move(op.data), op.size, op.owner);
        break;
      }
      case OpKind::kShufflePut: {
        // Merge the run of consecutive puts into one (shuffle, map_part) —
        // the shape a map task writes its R buckets in — and apply them in
        // a single store pass. The store performs the identical per-bucket
        // mutations and tiering notifications, in the identical order, so
        // the batching is invisible to every serialized artifact.
        std::size_t n = 1;
        while (i + n < n_ops && order_[i + n] == OpKind::kShufflePut &&
               shuffle_puts_[sp + n].shuffle == shuffle_puts_[sp].shuffle &&
               shuffle_puts_[sp + n].map_part == shuffle_puts_[sp].map_part)
          ++n;
        shuffles_->put_buckets(&shuffle_puts_[sp], n);
        sp += n;
        i += n - 1;
        break;
      }
      case OpKind::kShuffleRead: {
        const ShuffleReadOp& op = shuffle_reads_[sr++];
        shuffles_->apply_read_access(op.shuffle, op.map_part, op.size);
        break;
      }
    }
  }
  reset();
}

void TaskEffects::reset() {
  order_.clear();
  block_gets_.clear();
  block_puts_.clear();
  shuffle_puts_.clear();
  shuffle_reads_.clear();
  overlay_.clear();
}

}  // namespace tsx::spark
