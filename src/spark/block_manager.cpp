#include "spark/block_manager.hpp"

#include <memory>
#include <utility>
#include <vector>

#include "core/error.hpp"
#include "spark/task_effects.hpp"

namespace tsx::spark {

BlockManager::BlockManager(mem::TieredAllocator& allocator, Bytes budget,
                           mem::NodeId node)
    : allocator_(allocator), budget_(budget), node_(node) {}

BlockManager::~BlockManager() { clear(); }

bool BlockManager::has(const BlockKey& key) const {
  if (const TaskEffects* fx = TaskEffects::current())
    if (fx->has_block(key)) return true;
  return blocks_.count(key) > 0;
}

BlockData BlockManager::get(const BlockKey& key) {
  if (TaskEffects* fx = TaskEffects::current()) {
    // Parallel evaluation: serve the task's own overlay or the stage-start
    // snapshot without touching LRU/hit-miss/tiering state; the real lookup
    // (and all its bookkeeping) replays in commit order.
    fx->record_block_get(this, key);
    if (BlockData own = fx->find_block(key)) return own;
    const auto it = blocks_.find(key);
    return it == blocks_.end() ? nullptr : it->second.data;
  }
  const auto it = blocks_.find(key);
  if (it == blocks_.end()) {
    ++misses_;
    return nullptr;
  }
  ++hits_;
  lru_.splice(lru_.begin(), lru_, it->second.lru_pos);
  if (tiering_ != nullptr)
    tiering_->on_region_access(StreamClass::kCache,
                               cache_region(key.rdd_id, key.partition),
                               it->second.size, mem::AccessKind::kRead);
  return it->second.data;
}

Bytes BlockManager::size_of(const BlockKey& key) const {
  if (const TaskEffects* fx = TaskEffects::current())
    if (fx->has_block(key)) return fx->block_size(key);
  const auto it = blocks_.find(key);
  TSX_CHECK(it != blocks_.end(), "size_of unknown block");
  return it->second.size;
}

bool BlockManager::put(const BlockKey& key, BlockData data, Bytes size,
                       int owner) {
  TSX_CHECK(size.b() >= 0.0, "negative block size");
  if (TaskEffects* fx = TaskEffects::current()) {
    // Whether the real store accepts the block (budget, physical capacity)
    // is decided at commit, which replays this put on the direct path; the
    // optimistic answer here only shapes this task's own view through the
    // overlay.
    fx->put_block(key, data, size);
    fx->record_block_put(this, key, std::move(data), size, owner);
    return true;
  }
  if (has(key)) drop(key);  // overwrite semantics
  if (size > budget_) return false;
  while (bytes_cached_ + size > budget_ && !lru_.empty()) evict_one();
  // Physical capacity on the bound node can also be the binding constraint.
  if (size > allocator_.available(node_)) return false;

  const mem::AllocationId alloc = allocator_.allocate(node_, size);
  lru_.push_front(key);
  blocks_.emplace(key,
                  Block{std::move(data), size, alloc, lru_.begin(), owner});
  bytes_cached_ += size;
  if (tiering_ != nullptr) {
    const RegionId region = cache_region(key.rdd_id, key.partition);
    tiering_->on_region_put(StreamClass::kCache, region, size);
    tiering_->on_region_access(StreamClass::kCache, region, size,
                               mem::AccessKind::kWrite);
  }
  return true;
}

void BlockManager::drop(BlockKey key) {
  const auto it = blocks_.find(key);
  if (it == blocks_.end()) return;
  allocator_.free(it->second.allocation);
  bytes_cached_ -= it->second.size;
  lru_.erase(it->second.lru_pos);
  blocks_.erase(it);
  if (tiering_ != nullptr)
    tiering_->on_region_drop(StreamClass::kCache,
                             cache_region(key.rdd_id, key.partition));
}

void BlockManager::clear() {
  // Ascending key order: the tiering observer's event stream (and thus the
  // identity gate) depends on it.
  while (!blocks_.empty()) drop(blocks_.begin()->first);
}

bool BlockManager::drop_lru() {
  if (lru_.empty()) return false;
  drop(lru_.back());
  return true;
}

std::size_t BlockManager::drop_owned_by(int executor_id) {
  std::vector<BlockKey> victims;  // ascending key order
  for (const auto& [key, block] : blocks_)
    if (block.owner == executor_id) victims.push_back(key);
  for (const BlockKey& key : victims) drop(key);
  return victims.size();
}

void BlockManager::evict_one() {
  TSX_CHECK(!lru_.empty(), "evict from empty block manager");
  drop(lru_.back());
  ++evictions_;
}

}  // namespace tsx::spark
