#include "query/block_cache.h"

#include "obs/registry.h"

namespace spire {

namespace {

struct Instruments {
  obs::Counter* cache_hits;
  obs::Counter* cache_misses;
  obs::Counter* cache_stay_hits;
  obs::Counter* cache_stay_misses;
  obs::Counter* cache_block_hits;
  obs::Counter* cache_block_misses;
  obs::Counter* cache_evictions;
  obs::Gauge* cache_bytes;
};

const Instruments* GetInstruments() {
  if (!spire::obs::Enabled()) return nullptr;
  auto& registry = obs::Registry::Global();
  static const Instruments instruments{
      registry.GetCounter("query", "cache_hits"),
      registry.GetCounter("query", "cache_misses"),
      registry.GetCounter("query", "cache_stay_hits"),
      registry.GetCounter("query", "cache_stay_misses"),
      registry.GetCounter("query", "cache_block_hits"),
      registry.GetCounter("query", "cache_block_misses"),
      registry.GetCounter("query", "cache_evictions"),
      registry.GetGauge("query", "cache_bytes"),
  };
  return &instruments;
}

}  // namespace

std::size_t BlockCache::KeyHash::operator()(const Key& key) const {
  const std::uint64_t mixed = (key.id * 0x9E3779B97F4A7C15ull) ^
                              (((key.tag << 2) | key.kind) *
                               0xC2B2AE3D27D4EB4Full);
  return static_cast<std::size_t>(mixed ^ (mixed >> 32));
}

BlockCache::BlockCache(std::uint64_t capacity_bytes)
    : capacity_bytes_(capacity_bytes) {
  shards_.reserve(kShards);
  for (std::size_t i = 0; i < kShards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

BlockCache::Shard& BlockCache::ShardFor(const Key& key) {
  // The high bits: the index's buckets use the low ones.
  return *shards_[(KeyHash{}(key) >> 40) % kShards];
}

std::shared_ptr<const void> BlockCache::Lookup(const Key& key) {
  const bool block = key.kind == kBlockKind;
  Shard& shard = ShardFor(key);
  std::shared_ptr<const void> value;
  {
    std::lock_guard<std::mutex> lock(shard.mutex);
    auto it = shard.entries.find(key);
    if (it != shard.entries.end()) {
      value = it->second.value;
      if (!block) {
        it->second.slot->tick =
            clock_.fetch_add(1, std::memory_order_relaxed) + 1;
        shard.order.splice(shard.order.begin(), shard.order, it->second.slot);
        shard.lowest_tick.store(shard.order.back().tick,
                                std::memory_order_relaxed);
      }
    }
    ++(block ? (value ? shard.block_hits : shard.block_misses)
             : (value ? shard.stay_hits : shard.stay_misses));
  }
  if (const Instruments* instruments = GetInstruments()) {
    (value ? instruments->cache_hits : instruments->cache_misses)->Add(1);
    (block ? (value ? instruments->cache_block_hits
                    : instruments->cache_block_misses)
           : (value ? instruments->cache_stay_hits
                    : instruments->cache_stay_misses))
        ->Add(1);
  }
  return value;
}

bool BlockCache::EvictOne() {
  while (true) {
    Shard* victim_shard = nullptr;
    std::int64_t lowest = kNoTick;
    for (const auto& shard : shards_) {
      const std::int64_t tick =
          shard->lowest_tick.load(std::memory_order_relaxed);
      if (tick < lowest) {
        lowest = tick;
        victim_shard = shard.get();
      }
    }
    if (victim_shard == nullptr) return false;
    std::shared_ptr<const void> victim_value;  // Released after the lock.
    std::uint64_t cost = 0;
    {
      std::lock_guard<std::mutex> lock(victim_shard->mutex);
      // Another insert may have emptied the shard or evicted its oldest
      // entry since the scan; then scan again.
      if (victim_shard->order.empty() ||
          victim_shard->order.back().tick != lowest) {
        continue;
      }
      auto victim = victim_shard->entries.find(victim_shard->order.back().key);
      cost = victim->second.cost;
      victim_value = std::move(victim->second.value);
      victim_shard->entries.erase(victim);
      victim_shard->order.pop_back();
      victim_shard->lowest_tick.store(victim_shard->order.empty()
                                          ? kNoTick
                                          : victim_shard->order.back().tick,
                                      std::memory_order_relaxed);
      ++victim_shard->evictions;
      bytes_.fetch_sub(cost, std::memory_order_relaxed);
    }
    if (const Instruments* instruments = GetInstruments()) {
      instruments->cache_bytes->Add(-static_cast<std::int64_t>(cost));
      instruments->cache_evictions->Add(1);
    }
    return true;
  }
}

void BlockCache::Insert(const Key& key, std::shared_ptr<const void> value,
                        std::uint64_t payload_bytes) {
  const std::uint64_t cost = payload_bytes + kEntryOverheadBytes;
  // Make room first, so the entry being inserted is never the one
  // evicted, even when it alone exceeds the budget.
  while (bytes_.load(std::memory_order_relaxed) + cost > capacity_bytes_ &&
         EvictOne()) {
  }
  Shard& shard = ShardFor(key);
  {
    std::lock_guard<std::mutex> lock(shard.mutex);
    if (shard.entries.contains(key)) return;  // Lost a same-key miss race.
    const std::int64_t tick =
        clock_.fetch_add(1, std::memory_order_relaxed) + 1;
    const auto slot =
        key.kind == kBlockKind
            ? shard.order.insert(shard.order.end(), Slot{key, -tick})
            : shard.order.insert(shard.order.begin(), Slot{key, tick});
    shard.entries.emplace(key, Entry{std::move(value), cost, slot});
    shard.lowest_tick.store(shard.order.back().tick,
                            std::memory_order_relaxed);
    bytes_.fetch_add(cost, std::memory_order_relaxed);
  }
  if (const Instruments* instruments = GetInstruments()) {
    instruments->cache_bytes->Add(static_cast<std::int64_t>(cost));
  }
}

BlockCache::BlockPtr BlockCache::Get(std::uint64_t segment_tag,
                                     std::uint32_t block_index) {
  return std::static_pointer_cast<const EventStream>(
      Lookup(Key{segment_tag, block_index, kBlockKind}));
}

void BlockCache::Put(std::uint64_t segment_tag, std::uint32_t block_index,
                     BlockPtr block) {
  if (block == nullptr) return;
  const std::uint64_t payload_bytes = block->capacity() * sizeof(Event);
  Insert(Key{segment_tag, block_index, kBlockKind}, std::move(block),
         payload_bytes);
}

BlockCache::Stats BlockCache::GetStats() const {
  Stats stats;
  stats.capacity_bytes = capacity_bytes_;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mutex);
    stats.stay_hits += shard->stay_hits;
    stats.stay_misses += shard->stay_misses;
    stats.block_hits += shard->block_hits;
    stats.block_misses += shard->block_misses;
    stats.evictions += shard->evictions;
  }
  stats.hits = stats.stay_hits + stats.block_hits;
  stats.misses = stats.stay_misses + stats.block_misses;
  stats.lookups = stats.hits + stats.misses;
  stats.bytes = bytes_.load(std::memory_order_relaxed);
  return stats;
}

std::uint64_t BlockCache::NextSegmentTag() {
  static std::atomic<std::uint64_t> next_tag{1};
  return next_tag.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace spire
