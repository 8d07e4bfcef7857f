#include "query/block_cache.h"

#include <cstring>
#include <new>

#include "obs/registry.h"

namespace spire {

namespace {

struct Instruments {
  obs::Counter* cache_hits;
  obs::Counter* cache_misses;
  obs::Counter* cache_stay_hits;
  obs::Counter* cache_stay_misses;
  /// By key kind: block, object, container, location.
  obs::Counter* kind_hits[4];
  obs::Counter* kind_misses[4];
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
      {registry.GetCounter("query", "cache_block_hits"),
       registry.GetCounter("query", "cache_object_hits"),
       registry.GetCounter("query", "cache_container_hits"),
       registry.GetCounter("query", "cache_location_hits")},
      {registry.GetCounter("query", "cache_block_misses"),
       registry.GetCounter("query", "cache_object_misses"),
       registry.GetCounter("query", "cache_container_misses"),
       registry.GetCounter("query", "cache_location_misses")},
      registry.GetCounter("query", "cache_evictions"),
      registry.GetGauge("query", "cache_bytes"),
  };
  return &instruments;
}

}  // namespace

std::size_t BlockCache::HashOf(const Key& key) {
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

BlockCache::~BlockCache() {
  for (const auto& shard : shards_) {
    for (Entry* entry = shard->newest; entry != nullptr;) {
      Entry* older = entry->older;
      Free(entry);
      entry = older;
    }
  }
}

void BlockCache::Free(Entry* entry) {
  entry->~Entry();
  ::operator delete(entry);
}

BlockCache::Shard& BlockCache::ShardFor(std::size_t hash) {
  // The high bits: the buckets use the low ones.
  return *shards_[(hash >> 40) % kShards];
}

BlockCache::Entry* BlockCache::Shard::Find(const Key& key,
                                           std::size_t hash) const {
  if (buckets.empty()) return nullptr;
  for (Entry* entry = buckets[hash & (buckets.size() - 1)]; entry != nullptr;
       entry = entry->chain) {
    if (entry->id == key.id && entry->tag == key.tag &&
        entry->kind == key.kind) {
      return entry;
    }
  }
  return nullptr;
}

void BlockCache::Shard::Add(Entry* entry, std::size_t hash, bool hot) {
  if (count == buckets.size()) {
    // Double, so the slots never exceed two per entry (kIndexSlotBytes).
    std::vector<Entry*> grown(buckets.empty() ? 1 : 2 * buckets.size(),
                              nullptr);
    for (Entry* head : buckets) {
      while (head != nullptr) {
        Entry* next = head->chain;
        Entry*& bucket = grown[HashOf(Key{head->tag, head->id, head->kind}) &
                               (grown.size() - 1)];
        head->chain = bucket;
        bucket = head;
        head = next;
      }
    }
    buckets.swap(grown);
  }
  Entry*& bucket = buckets[hash & (buckets.size() - 1)];
  entry->chain = bucket;
  bucket = entry;
  ++count;
  hot ? PushHot(entry) : PushCold(entry);
}

void BlockCache::Shard::Remove(Entry* entry, std::size_t hash) {
  Entry** link = &buckets[hash & (buckets.size() - 1)];
  while (*link != entry) link = &(*link)->chain;
  *link = entry->chain;
  --count;
  Detach(entry);
}

void BlockCache::Shard::Touch(Entry* entry) {
  if (entry == newest) return;
  Detach(entry);
  PushHot(entry);
}

void BlockCache::Shard::PushHot(Entry* entry) {
  entry->newer = nullptr;
  entry->older = newest;
  (newest != nullptr ? newest->newer : oldest) = entry;
  newest = entry;
}

void BlockCache::Shard::PushCold(Entry* entry) {
  entry->older = nullptr;
  entry->newer = oldest;
  (oldest != nullptr ? oldest->older : newest) = entry;
  oldest = entry;
}

void BlockCache::Shard::Detach(Entry* entry) {
  (entry->newer != nullptr ? entry->newer->older : newest) = entry->older;
  (entry->older != nullptr ? entry->older->newer : oldest) = entry->newer;
}

void BlockCache::Shard::PublishLowestTick() {
  lowest_tick.store(oldest == nullptr ? kNoTick : oldest->tick,
                    std::memory_order_relaxed);
}

bool BlockCache::Visit(const Key& key, Thunk thunk, void* visitor) {
  const std::size_t hash = HashOf(key);
  Shard& shard = ShardFor(hash);
  bool hit = false;
  {
    std::lock_guard<std::mutex> lock(shard.mutex);
    Entry* entry = shard.Find(key, hash);
    hit = entry != nullptr;
    ++(hit ? shard.hits : shard.misses)[key.kind];
    if (hit) {
      if (key.kind != kBlockKind) {
        entry->tick = clock_.fetch_add(1, std::memory_order_relaxed) + 1;
        shard.Touch(entry);
        shard.PublishLowestTick();
      }
      thunk(visitor, entry->payload(), entry->bytes);
    }
  }
  if (const Instruments* instruments = GetInstruments()) {
    (hit ? instruments->cache_hits : instruments->cache_misses)->Add(1);
    (hit ? instruments->kind_hits : instruments->kind_misses)[key.kind]->Add(1);
    if (key.kind != kBlockKind) {
      (hit ? instruments->cache_stay_hits : instruments->cache_stay_misses)
          ->Add(1);
    }
  }
  return hit;
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
    Entry* victim = nullptr;
    std::uint64_t cost = 0;
    {
      std::lock_guard<std::mutex> lock(victim_shard->mutex);
      // Another insert may have emptied the shard or evicted its oldest
      // entry since the scan; then scan again.
      victim = victim_shard->oldest;
      if (victim == nullptr || victim->tick != lowest) continue;
      victim_shard->Remove(
          victim, HashOf(Key{victim->tag, victim->id, victim->kind}));
      victim_shard->PublishLowestTick();
      ++victim_shard->evictions;
      cost = ChargeOf(victim->bytes);
      bytes_.fetch_sub(cost, std::memory_order_relaxed);
    }
    // Unreachable now, and no reader is inside it: visits hold the lock.
    Free(victim);
    if (const Instruments* instruments = GetInstruments()) {
      instruments->cache_bytes->Add(-static_cast<std::int64_t>(cost));
      instruments->cache_evictions->Add(1);
    }
    return true;
  }
}

void BlockCache::Insert(const Key& key, const void* payload,
                        std::size_t bytes) {
  const std::uint64_t cost = ChargeOf(bytes);
  // Make room first, so the entry being inserted is never the one
  // evicted, even when it alone exceeds the budget.
  while (bytes_.load(std::memory_order_relaxed) + cost > capacity_bytes_ &&
         EvictOne()) {
  }
  Entry* entry = new (::operator new(sizeof(Entry) + bytes)) Entry;
  entry->tag = key.tag;
  entry->id = key.id;
  entry->kind = key.kind;
  entry->bytes = static_cast<std::uint32_t>(bytes);
  if (bytes > 0) std::memcpy(entry + 1, payload, bytes);
  const std::size_t hash = HashOf(key);
  Shard& shard = ShardFor(hash);
  {
    std::lock_guard<std::mutex> lock(shard.mutex);
    if (shard.Find(key, hash) == nullptr) {
      const std::int64_t tick =
          clock_.fetch_add(1, std::memory_order_relaxed) + 1;
      const bool stays = key.kind != kBlockKind;
      entry->tick = stays ? tick : -tick;
      shard.Add(entry, hash, /*hot=*/stays);
      shard.PublishLowestTick();
      bytes_.fetch_add(cost, std::memory_order_relaxed);
      entry = nullptr;
    }
  }
  if (entry != nullptr) {  // Lost a same-key miss race.
    Free(entry);
    return;
  }
  if (const Instruments* instruments = GetInstruments()) {
    instruments->cache_bytes->Add(static_cast<std::int64_t>(cost));
  }
}

void BlockCache::PutBlock(std::uint64_t segment_tag, std::uint32_t block_index,
                          std::span<const Event> events) {
  Insert(Key{segment_tag, block_index, kBlockKind}, events.data(),
         events.size_bytes());
}

void BlockCache::PutStays(std::uint64_t segment_tag, KeyKind kind,
                          std::uint64_t id,
                          std::span<const std::uint8_t> payload) {
  Insert(Key{segment_tag, id, Kind(kind)}, payload.data(), payload.size());
}

BlockCache::Stats BlockCache::GetStats() const {
  Stats stats;
  stats.capacity_bytes = capacity_bytes_;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mutex);
    stats.block_hits += shard->hits[kBlockKind];
    stats.block_misses += shard->misses[kBlockKind];
    stats.object_hits += shard->hits[Kind(KeyKind::kObject)];
    stats.object_misses += shard->misses[Kind(KeyKind::kObject)];
    stats.container_hits += shard->hits[Kind(KeyKind::kContainer)];
    stats.container_misses += shard->misses[Kind(KeyKind::kContainer)];
    stats.location_hits += shard->hits[Kind(KeyKind::kLocation)];
    stats.location_misses += shard->misses[Kind(KeyKind::kLocation)];
    stats.evictions += shard->evictions;
  }
  stats.stay_hits =
      stats.object_hits + stats.container_hits + stats.location_hits;
  stats.stay_misses =
      stats.object_misses + stats.container_misses + stats.location_misses;
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
