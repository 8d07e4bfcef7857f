// LRU cache behind segment-direct queries (segment_log.h), shared by
// concurrent query threads. It holds two kinds of entries under one byte
// budget:
//
//   - Stay entries: one query key's folded stays — the fold of that key's
//     whole posting list, keyed by (segment tag, key kind, id) where the
//     kind is object, container or location. A stay entry answers its key
//     at every epoch, so a hot key costs one lookup and no decode. Stay
//     entries go in at the hot end and move back to it on every hit.
//   - Block entries: decoded archive blocks, keyed by (segment tag, block
//     index) — what a stay-entry miss folds through. A block goes in at
//     the cold end and a hit does not promote it, so the hundreds of
//     blocks one large build passes through evict each other (and cold
//     leftovers) before any stay entry.
//
// Entries are handed out as shared_ptr<const ...>, so an entry evicted
// while a reader still folds or answers from it stays alive until that
// reader drops it — eviction never invalidates an in-flight query.
//
// Tags come from NextSegmentTag(), a process-wide counter, so two opens of
// the same path — or a segment replaced on disk by `compact` — never alias
// cache entries: a SegmentLog is snapshot-isolated from whatever happens
// to the file after open.
//
// Capacity is one byte budget over the whole cache, so one entry may be as
// large as the budget (an entry larger still is kept until the next
// insert). Every entry is charged its real allocation: the payload
// vector's capacity plus kEntryOverheadBytes for its nodes.
//
// Locking is split over shards by key hash, so lookups of different keys
// rarely contend; eviction order is still global. Every entry carries a
// tick from one cache-wide clock: a stay entry takes a fresh positive tick
// when inserted and on every hit, a block a fresh negative one when
// inserted, so the newest block has the lowest tick. Each shard keeps its
// entries in tick order and publishes the lowest; an insert first evicts
// the cache-wide lowest until its entry fits, so the entry being inserted
// is never the one evicted. Concurrent inserts may overshoot the budget by
// the entries in flight until the next insert. Concurrent misses on one
// key may both build or decode (misses can exceed unique keys;
// `decodes <= misses` is the reconciliation invariant, with
// `hits + misses == lookups`) — the second insert is a no-op, which keeps
// the bytes accounting exact.
#pragma once

#include <atomic>
#include <cstdint>
#include <limits>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "compress/event.h"

namespace spire {

class BlockCache {
 public:
  using BlockPtr = std::shared_ptr<const EventStream>;
  template <typename Stay>
  using StaysPtr = std::shared_ptr<const std::vector<Stay>>;

  /// The key a stay entry folds. Each kind holds one stay type.
  enum class KeyKind : std::uint8_t { kObject = 1, kContainer, kLocation };

  /// Counters over the whole cache. lookups == hits + misses by
  /// construction, each split into stay and block entries; bytes is the
  /// charged footprint.
  struct Stats {
    std::uint64_t lookups = 0;
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t stay_hits = 0;
    std::uint64_t stay_misses = 0;
    std::uint64_t block_hits = 0;
    std::uint64_t block_misses = 0;
    std::uint64_t evictions = 0;
    std::uint64_t bytes = 0;
    std::uint64_t capacity_bytes = 0;
  };

  /// A cache holding up to `capacity_bytes` of charged entries.
  explicit BlockCache(std::uint64_t capacity_bytes);

  BlockCache(const BlockCache&) = delete;
  BlockCache& operator=(const BlockCache&) = delete;

  /// The decoded block, or nullptr on a miss (counted). A hit leaves the
  /// block where it is in the eviction order.
  BlockPtr Get(std::uint64_t segment_tag, std::uint32_t block_index);

  /// Offers a decoded block at the cold end. No-op when the key is already
  /// present (the loser of a concurrent same-key miss race).
  void Put(std::uint64_t segment_tag, std::uint32_t block_index,
           BlockPtr block);

  /// The key's folded stays, or nullptr on a miss (counted). A hit moves
  /// the entry to the hot end.
  template <typename Stay>
  StaysPtr<Stay> GetStays(std::uint64_t segment_tag, KeyKind kind,
                          std::uint64_t id) {
    return std::static_pointer_cast<const std::vector<Stay>>(
        Lookup(Key{segment_tag, id, static_cast<std::uint8_t>(kind)}));
  }

  /// Inserts the key's folded stays at the hot end, evicting from the cold
  /// end first so the new entry is never the one evicted; returns them.
  /// No-op on the cache when the key is already present.
  template <typename Stay>
  StaysPtr<Stay> PutStays(std::uint64_t segment_tag, KeyKind kind,
                          std::uint64_t id, std::vector<Stay> stays) {
    const std::uint64_t cost = stays.capacity() * sizeof(Stay);
    auto entry = std::make_shared<const std::vector<Stay>>(std::move(stays));
    Insert(Key{segment_tag, id, static_cast<std::uint8_t>(kind)}, entry,
           cost);
    return entry;
  }

  Stats GetStats() const;

  std::uint64_t capacity_bytes() const { return capacity_bytes_; }

  /// Process-wide unique tag for one opened segment view; see file comment.
  static std::uint64_t NextSegmentTag();

  /// Charged per entry on top of its payload buffer: the LRU list node,
  /// the index node and its bucket, the shared_ptr control block with the
  /// vector inside it, and the payload buffer's malloc header and rounding.
  static constexpr std::uint64_t kEntryOverheadBytes = 240;

 private:
  static constexpr std::uint8_t kBlockKind = 0;
  static constexpr std::size_t kShards = 8;
  static constexpr std::int64_t kNoTick =
      std::numeric_limits<std::int64_t>::max();

  struct Key {
    std::uint64_t tag = 0;
    std::uint64_t id = 0;  ///< Block index, object, container or location.
    std::uint8_t kind = kBlockKind;
    bool operator==(const Key&) const = default;
  };

  struct KeyHash {
    std::size_t operator()(const Key& key) const;
  };

  /// One place in a shard's eviction order.
  struct Slot {
    Key key;
    std::int64_t tick = 0;
  };

  struct Entry {
    std::shared_ptr<const void> value;
    std::uint64_t cost = 0;
    std::list<Slot>::iterator slot;
  };

  struct Shard {
    mutable std::mutex mutex;
    std::list<Slot> order;  ///< Ticks descending: front newest, back next.
    std::unordered_map<Key, Entry, KeyHash> entries;
    /// order.back().tick, or kNoTick when empty; read without the lock to
    /// choose the shard an eviction locks.
    std::atomic<std::int64_t> lowest_tick{kNoTick};
    std::uint64_t stay_hits = 0;
    std::uint64_t stay_misses = 0;
    std::uint64_t block_hits = 0;
    std::uint64_t block_misses = 0;
    std::uint64_t evictions = 0;
  };

  Shard& ShardFor(const Key& key);

  /// The entry's value or nullptr, counting the lookup; stay hits take a
  /// fresh tick and move to their shard's front.
  std::shared_ptr<const void> Lookup(const Key& key);

  /// Evicts until `payload_bytes` plus the overhead fits, then inserts;
  /// no-op on the entries when the key is present.
  void Insert(const Key& key, std::shared_ptr<const void> value,
              std::uint64_t payload_bytes);

  /// Evicts the entry with the cache-wide lowest tick; false when the
  /// cache is empty.
  bool EvictOne();

  const std::uint64_t capacity_bytes_;
  std::atomic<std::uint64_t> bytes_{0};
  std::atomic<std::int64_t> clock_{0};
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace spire
