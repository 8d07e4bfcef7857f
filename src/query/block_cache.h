// LRU cache behind segment-direct queries (segment_log.h), shared by
// concurrent query threads. It holds two kinds of entries under one byte
// budget:
//
//   - Stay entries: one query key's folded stays — the fold of that key's
//     whole posting list, keyed by (segment tag, key kind, id) where the
//     kind is object, container or location. A stay entry answers its key
//     at every epoch, so a hot key costs one lookup and no decode. Its
//     payload is the key's stays in SegmentLog's compact encoding; the
//     cache does not read it. Stay entries go in at the hot end and move
//     back to it on every hit.
//   - Block entries: decoded archive blocks, keyed by (segment tag, block
//     index) — what a stay-entry miss folds through. A block goes in at
//     the cold end and a hit does not promote it, so the hundreds of
//     blocks one large build passes through evict each other (and cold
//     leftovers) before any stay entry.
//
// Both kinds are one Entry: a header and the payload bytes in a single
// allocation. The header carries the key, the entry's tick, its shard's
// LRU links and its index chain link, so an entry costs one malloc chunk
// plus its slots in its shard's bucket array, and nothing else.
//
// Readers never hold an entry: Visit* calls the reader's visitor on the
// payload under the entry's shard lock, and eviction takes that lock to
// unlink an entry, so an entry is never freed while a reader is in it.
// A visitor must not call back into the cache.
//
// Tags come from NextSegmentTag(), a process-wide counter, so two opens of
// the same path — or a segment replaced on disk by `compact` — never alias
// cache entries: a SegmentLog is snapshot-isolated from whatever happens
// to the file after open.
//
// Capacity is one byte budget over the whole cache, so one entry may be as
// large as the budget (an entry larger still is kept until the next
// insert). Every entry is charged ChargeOf(payload bytes): its allocation
// as glibc's malloc lays it out, and its share of the bucket array.
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
#include <memory>
#include <mutex>
#include <span>
#include <type_traits>
#include <vector>

#include "compress/event.h"

namespace spire {

class BlockCache {
 public:
  /// The key a stay entry folds.
  enum class KeyKind : std::uint8_t { kObject = 1, kContainer, kLocation };

  /// Counters over the whole cache. lookups == hits + misses by
  /// construction, each split into stay and block entries, and the stay
  /// counts further by key kind; bytes is the charged footprint.
  struct Stats {
    std::uint64_t lookups = 0;
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t stay_hits = 0;
    std::uint64_t stay_misses = 0;
    std::uint64_t object_hits = 0;
    std::uint64_t object_misses = 0;
    std::uint64_t container_hits = 0;
    std::uint64_t container_misses = 0;
    std::uint64_t location_hits = 0;
    std::uint64_t location_misses = 0;
    std::uint64_t block_hits = 0;
    std::uint64_t block_misses = 0;
    std::uint64_t evictions = 0;
    std::uint64_t bytes = 0;
    std::uint64_t capacity_bytes = 0;
  };

  /// A cache holding up to `capacity_bytes` of charged entries.
  explicit BlockCache(std::uint64_t capacity_bytes);
  ~BlockCache();

  BlockCache(const BlockCache&) = delete;
  BlockCache& operator=(const BlockCache&) = delete;

  /// On a hit, calls `visit(std::span<const Event>)` on the decoded block
  /// under its shard lock and returns true; false on a miss (counted). A
  /// hit leaves the block where it is in the eviction order.
  template <typename Visitor>
  bool VisitBlock(std::uint64_t segment_tag, std::uint32_t block_index,
                  Visitor&& visit) {
    return Visit(Key{segment_tag, block_index, kBlockKind},
                 &Call<Visitor, Event>, &visit);
  }

  /// Offers a decoded block at the cold end. No-op when the key is already
  /// present (the loser of a concurrent same-key miss race).
  void PutBlock(std::uint64_t segment_tag, std::uint32_t block_index,
                std::span<const Event> events);

  /// On a hit, calls `visit(std::span<const std::uint8_t>)` on the key's
  /// stay payload under its shard lock, moves the entry to the hot end and
  /// returns true; false on a miss (counted).
  template <typename Visitor>
  bool VisitStays(std::uint64_t segment_tag, KeyKind kind, std::uint64_t id,
                  Visitor&& visit) {
    return Visit(Key{segment_tag, id, Kind(kind)},
                 &Call<Visitor, std::uint8_t>, &visit);
  }

  /// Inserts a copy of the key's stay payload at the hot end, evicting
  /// from the cold end first so the new entry is never the one evicted.
  /// No-op when the key is already present.
  void PutStays(std::uint64_t segment_tag, KeyKind kind, std::uint64_t id,
                std::span<const std::uint8_t> payload);

  Stats GetStats() const;

  std::uint64_t capacity_bytes() const { return capacity_bytes_; }

  /// Process-wide unique tag for one opened segment view; see file comment.
  static std::uint64_t NextSegmentTag();

  /// What an entry with `payload_bytes` of payload is charged: its one
  /// allocation as glibc's malloc lays it out (an 8-byte size word, rounded
  /// up to 16 bytes) plus kIndexSlotBytes.
  static constexpr std::uint64_t ChargeOf(std::uint64_t payload_bytes) {
    return ((sizeof(Entry) + payload_bytes + 8 + 15) & ~std::uint64_t{15}) +
           kIndexSlotBytes;
  }

  /// An entry's share of its shard's bucket array, which doubles when the
  /// entries outnumber its slots: at most two 8-byte slots per entry.
  static constexpr std::uint64_t kIndexSlotBytes = 2 * sizeof(void*);

  /// The per-entry overhead of the cache's earlier layout (an index node, a
  /// list node and a shared_ptr around a vector). Nothing here charges it;
  /// perfbench sizes query_hot's budget from it, which keeps that budget
  /// the same across layouts.
  static constexpr std::uint64_t kEntryOverheadBytes = 240;

 private:
  static constexpr std::uint8_t kBlockKind = 0;
  static constexpr std::size_t kKinds = 4;  ///< kBlockKind and the KeyKinds.
  static constexpr std::size_t kShards = 8;
  static constexpr std::int64_t kNoTick =
      std::numeric_limits<std::int64_t>::max();

  static constexpr std::uint8_t Kind(KeyKind kind) {
    return static_cast<std::uint8_t>(kind);
  }

  struct Key {
    std::uint64_t tag = 0;
    std::uint64_t id = 0;  ///< Block index, object, container or location.
    std::uint8_t kind = kBlockKind;
  };

  /// One cached entry: this header, then `bytes` of payload in the same
  /// allocation (operator new of sizeof(Entry) + bytes).
  struct Entry {
    Entry* chain = nullptr;  ///< The next entry in its index bucket.
    Entry* newer = nullptr;  ///< Toward its shard's hot end.
    Entry* older = nullptr;  ///< Toward its shard's cold end.
    std::uint64_t tag = 0;
    std::uint64_t id = 0;
    std::int64_t tick = 0;
    std::uint32_t bytes = 0;
    std::uint8_t kind = kBlockKind;

    const std::uint8_t* payload() const {
      return reinterpret_cast<const std::uint8_t*>(this + 1);
    }
  };
  static_assert(sizeof(Entry) % alignof(Event) == 0,
                "a block's events follow the header aligned");
  static_assert(std::is_trivially_copyable_v<Event> &&
                    std::is_trivially_destructible_v<Event>,
                "block payloads are copied and freed as bytes");

  struct Shard {
    mutable std::mutex mutex;
    /// Chains by key hash; a power of two in size, at least the entries.
    std::vector<Entry*> buckets;
    std::size_t count = 0;
    Entry* newest = nullptr;  ///< Ticks descend from here...
    Entry* oldest = nullptr;  ///< ...to here, the shard's next eviction.
    /// oldest->tick, or kNoTick when empty; read without the lock to
    /// choose the shard an eviction locks.
    std::atomic<std::int64_t> lowest_tick{kNoTick};
    /// Lookups by outcome and Key::kind (kBlockKind, then KeyKind).
    std::uint64_t hits[kKinds] = {};
    std::uint64_t misses[kKinds] = {};
    std::uint64_t evictions = 0;

    Entry* Find(const Key& key, std::size_t hash) const;
    /// Indexes the entry and puts it at the hot or the cold end.
    void Add(Entry* entry, std::size_t hash, bool hot);
    /// Takes the entry out of the index and the eviction order.
    void Remove(Entry* entry, std::size_t hash);
    /// Moves the entry to the hot end.
    void Touch(Entry* entry);
    void PushHot(Entry* entry);
    void PushCold(Entry* entry);
    void Detach(Entry* entry);
    void PublishLowestTick();
  };

  /// Calls a visitor on a payload of `bytes` bytes read as T.
  using Thunk = void (*)(void* visitor, const std::uint8_t* payload,
                         std::uint32_t bytes);

  template <typename Visitor, typename T>
  static void Call(void* visitor, const std::uint8_t* payload,
                   std::uint32_t bytes) {
    (*static_cast<std::remove_reference_t<Visitor>*>(visitor))(
        std::span<const T>(reinterpret_cast<const T*>(payload),
                           bytes / sizeof(T)));
  }

  static std::size_t HashOf(const Key& key);
  Shard& ShardFor(std::size_t hash);

  /// Counts the lookup; on a hit calls `thunk` on the payload under the
  /// shard lock, after a stay entry takes a fresh tick and moves to its
  /// shard's hot end.
  bool Visit(const Key& key, Thunk thunk, void* visitor);

  /// Evicts until the entry's charge fits, then inserts a copy of
  /// `payload`; no-op on the entries when the key is present.
  void Insert(const Key& key, const void* payload, std::size_t bytes);

  /// Evicts the entry with the cache-wide lowest tick; false when the
  /// cache is empty.
  bool EvictOne();

  static void Free(Entry* entry);

  const std::uint64_t capacity_bytes_;
  std::atomic<std::uint64_t> bytes_{0};
  std::atomic<std::int64_t> clock_{0};
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace spire
