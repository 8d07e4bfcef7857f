#include "query/segment_log.h"

#include <algorithm>
#include <span>

#include "obs/registry.h"

namespace spire {

namespace {

struct Instruments {
  obs::Counter* queries;
  obs::Counter* blocks_decoded;
};

const Instruments* GetInstruments() {
  if (!spire::obs::Enabled()) return nullptr;
  auto& registry = obs::Registry::Global();
  static const Instruments instruments{
      registry.GetCounter("query", "queries"),
      registry.GetCounter("query", "blocks_decoded"),
  };
  return &instruments;
}

void CountQuery() {
  if (const Instruments* instruments = GetInstruments()) {
    instruments->queries->Add(1);
  }
}

/// The fold under every entry build. Stays accumulate in a flat vector in
/// the stream order of their opening events. An End closes its (object,
/// kind)'s open stay through an open index from (object, kind) to stay
/// slot and removes that key, exactly as FoldEvents' ordered map does —
/// but the index is an open-addressed table that holds only the stays
/// open at the current event, so it stays small on long streams, and
/// nothing is sorted. (A std::unordered_map index, one node allocation per
/// Start, cost query_hot 9-21% of its throughput, median of 10 pairs.)
template <typename Stay>
class StayFold {
 public:
  /// A Start: opens `stay` under (object, kind). Like FoldEvents, a second
  /// Start replaces the open slot; the earlier stay then stays open.
  void Open(ObjectId object, EventType type, const Stay& stay) {
    const std::uint32_t kind = KindOf(type);
    if (2 * (open_ + 1) > table_.size()) Grow();
    Entry& entry = table_[Find(object, kind)];
    if (entry.kind == 0) {
      entry.object = object;
      entry.kind = kind;
      ++open_;
    }
    entry.slot = static_cast<std::uint32_t>(stays_.size());
    stays_.push_back(stay);
  }

  /// An End: closes (object, kind)'s open stay at `end`, if one is open.
  void Close(ObjectId object, EventType type, Epoch end) {
    const std::uint32_t slot = Remove(object, KindOf(type));
    if (slot != kNoSlot) stays_[slot].end = end;
  }

  /// A report that opens and closes in one event (Missing).
  void Append(const Stay& stay) { stays_.push_back(stay); }

  std::vector<Stay> Take() { return std::move(stays_); }

 private:
  static constexpr std::uint32_t kNoSlot = ~std::uint32_t{0};

  /// One open stay: its key and slot. kind 0 marks a free entry.
  struct Entry {
    ObjectId object = kNoObject;
    std::uint32_t slot = kNoSlot;
    std::uint32_t kind = 0;  ///< 1: location, 2: containment.
  };

  static std::uint32_t KindOf(EventType type) {
    return IsContainmentEvent(type) ? 2 : 1;
  }

  std::size_t Home(ObjectId object) const {
    return ((object * 0x9E3779B97F4A7C15ull) >> 32) & (table_.size() - 1);
  }

  /// The key's entry, or the free entry where it would go: linear probing
  /// over a power-of-two table at most half full.
  std::size_t Find(ObjectId object, std::uint32_t kind) const {
    const std::size_t mask = table_.size() - 1;
    std::size_t i = Home(object);
    while (table_[i].kind != 0 &&
           (table_[i].object != object || table_[i].kind != kind)) {
      i = (i + 1) & mask;
    }
    return i;
  }

  /// Removes the key and returns its stay's slot (kNoSlot when not open).
  std::uint32_t Remove(ObjectId object, std::uint32_t kind) {
    if (open_ == 0) return kNoSlot;
    std::size_t i = Find(object, kind);
    if (table_[i].kind == 0) return kNoSlot;
    const std::uint32_t slot = table_[i].slot;
    // Backward-shift deletion: pull each later entry of the probe run
    // whose home lies at or before the hole into it, so no run breaks.
    const std::size_t mask = table_.size() - 1;
    for (std::size_t j = (i + 1) & mask; table_[j].kind != 0;
         j = (j + 1) & mask) {
      if (((j - Home(table_[j].object)) & mask) >= ((j - i) & mask)) {
        table_[i] = table_[j];
        i = j;
      }
    }
    table_[i] = Entry{};
    --open_;
    return slot;
  }

  void Grow() {
    std::vector<Entry> old(table_.empty() ? 16 : 2 * table_.size());
    old.swap(table_);
    for (const Entry& entry : old) {
      if (entry.kind != 0) table_[Find(entry.object, entry.kind)] = entry;
    }
  }

  std::vector<Stay> stays_;
  std::vector<Entry> table_;
  std::size_t open_ = 0;  ///< Keys in the table.
};

}  // namespace

/// One stay of an object entry: a location stay, a containment stay or a
/// Missing report (its `type` is the opening event's).
struct SegmentLog::ObjectStay {
  Epoch start = kNeverEpoch;
  Epoch end = kInfiniteEpoch;
  ObjectId container = kNoObject;          ///< kStartContainment only.
  LocationId location = kUnknownLocation;  ///< Location stays and reports.
  EventType type = EventType::kStartLocation;
};

/// One stay of a location entry (the object at the location) or of a
/// container entry (the object directly inside the container).
struct SegmentLog::KeyStay {
  ObjectId object = kNoObject;
  Epoch start = kNeverEpoch;
  Epoch end = kInfiniteEpoch;
};

namespace {

/// Entry builders: which events of a posting block belong to the key, and
/// how they fold. An object entry keeps every event of the object, in
/// stream order; location and container entries keep the opened stays of
/// their kind, sorted by end (`Finish`).
template <typename ObjectStay>
struct ObjectBuilder {
  using Stay = ObjectStay;
  ObjectId object;

  void Add(const Event& event, StayFold<Stay>* fold) const {
    if (event.object != object) return;
    switch (event.type) {
      case EventType::kStartLocation:
        fold->Open(object, event.type,
                   Stay{event.start, kInfiniteEpoch, kNoObject,
                        event.location, event.type});
        break;
      case EventType::kStartContainment:
        fold->Open(object, event.type,
                   Stay{event.start, kInfiniteEpoch, event.container,
                        kUnknownLocation, event.type});
        break;
      case EventType::kEndLocation:
      case EventType::kEndContainment:
        fold->Close(object, event.type, event.end);
        break;
      case EventType::kMissing:
        fold->Append(Stay{event.start, event.end, kNoObject, event.location,
                          event.type});
        break;
    }
  }

  static void Finish(std::vector<Stay>*) {}
};

/// Location entries (containment = false) and container entries
/// (containment = true).
template <typename KeyStay, bool containment>
struct KeyBuilder {
  using Stay = KeyStay;
  std::uint64_t key;

  void Add(const Event& event, StayFold<Stay>* fold) const {
    if (IsContainmentEvent(event.type) != containment) return;
    if ((containment ? event.container : event.location) != key) return;
    switch (event.type) {
      case EventType::kStartLocation:
      case EventType::kStartContainment:
        fold->Open(event.object, event.type,
                   Stay{event.object, event.start, kInfiniteEpoch});
        break;
      case EventType::kEndLocation:
      case EventType::kEndContainment:
        fold->Close(event.object, event.type, event.end);
        break;
      case EventType::kMissing:  // ObjectsAt reads location stays only.
        break;
    }
  }

  static void Finish(std::vector<Stay>* stays) {
    std::sort(stays->begin(), stays->end(),
              [](const Stay& a, const Stay& b) { return a.end < b.end; });
  }
};

/// The covering stay of `type` with the earliest start (at most one on
/// well-formed streams), or null — CoveringStay over FoldEvents' order.
template <typename ObjectStay>
const ObjectStay* EarliestCovering(const std::vector<ObjectStay>& stays,
                                   EventType type, Epoch epoch) {
  const ObjectStay* covering = nullptr;
  for (const ObjectStay& stay : stays) {
    if (stay.type != type || !(stay.start <= epoch && epoch < stay.end)) {
      continue;
    }
    if (covering == nullptr || stay.start < covering->start) covering = &stay;
  }
  return covering;
}

/// The objects of the stays covering `epoch`, ascending. The stays are
/// sorted by end, so only those ending after `epoch` are read.
template <typename KeyStay>
std::vector<ObjectId> CoveringObjects(const std::vector<KeyStay>& stays,
                                      Epoch epoch) {
  auto open = std::partition_point(
      stays.begin(), stays.end(),
      [epoch](const KeyStay& stay) { return stay.end <= epoch; });
  std::vector<ObjectId> objects;
  for (; open != stays.end(); ++open) {
    if (open->start <= epoch) objects.push_back(open->object);
  }
  std::sort(objects.begin(), objects.end());
  return objects;
}

}  // namespace

SegmentLog::SegmentLog(ArchiveReader reader, std::shared_ptr<BlockCache> cache)
    : reader_(std::move(reader)), cache_(std::move(cache)) {
  segment_tag_ = BlockCache::NextSegmentTag();
  monotone_min_epochs_ = true;
  const std::vector<BlockMeta>& blocks = reader_.blocks();
  for (std::size_t i = 1; i < blocks.size(); ++i) {
    if (blocks[i].min_epoch < blocks[i - 1].min_epoch) {
      monotone_min_epochs_ = false;
      break;
    }
  }
}

Result<std::unique_ptr<SegmentLog>> SegmentLog::Open(
    const std::string& path, ReaderOptions options,
    std::shared_ptr<BlockCache> cache) {
  auto reader = ArchiveReader::Open(path, options);
  if (!reader.ok()) return reader.status();
  return std::unique_ptr<SegmentLog>(
      new SegmentLog(std::move(reader).value(), std::move(cache)));
}

Result<BlockCache::BlockPtr> SegmentLog::FetchBlock(
    std::uint32_t index) const {
  if (cache_ != nullptr) {
    if (BlockCache::BlockPtr hit = cache_->Get(segment_tag_, index)) {
      return hit;
    }
  }
  auto decoded = reader_.DecodeOneBlock(index);
  if (!decoded.ok()) return decoded.status();
  blocks_decoded_.fetch_add(1, std::memory_order_relaxed);
  if (const Instruments* instruments = GetInstruments()) {
    instruments->blocks_decoded->Add(1);
  }
  auto block =
      std::make_shared<const EventStream>(std::move(decoded).value());
  if (cache_ != nullptr) cache_->Put(segment_tag_, index, block);
  return block;
}

template <typename Builder>
Result<BlockCache::StaysPtr<typename Builder::Stay>> SegmentLog::StaysOf(
    BlockCache::KeyKind kind, std::uint64_t id,
    const std::vector<std::uint32_t>& postings, Epoch cut) const {
  using Stay = typename Builder::Stay;
  if (cache_ != nullptr) {
    if (auto hit = cache_->GetStays<Stay>(segment_tag_, kind, id)) return hit;
    cut = kInfiniteEpoch;  // An entry folds the whole list.
  }
  const std::vector<BlockMeta>& blocks = reader_.blocks();
  auto below_cut = [&](std::uint32_t index) {
    return blocks[index].min_epoch <= cut;
  };
  // Monotone min-epochs (over the directory, hence over any posting list,
  // a subsequence) make the candidates a binary-searched prefix; otherwise
  // every block is tested on its own.
  std::span<const std::uint32_t> candidates = postings;
  if (monotone_min_epochs_) {
    candidates = candidates.first(static_cast<std::size_t>(
        std::partition_point(postings.begin(), postings.end(), below_cut) -
        postings.begin()));
  }
  const Builder builder{id};
  StayFold<Stay> fold;
  for (std::uint32_t index : candidates) {
    if (!monotone_min_epochs_ && !below_cut(index)) continue;
    auto block = FetchBlock(index);
    if (!block.ok()) return block.status();
    for (const Event& event : *block.value()) builder.Add(event, &fold);
  }
  std::vector<Stay> stays = fold.Take();
  Builder::Finish(&stays);
  if (cache_ == nullptr) {
    return std::make_shared<const std::vector<Stay>>(std::move(stays));
  }
  // The cache charges capacity, and push_back growth leaves up to half of
  // it unused: trimmed, the three door entries of query_hot's archive fit
  // beside the hot objects' instead of evicting them.
  stays.shrink_to_fit();
  return cache_->PutStays(segment_tag_, kind, id, std::move(stays));
}

Result<BlockCache::StaysPtr<SegmentLog::ObjectStay>> SegmentLog::ObjectStays(
    ObjectId object, Epoch cut) const {
  const std::vector<std::uint32_t>* postings =
      reader_.PostingsForObject(object);
  if (postings == nullptr) return BlockCache::StaysPtr<ObjectStay>();
  return StaysOf<ObjectBuilder<ObjectStay>>(BlockCache::KeyKind::kObject,
                                            object, *postings, cut);
}

Result<LocationId> SegmentLog::LocationAt(ObjectId object,
                                          Epoch epoch) const {
  CountQuery();
  auto stays = ObjectStays(object, epoch);
  if (!stays.ok()) return stays.status();
  if (stays.value() == nullptr) return kUnknownLocation;
  const ObjectStay* stay =
      EarliestCovering(*stays.value(), EventType::kStartLocation, epoch);
  return stay == nullptr ? kUnknownLocation : stay->location;
}

Result<ObjectId> SegmentLog::ContainerAt(ObjectId object, Epoch epoch) const {
  CountQuery();
  auto stays = ObjectStays(object, epoch);
  if (!stays.ok()) return stays.status();
  if (stays.value() == nullptr) return kNoObject;
  const ObjectStay* stay =
      EarliestCovering(*stays.value(), EventType::kStartContainment, epoch);
  return stay == nullptr ? kNoObject : stay->container;
}

Status SegmentLog::AppendContents(ObjectId container, Epoch epoch,
                                  bool transitive, std::vector<ObjectId>* out,
                                  std::vector<ObjectId>* visited) const {
  const std::vector<std::uint32_t>* postings =
      reader_.PostingsForContainer(container);
  if (postings == nullptr) return Status::OK();
  auto stays = StaysOf<KeyBuilder<KeyStay, true>>(
      BlockCache::KeyKind::kContainer, container, *postings, epoch);
  if (!stays.ok()) return stays.status();
  const std::vector<ObjectId> direct = CoveringObjects(*stays.value(), epoch);
  out->insert(out->end(), direct.begin(), direct.end());
  if (!transitive) return Status::OK();
  for (ObjectId child : direct) {
    // The containment forest is acyclic on well-formed data; the visited
    // set guards malformed cycles and skips DAG re-visits (the final
    // sort+unique makes the result a set either way).
    if (std::find(visited->begin(), visited->end(), child) != visited->end()) {
      continue;
    }
    visited->push_back(child);
    SPIRE_RETURN_NOT_OK(AppendContents(child, epoch, true, out, visited));
  }
  return Status::OK();
}

Result<std::vector<ObjectId>> SegmentLog::ContentsAt(ObjectId container,
                                                     Epoch epoch,
                                                     bool transitive) const {
  CountQuery();
  std::vector<ObjectId> contents;
  std::vector<ObjectId> visited{container};
  SPIRE_RETURN_NOT_OK(
      AppendContents(container, epoch, transitive, &contents, &visited));
  std::sort(contents.begin(), contents.end());
  contents.erase(std::unique(contents.begin(), contents.end()),
                 contents.end());
  return contents;
}

Result<std::vector<ObjectId>> SegmentLog::ObjectsAt(LocationId location,
                                                    Epoch epoch) const {
  CountQuery();
  const std::vector<std::uint32_t>* postings =
      reader_.PostingsForLocation(location);
  if (postings == nullptr) return std::vector<ObjectId>{};
  auto stays = StaysOf<KeyBuilder<KeyStay, false>>(
      BlockCache::KeyKind::kLocation, location, *postings, epoch);
  if (!stays.ok()) return stays.status();
  return CoveringObjects(*stays.value(), epoch);
}

Result<std::vector<Stay>> SegmentLog::TrajectoryOf(ObjectId object) const {
  CountQuery();
  std::vector<Stay> trajectory;
  // Timeline query: no epoch cut — every posting block participates.
  auto stays = ObjectStays(object, kInfiniteEpoch);
  if (!stays.ok()) return stays.status();
  if (stays.value() == nullptr) return trajectory;
  for (const ObjectStay& folded : *stays.value()) {
    if (folded.type != EventType::kStartLocation) continue;
    Stay stay;
    stay.start = folded.start;
    stay.end = folded.end;
    stay.location = folded.location;
    trajectory.push_back(stay);
  }
  // One object's Starts arrive in start order; the check keeps the answer
  // in start order on any archive.
  auto by_start = [](const Stay& a, const Stay& b) { return a.start < b.start; };
  if (!std::is_sorted(trajectory.begin(), trajectory.end(), by_start)) {
    std::stable_sort(trajectory.begin(), trajectory.end(), by_start);
  }
  return trajectory;
}

Result<bool> SegmentLog::IsMissingAt(ObjectId object, Epoch epoch) const {
  CountQuery();
  auto stays = ObjectStays(object, epoch);
  if (!stays.ok()) return stays.status();
  if (stays.value() == nullptr) return false;
  for (const ObjectStay& report : *stays.value()) {
    if (report.type != EventType::kMissing || report.start > epoch) continue;
    // The report runs until the object's next sighting: the earliest
    // location stay starting at or after `since` (EventLog's closing rule).
    // An uncached fold stops at the epoch cut; a sighting past it starts
    // after `epoch`, so the answer at `epoch` is unchanged.
    Epoch until = kInfiniteEpoch;
    for (const ObjectStay& stay : *stays.value()) {
      if (stay.type == EventType::kStartLocation &&
          stay.start >= report.start && stay.start < until) {
        until = stay.start;
      }
    }
    if (epoch < until) return true;
  }
  return false;
}

}  // namespace spire
