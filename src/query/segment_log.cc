#include "query/segment_log.h"

#include <algorithm>
#include <optional>
#include <span>

#include "obs/registry.h"
#include "store/varint.h"

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

/// One stay of an object entry: a location stay, a containment stay or a
/// Missing report (its `type` is the opening event's).
struct ObjectStay {
  Epoch start = kNeverEpoch;
  Epoch end = kInfiniteEpoch;
  ObjectId container = kNoObject;          ///< kStartContainment only.
  LocationId location = kUnknownLocation;  ///< Location stays and reports.
  EventType type = EventType::kStartLocation;
};

/// One stay of a location entry (the object at the location) or of a
/// container entry (the object directly inside the container).
struct KeyStay {
  ObjectId object = kNoObject;
  Epoch start = kNeverEpoch;
  Epoch end = kInfiniteEpoch;
};

// The compact encoding every stay entry holds, built by Encode below and
// read by the two readers. Each field is a varint, most of them the
// zigzag of a difference from the previous stay's same field; differences
// wrap in 64 bits, so every epoch and id round-trips.
//
//   object entry, one record per stay in stream order:
//     head       kind (0 location, 1 containment, 2 Missing) | 4 if open
//     start      delta from the previous start (0 before the first)
//     end        delta from this start; absent when open (kInfiniteEpoch)
//     location   plain (location stays and Missing reports), or
//     container  delta from the previous container (containment stays)
//   location or container entry, one record per stay, ends descending:
//     end        previous end - end (kInfiniteEpoch before the first), so
//                open stays come first and cost one byte here
//     start      delta from the previous start
//     object     delta from the previous object
//
// A query over a location or container entry stops at the first stay that
// ended at or before its epoch, so a recent epoch reads a few records.

using Payload = std::span<const std::uint8_t>;

std::uint64_t Delta(std::uint64_t value, std::uint64_t previous) {
  return ZigzagEncode(static_cast<std::int64_t>(value - previous));
}

std::uint64_t Undelta(std::uint64_t code, std::uint64_t previous) {
  return previous + static_cast<std::uint64_t>(ZigzagDecode(code));
}

constexpr std::uint64_t kOpenBit = 4;

std::uint64_t KindCode(EventType type) {
  switch (type) {
    case EventType::kStartContainment: return 1;
    case EventType::kMissing: return 2;
    default: return 0;
  }
}

void Encode(const std::vector<ObjectStay>& stays,
            std::vector<std::uint8_t>* out) {
  std::uint64_t start = 0;
  std::uint64_t container = 0;
  for (const ObjectStay& stay : stays) {
    const bool open = stay.end == kInfiniteEpoch;
    PutVarint64(KindCode(stay.type) | (open ? kOpenBit : 0), out);
    const auto stay_start = static_cast<std::uint64_t>(stay.start);
    PutVarint64(Delta(stay_start, start), out);
    start = stay_start;
    if (!open) {
      PutVarint64(Delta(static_cast<std::uint64_t>(stay.end), stay_start),
                  out);
    }
    if (stay.type == EventType::kStartContainment) {
      PutVarint64(Delta(stay.container, container), out);
      container = stay.container;
    } else {
      PutVarint64(stay.location, out);
    }
  }
}

/// Sorts the stays by end, descending, and encodes them.
void Encode(std::vector<KeyStay>& stays, std::vector<std::uint8_t>* out) {
  std::sort(stays.begin(), stays.end(),
            [](const KeyStay& a, const KeyStay& b) { return a.end > b.end; });
  auto end = static_cast<std::uint64_t>(kInfiniteEpoch);
  std::uint64_t start = 0;
  ObjectId object = 0;
  for (const KeyStay& stay : stays) {
    PutVarint64(end - static_cast<std::uint64_t>(stay.end), out);
    end = static_cast<std::uint64_t>(stay.end);
    PutVarint64(Delta(static_cast<std::uint64_t>(stay.start), start), out);
    start = static_cast<std::uint64_t>(stay.start);
    PutVarint64(Delta(stay.object, object), out);
    object = stay.object;
  }
}

/// Reads an entry payload's varints in order. The payload was encoded in
/// this process, so a read does not fail; if one did, the cursor would
/// end there rather than read on.
class VarintCursor {
 public:
  explicit VarintCursor(Payload payload) : payload_(payload) {}

  bool done() const { return offset_ == payload_.size(); }

  std::uint64_t Next() {
    std::uint64_t value = 0;
    const char* error = nullptr;
    if (!ReadVarint64</*kStrict=*/false>(payload_.data(), payload_.size(),
                                         &offset_, &value, &error)) {
      offset_ = payload_.size();
    }
    return value;
  }

 private:
  Payload payload_;
  std::size_t offset_ = 0;
};

/// Decodes an object entry's stays in order.
class ObjectStayReader {
 public:
  explicit ObjectStayReader(Payload payload) : in_(payload) {}

  bool Next(ObjectStay* stay) {
    if (in_.done()) return false;
    const std::uint64_t head = in_.Next();
    start_ = Undelta(in_.Next(), start_);
    stay->start = static_cast<Epoch>(start_);
    stay->end = (head & kOpenBit) != 0
                    ? kInfiniteEpoch
                    : static_cast<Epoch>(Undelta(in_.Next(), start_));
    stay->container = kNoObject;
    stay->location = kUnknownLocation;
    switch (head & ~kOpenBit) {
      case 1:
        stay->type = EventType::kStartContainment;
        container_ = Undelta(in_.Next(), container_);
        stay->container = container_;
        break;
      case 2:
        stay->type = EventType::kMissing;
        stay->location = static_cast<LocationId>(in_.Next());
        break;
      default:
        stay->type = EventType::kStartLocation;
        stay->location = static_cast<LocationId>(in_.Next());
        break;
    }
    return true;
  }

 private:
  VarintCursor in_;
  std::uint64_t start_ = 0;
  std::uint64_t container_ = 0;
};

/// Decodes a location or container entry's stays, ends descending.
class KeyStayReader {
 public:
  explicit KeyStayReader(Payload payload) : in_(payload) {}

  bool Next(KeyStay* stay) {
    if (in_.done()) return false;
    end_ -= in_.Next();
    start_ = Undelta(in_.Next(), start_);
    object_ = Undelta(in_.Next(), object_);
    *stay = KeyStay{object_, static_cast<Epoch>(start_),
                    static_cast<Epoch>(end_)};
    return true;
  }

 private:
  VarintCursor in_;
  std::uint64_t end_ = static_cast<std::uint64_t>(kInfiniteEpoch);
  std::uint64_t start_ = 0;
  std::uint64_t object_ = 0;
};

/// Entry builders: which events of a posting block belong to the key, and
/// how they fold. An object entry keeps every event of the object, in
/// stream order; location and container entries keep the opened stays of
/// their kind.
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
};

/// Location entries (containment = false) and container entries
/// (containment = true).
template <bool containment>
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
};

/// The covering stay of `type` with the earliest start (at most one on
/// well-formed streams), or null — CoveringStay over FoldEvents' order.
std::optional<ObjectStay> EarliestCovering(Payload stays, EventType type,
                                           Epoch epoch) {
  std::optional<ObjectStay> covering;
  ObjectStayReader reader(stays);
  for (ObjectStay stay; reader.Next(&stay);) {
    if (stay.type != type || !(stay.start <= epoch && epoch < stay.end)) {
      continue;
    }
    if (!covering || stay.start < covering->start) covering = stay;
  }
  return covering;
}

/// The objects of the stays covering `epoch`, ascending. The stays come
/// with ends descending, so the read stops at the first that ended.
std::vector<ObjectId> CoveringObjects(Payload stays, Epoch epoch) {
  std::vector<ObjectId> objects;
  KeyStayReader reader(stays);
  for (KeyStay stay; reader.Next(&stay) && stay.end > epoch;) {
    if (stay.start <= epoch) objects.push_back(stay.object);
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

template <typename Builder, typename Answer>
Status SegmentLog::WithStays(BlockCache::KeyKind kind, std::uint64_t id,
                             const std::vector<std::uint32_t>& postings,
                             Epoch cut, Answer&& answer) const {
  if (cache_ != nullptr) {
    if (cache_->VisitStays(segment_tag_, kind, id, answer)) {
      return Status::OK();
    }
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
  StayFold<typename Builder::Stay> fold;
  auto fold_block = [&](std::span<const Event> events) {
    for (const Event& event : events) builder.Add(event, &fold);
  };
  for (std::uint32_t index : candidates) {
    if (!monotone_min_epochs_ && !below_cut(index)) continue;
    if (cache_ != nullptr &&
        cache_->VisitBlock(segment_tag_, index, fold_block)) {
      continue;
    }
    auto decoded = reader_.DecodeOneBlock(index);
    if (!decoded.ok()) return decoded.status();
    blocks_decoded_.fetch_add(1, std::memory_order_relaxed);
    if (const Instruments* instruments = GetInstruments()) {
      instruments->blocks_decoded->Add(1);
    }
    fold_block(decoded.value());
    if (cache_ != nullptr) {
      cache_->PutBlock(segment_tag_, index, decoded.value());
    }
  }
  std::vector<typename Builder::Stay> stays = fold.Take();
  std::vector<std::uint8_t> payload;
  Encode(stays, &payload);
  if (cache_ != nullptr) cache_->PutStays(segment_tag_, kind, id, payload);
  answer(Payload(payload));
  return Status::OK();
}

template <typename Answer>
Status SegmentLog::WithObjectStays(ObjectId object, Epoch cut,
                                   Answer&& answer) const {
  const std::vector<std::uint32_t>* postings =
      reader_.PostingsForObject(object);
  if (postings == nullptr) return Status::OK();
  return WithStays<ObjectBuilder>(BlockCache::KeyKind::kObject, object,
                                  *postings, cut, answer);
}

Result<LocationId> SegmentLog::LocationAt(ObjectId object,
                                          Epoch epoch) const {
  CountQuery();
  LocationId location = kUnknownLocation;
  SPIRE_RETURN_NOT_OK(WithObjectStays(object, epoch, [&](Payload stays) {
    if (auto stay = EarliestCovering(stays, EventType::kStartLocation, epoch)) {
      location = stay->location;
    }
  }));
  return location;
}

Result<ObjectId> SegmentLog::ContainerAt(ObjectId object, Epoch epoch) const {
  CountQuery();
  ObjectId container = kNoObject;
  SPIRE_RETURN_NOT_OK(WithObjectStays(object, epoch, [&](Payload stays) {
    if (auto stay =
            EarliestCovering(stays, EventType::kStartContainment, epoch)) {
      container = stay->container;
    }
  }));
  return container;
}

Status SegmentLog::AppendContents(ObjectId container, Epoch epoch,
                                  bool transitive, std::vector<ObjectId>* out,
                                  std::vector<ObjectId>* visited) const {
  const std::vector<std::uint32_t>* postings =
      reader_.PostingsForContainer(container);
  if (postings == nullptr) return Status::OK();
  std::vector<ObjectId> direct;
  SPIRE_RETURN_NOT_OK(WithStays<KeyBuilder<true>>(
      BlockCache::KeyKind::kContainer, container, *postings, epoch,
      [&](Payload stays) { direct = CoveringObjects(stays, epoch); }));
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
  std::vector<ObjectId> objects;
  const std::vector<std::uint32_t>* postings =
      reader_.PostingsForLocation(location);
  if (postings == nullptr) return objects;
  SPIRE_RETURN_NOT_OK(WithStays<KeyBuilder<false>>(
      BlockCache::KeyKind::kLocation, location, *postings, epoch,
      [&](Payload stays) { objects = CoveringObjects(stays, epoch); }));
  return objects;
}

Result<std::vector<Stay>> SegmentLog::TrajectoryOf(ObjectId object) const {
  CountQuery();
  std::vector<Stay> trajectory;
  // Timeline query: no epoch cut — every posting block participates.
  SPIRE_RETURN_NOT_OK(
      WithObjectStays(object, kInfiniteEpoch, [&](Payload stays) {
        ObjectStayReader reader(stays);
        for (ObjectStay folded; reader.Next(&folded);) {
          if (folded.type != EventType::kStartLocation) continue;
          Stay stay;
          stay.start = folded.start;
          stay.end = folded.end;
          stay.location = folded.location;
          trajectory.push_back(stay);
        }
      }));
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
  // A report runs until the object's next sighting: the earliest location
  // stay starting at or after it (EventLog's closing rule). So the object
  // is missing at `epoch` exactly when the latest report that started by
  // then started after every location stay that started by then. An
  // uncached fold stops at the epoch cut; a sighting past it starts after
  // `epoch`, so the answer at `epoch` is unchanged.
  bool missing = false;
  SPIRE_RETURN_NOT_OK(WithObjectStays(object, epoch, [&](Payload stays) {
    std::optional<Epoch> report;
    std::optional<Epoch> sighting;
    ObjectStayReader reader(stays);
    for (ObjectStay stay; reader.Next(&stay);) {
      if (stay.start > epoch) continue;
      if (stay.type == EventType::kMissing) {
        report = std::max(report.value_or(stay.start), stay.start);
      } else if (stay.type == EventType::kStartLocation) {
        sighting = std::max(sighting.value_or(stay.start), stay.start);
      }
    }
    missing = report && !(sighting && *sighting >= *report);
  }));
  return missing;
}

}  // namespace spire
