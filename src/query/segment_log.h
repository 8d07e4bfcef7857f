// Segment-direct historical query serving: EventLog's answers straight from
// an archive segment, without materializing the stream.
//
// EventLog::FromArchive decodes every intersecting block and folds the whole
// selection up front — fine for analytics, wasteful when millions of point
// queries each need one object at one epoch. SegmentLog instead answers
// each query from its key's folded stays, built from the `.spix` sidecar
// indexes:
//
//   1. Look up the posting list for the query's key — per-object for
//      LocationAt / ContainerAt / TrajectoryOf / IsMissingAt, per-location
//      for ObjectsAt, per-container for ContentsAt (sidecar v3). Unknown
//      keys answer empty without touching the cache.
//   2. With a BlockCache attached, look up the key's stay entry: the fold
//      of its *whole* posting list, which answers every epoch, held as
//      zigzag-delta varints (the encoding is spelled out in the .cc). The
//      four object kinds share one entry per object; ContentsAt reads the
//      container's entry and ObjectsAt the location's, of (object, start,
//      end) stays. A hit answers from the entry's bytes inside the cache's
//      visit, under its shard lock; a miss folds the whole list (step 3),
//      inserts the entry and answers from the bytes it built. Without a
//      cache, cut the list to the candidate
//      blocks with min_epoch <= t for a point query at epoch t. Blocks past
//      the cut hold only events whose primary timestamps exceed t: suffix
//      Starts open after t, and suffix Ends only *extend* stays past t —
//      neither changes which stays cover t, so the prefix folds to the
//      same answer as the full stream (binary-searched when block
//      min-epochs are monotone, the compressor emission order; linearly
//      filtered otherwise — same selection).
//   3. Fold the selected blocks — fetched through the cache when one is
//      attached, so a block shared by several builds may skip the codec —
//      in one pass, holding each fetched block while its events are read.
//      The fold pairs each End with its (object, kind)'s open Start
//      exactly as compress/fold's FoldEvents does, through a per-build
//      open-addressed index from (object, kind) to stay slot that holds
//      only the open stays. Object entries keep the stays in stream order;
//      location and container entries hold them with ends descending, so a
//      query at a recent epoch decodes only the stays still open after it.
//
// Filtered folds are exact because archived streams are well-formed
// (compress/well_formed): an End names its Start's location/container, so
// restricting the stream to one object, one location, or one container
// keeps Start/End pairs together and the slice folds to the identical stays
// the full fold would produce. Answers therefore equal EventLog's on the
// archived (level-as-stored) stream — the `query_equivalence` oracle in
// src/check enforces this on fuzzed traces, cached and uncached, with
// FoldEvents (which EventLog folds through) as the reference.
//
// Thread safety: all queries are const and safe to call concurrently from
// many threads over one SegmentLog (ArchiveReader's decode paths are
// concurrent-safe; the cache reads an entry only under its lock; every
// build's fold and encoding live in the call). Segments are immutable
// after Close and `compact` replaces rather than rewrites, so an open
// SegmentLog is a stable snapshot: cache keys carry a per-open segment tag,
// never aliasing entries across a replaced file.
#pragma once

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "query/block_cache.h"
#include "query/event_log.h"
#include "store/archive_reader.h"

namespace spire {

class SegmentLog {
 public:
  /// Opens a segment for direct serving. `cache` may be null (every block
  /// access decodes) or shared with other SegmentLogs and threads.
  static Result<std::unique_ptr<SegmentLog>> Open(
      const std::string& path, ReaderOptions options = {},
      std::shared_ptr<BlockCache> cache = nullptr);

  // Point and set queries match EventLog's on the archived stream (i.e.
  // EventLog::FromArchive(reader, 0, kInfiniteEpoch, /*decompress=*/false)).

  /// resides(object, ?, epoch): the reported location, or kUnknownLocation.
  Result<LocationId> LocationAt(ObjectId object, Epoch epoch) const;

  /// contained(object, ?, epoch): the direct container, or kNoObject.
  Result<ObjectId> ContainerAt(ObjectId object, Epoch epoch) const;

  /// Objects reported directly inside `container` at `epoch`, ascending;
  /// `transitive` descends the containment tree.
  Result<std::vector<ObjectId>> ContentsAt(ObjectId container, Epoch epoch,
                                           bool transitive = false) const;

  /// Objects reported at `location` at `epoch`, ascending.
  Result<std::vector<ObjectId>> ObjectsAt(LocationId location,
                                          Epoch epoch) const;

  /// The object's full location history, in time order.
  Result<std::vector<Stay>> TrajectoryOf(ObjectId object) const;

  /// True when a Missing report covers the epoch.
  Result<bool> IsMissingAt(ObjectId object, Epoch epoch) const;

  /// The underlying reader (directory stats, posting universes for
  /// workload generation).
  const ArchiveReader& reader() const { return reader_; }

  /// Blocks actually decoded (cache misses or uncached access) — the
  /// `decodes <= cache misses` reconciliation stat.
  std::uint64_t blocks_decoded() const {
    return blocks_decoded_.load(std::memory_order_relaxed);
  }

  /// The tag this view's cache entries are keyed under.
  std::uint64_t segment_tag() const { return segment_tag_; }

 private:
  SegmentLog(ArchiveReader reader, std::shared_ptr<BlockCache> cache);

  /// Calls `answer(std::span<const std::uint8_t>)` once on the key's stays
  /// in the compact entry encoding (steps 2-3): its cache entry, under the
  /// cache's lock; on a miss, the fold of the whole posting list, inserted
  /// as the entry; without a cache, the fold of the posting blocks with
  /// min_epoch <= cut. `Builder` folds one event.
  template <typename Builder, typename Answer>
  Status WithStays(BlockCache::KeyKind kind, std::uint64_t id,
                   const std::vector<std::uint32_t>& postings, Epoch cut,
                   Answer&& answer) const;

  /// WithStays on the object's entry; no call when the sidecar does not
  /// know the object.
  template <typename Answer>
  Status WithObjectStays(ObjectId object, Epoch cut, Answer&& answer) const;

  Status AppendContents(ObjectId container, Epoch epoch, bool transitive,
                        std::vector<ObjectId>* out,
                        std::vector<ObjectId>* visited) const;

  ArchiveReader reader_;
  std::shared_ptr<BlockCache> cache_;
  std::uint64_t segment_tag_ = 0;
  /// True when block min-epochs are non-decreasing in directory order —
  /// then the uncached cut binary-searches instead of filtering.
  bool monotone_min_epochs_ = false;
  mutable std::atomic<std::uint64_t> blocks_decoded_{0};
};

}  // namespace spire
