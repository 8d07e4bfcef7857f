// Segment-direct historical query serving: EventLog's answers straight from
// an archive segment, without materializing the stream.
//
// EventLog::FromArchive decodes every intersecting block and folds the whole
// selection up front — fine for analytics, wasteful when millions of point
// queries each need one object at one epoch. SegmentLog instead resolves
// each query from the `.spix` sidecar indexes:
//
//   1. Look up the posting list for the query's key — per-object for
//      LocationAt / ContainerAt / TrajectoryOf / IsMissingAt, per-location
//      for ObjectsAt, per-container for ContentsAt (sidecar v3).
//   2. For point queries at epoch t, cut the list to candidate blocks with
//      min_epoch <= t. Blocks past the cut hold only events whose primary
//      timestamps exceed t: suffix Starts open after t, and suffix Ends
//      only *extend* stays past t — neither changes which stays cover t,
//      so the prefix folds to the same answer as the full stream
//      (binary-searched when block min-epochs are monotone, the compressor
//      emission order; linearly filtered otherwise — same selection).
//   3. Fetch only those blocks — through the shared BlockCache when one is
//      attached, so hot blocks skip the codec entirely — and fold the
//      query's key in one pass over them in place, holding each fetched
//      block while its events are read: no copy of the selection, no
//      ordered map, no sort of the folded stays. The fold pairs each End
//      with its (object, kind)'s open Start exactly as compress/fold's
//      FoldEvents does, through a per-call open-addressed index from
//      (object, kind) to stay slot that holds only the open stays, and
//      keeps the stays in stream order. Each kind reads its
//      answer straight off them: ObjectsAt/ContentsAt collect and sort
//      just the covering ids, TrajectoryOf keeps start order.
//
// Filtered folds are exact because archived streams are well-formed
// (compress/well_formed): an End names its Start's location/container, so
// restricting the stream to one object, one location, or one container
// keeps Start/End pairs together and the slice folds to the identical stays
// the full fold would produce. Answers therefore equal EventLog's on the
// archived (level-as-stored) stream — the `query_equivalence` oracle in
// src/check enforces this on fuzzed traces, with FoldEvents (which
// EventLog folds through) as the reference.
//
// Thread safety: all queries are const and safe to call concurrently from
// many threads over one SegmentLog (ArchiveReader's decode paths are
// concurrent-safe; the cache takes per-shard locks; every fold's stays and
// open index live in the call, never shared). Segments are immutable
// after Close and `compact` replaces rather than rewrites, so an open
// SegmentLog is a stable snapshot: cache keys carry a per-open segment tag,
// never aliasing entries across a replaced file.
#pragma once

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "compress/fold.h"
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

  /// One decoded block, through the cache when attached.
  Result<BlockCache::BlockPtr> FetchBlock(std::uint32_t index) const;

  /// The one-pass fold (step 3): the stays of the events passing `keep` in
  /// the posting blocks with min_epoch <= cut (the candidates of step 2),
  /// in the stream order of their opening events.
  template <typename Keep>
  Result<std::vector<RangedEvent>> FoldPostings(
      const std::vector<std::uint32_t>& postings, Epoch cut, Keep keep) const;

  Status AppendContents(ObjectId container, Epoch epoch, bool transitive,
                        std::vector<ObjectId>* out,
                        std::vector<ObjectId>* visited) const;

  ArchiveReader reader_;
  std::shared_ptr<BlockCache> cache_;
  std::uint64_t segment_tag_ = 0;
  /// True when block min-epochs are non-decreasing in directory order —
  /// then FoldPostings binary-searches instead of filtering.
  bool monotone_min_epochs_ = false;
  mutable std::atomic<std::uint64_t> blocks_decoded_{0};
};

}  // namespace spire
