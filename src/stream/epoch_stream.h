// Epoch batching: grouping a raw reading stream into per-reader sets.
//
// The graph update procedure of Section III-B consumes one set of readings
// R_k per reader k per epoch and is incremental across readers. EpochBatch
// groups the (deduplicated) readings of one epoch by reader, preserving the
// reader arrival order so that update results are deterministic.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "stream/reading.h"

namespace spire {

/// The readings one reader produced in one epoch.
struct ReaderBatch {
  ReaderId reader = kNoReader;
  std::vector<ObjectId> tags;
};

/// All per-reader reading sets of one epoch.
struct EpochBatch {
  Epoch epoch = kNeverEpoch;
  std::vector<ReaderBatch> per_reader;

  /// Total number of readings across all readers.
  std::size_t TotalReadings() const {
    std::size_t n = 0;
    for (const ReaderBatch& batch : per_reader) n += batch.tags.size();
    return n;
  }
};

/// Groups epoch after epoch into one EpochBatch that outlives each call:
/// the per-reader tag lists keep their storage while the epochs' needs
/// stay alike (common/scratch.h), and readers are placed through a table
/// indexed by ReaderId, so a steady epoch groups without allocating or
/// hashing.
class EpochGrouper {
 public:
  /// Groups one epoch's readings by reader, in first-appearance order of
  /// the readers. Readings must all carry the same epoch (checked with
  /// assert in debug builds); tags within a reader keep arrival order. The
  /// batch stays valid until the next call.
  const EpochBatch& Group(const EpochReadings& readings, Epoch epoch);

 private:
  EpochBatch batch_;
  /// ReaderId -> position in batch_.per_reader during one call; reset
  /// through the batch's own readers afterwards.
  std::vector<std::uint32_t> position_;
};

/// Groups one epoch's readings by reader (a one-off EpochGrouper).
EpochBatch GroupByReader(const EpochReadings& readings, Epoch epoch);

}  // namespace spire
