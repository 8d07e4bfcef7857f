// Low-level deduplication (the device data-cleaning layer of Fig. 2).
//
// When readers are deployed in close proximity, one tag can be read by
// several readers within the same epoch. Per Section II, the only
// functionality SPIRE requires from the device-cleaning layer is
// deduplication: at each time step, detect tags read by several readers and
// assign each tag to the reader that read it most recently.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "stream/reading.h"

namespace spire {

/// Removes duplicate readings of the same tag within one epoch, keeping the
/// most recent interrogation (highest tick; ties broken by the later
/// position in arrival order). The relative arrival order of the surviving
/// readings is preserved. Readings must all belong to the same epoch;
/// readings from other epochs are passed through untouched but counted in
/// the returned struct for observability.
struct DedupStats {
  std::size_t input_readings = 0;
  std::size_t duplicates_dropped = 0;
};

/// Deduplicates epoch after epoch through one winner table that outlives
/// each call: an open-addressed table keyed by tag, whose entries from
/// earlier epochs read as empty by their stamp, so a steady epoch neither
/// allocates nor clears it. The table is sized to the epoch at hand (at
/// least twice its reading count, a power of two) and reallocated when an
/// epoch needs more or under a quarter of it, so a burst does not stay
/// resident.
class Deduplicator {
 public:
  /// Deduplicates in place, compacting the survivors; returns statistics.
  DedupStats Run(EpochReadings* readings);

  /// Entries the table holds (tests).
  std::size_t table_size() const { return table_.size(); }

 private:
  struct Entry {
    ObjectId tag = kNoObject;
    /// Arrival position of the tag's winning reading.
    std::uint32_t winner = 0;
    /// The entry is in use iff this equals stamp_.
    std::uint32_t stamp = 0;
  };

  /// The tag's entry for this call: found, or claimed with no winner yet
  /// when absent.
  Entry& Probe(ObjectId tag);

  std::vector<Entry> table_;
  std::uint32_t stamp_ = 0;
  int shift_ = 64;
};

/// Deduplicates in place; returns statistics (a one-off Deduplicator).
DedupStats Deduplicate(EpochReadings* readings);

}  // namespace spire
