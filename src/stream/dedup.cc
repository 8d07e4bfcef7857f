#include "stream/dedup.h"

#include <algorithm>
#include <bit>

#include "obs/registry.h"

namespace spire {

namespace {

struct Instruments {
  obs::Counter* readings_in;
  obs::Counter* duplicates_dropped;
};

const Instruments* GetInstruments() {
  if (!obs::Enabled()) return nullptr;
  static const Instruments instruments{
      obs::Registry::Global().GetCounter("stream", "readings_in"),
      obs::Registry::Global().GetCounter("stream", "duplicates_dropped"),
  };
  return &instruments;
}

constexpr std::uint32_t kNoWinner = static_cast<std::uint32_t>(-1);

}  // namespace

Deduplicator::Entry& Deduplicator::Probe(ObjectId tag) {
  // Fibonacci hashing: the top bits of tag * 2^64/phi; linear probing.
  const std::size_t mask = table_.size() - 1;
  std::size_t i =
      static_cast<std::size_t>((tag * 0x9E3779B97F4A7C15ull) >> shift_);
  while (true) {
    Entry& entry = table_[i];
    if (entry.stamp != stamp_) {
      entry.tag = tag;
      entry.stamp = stamp_;
      entry.winner = kNoWinner;
      return entry;
    }
    if (entry.tag == tag) return entry;
    i = (i + 1) & mask;
  }
}

DedupStats Deduplicator::Run(EpochReadings* readings) {
  DedupStats stats;
  stats.input_readings = readings->size();
  const Instruments* instruments = GetInstruments();
  if (instruments != nullptr) {
    instruments->readings_in->Add(stats.input_readings);
  }
  const std::size_t n = readings->size();
  if (n <= 1) return stats;

  const std::size_t want = std::bit_ceil(std::max<std::size_t>(16, 2 * n));
  if (table_.size() < want || table_.size() > 4 * want) {
    // A fresh vector, not assign(): assign keeps the old capacity, and a
    // burst's table would stay resident.
    table_ = std::vector<Entry>(want);
    stamp_ = 0;
    shift_ = 64 - std::countr_zero(want);
  }
  if (++stamp_ == 0) {
    // The stamp wrapped: entries from 2^32 calls ago would read as live.
    for (Entry& entry : table_) entry.stamp = 0;
    stamp_ = 1;
  }

  // First pass: for each tag, find the index of the winning reading
  // (highest tick; later arrival wins a tie).
  EpochReadings& r = *readings;
  for (std::size_t i = 0; i < n; ++i) {
    Entry& entry = Probe(r[i].tag);
    if (entry.winner == kNoWinner || r[i].tick >= r[entry.winner].tick) {
      entry.winner = static_cast<std::uint32_t>(i);
    }
  }

  // Second pass: keep only the winners, compacted in place in arrival
  // order (the write position never passes the read position).
  std::size_t write = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (Probe(r[i].tag).winner != i) continue;
    if (write != i) r[write] = r[i];
    ++write;
  }
  r.resize(write);
  stats.duplicates_dropped = n - write;
  if (instruments != nullptr) {
    instruments->duplicates_dropped->Add(stats.duplicates_dropped);
  }
  return stats;
}

DedupStats Deduplicate(EpochReadings* readings) {
  Deduplicator deduplicator;
  return deduplicator.Run(readings);
}

}  // namespace spire
