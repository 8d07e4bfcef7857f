#include "stream/epoch_stream.h"

#include <cassert>

#include "common/scratch.h"

namespace spire {

namespace {

constexpr std::uint32_t kNoPosition = static_cast<std::uint32_t>(-1);

}  // namespace

const EpochBatch& EpochGrouper::Group(const EpochReadings& readings,
                                      Epoch epoch) {
  batch_.epoch = epoch;
  std::vector<ReaderBatch>& per_reader = batch_.per_reader;
  for (ReaderBatch& reader_batch : per_reader) {
    // Sized by this reader position's last fill.
    TrimScratch(&reader_batch.tags, reader_batch.tags.size());
    reader_batch.tags.clear();
  }
  std::size_t used = 0;
  for (const RfidReading& r : readings) {
    assert(r.epoch == epoch);
    if (r.reader >= position_.size()) {
      position_.resize(std::size_t{r.reader} + 1, kNoPosition);
    }
    std::uint32_t& position = position_[r.reader];
    if (position == kNoPosition) {
      position = static_cast<std::uint32_t>(used);
      if (used == per_reader.size()) per_reader.emplace_back();
      per_reader[used++].reader = r.reader;
    }
    per_reader[position].tags.push_back(r.tag);
  }
  // Readers beyond this epoch's count go (with their buffers): a burst
  // epoch's reader lists do not stay resident.
  per_reader.resize(used);
  for (const ReaderBatch& reader_batch : per_reader) {
    position_[reader_batch.reader] = kNoPosition;
  }
  return batch_;
}

EpochBatch GroupByReader(const EpochReadings& readings, Epoch epoch) {
  EpochGrouper grouper;
  return grouper.Group(readings, epoch);
}

}  // namespace spire
