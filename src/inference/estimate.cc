#include "inference/estimate.h"

#include <cassert>

namespace spire {

void InferenceResult::Reset(Epoch now, bool is_complete) {
  for (const Entry& entry : entries_) index_of_slot_[entry.slot] = kNoIndex;
  entries_.clear();
  epoch = now;
  complete = is_complete;
  edges_pruned = 0;
  waves = 0;
}

void InferenceResult::Put(NodeId slot, const ObjectEstimate& estimate,
                          NodeId container_slot) {
  assert(slot != kNoNode);
  if (slot >= index_of_slot_.size()) index_of_slot_.resize(slot + 1, kNoIndex);
  std::uint32_t& index = index_of_slot_[slot];
  if (index == kNoIndex) {
    index = static_cast<std::uint32_t>(entries_.size());
    entries_.push_back(Entry{estimate, slot, container_slot, false});
  } else {
    entries_[index] = Entry{estimate, slot, container_slot, false};
  }
}

const ObjectEstimate* InferenceResult::Find(NodeId slot,
                                            ObjectId object) const {
  const std::uint32_t index = IndexOf(slot);
  if (index == kNoIndex) return nullptr;
  const Entry& entry = entries_[index];
  if (entry.retired || entry.estimate.object != object) return nullptr;
  return &entry.estimate;
}

const ObjectEstimate* InferenceResult::Find(ObjectId object) const {
  for (const Entry& entry : entries_) {
    if (!entry.retired && entry.estimate.object == object) {
      return &entry.estimate;
    }
  }
  return nullptr;
}

const ObjectEstimate* InferenceResult::Retire(NodeId slot, ObjectId object) {
  const ObjectEstimate* estimate = Find(slot, object);
  if (estimate != nullptr) entries_[IndexOf(slot)].retired = true;
  return estimate;
}

}  // namespace spire
