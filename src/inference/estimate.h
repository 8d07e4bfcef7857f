// Per-object interpretation results.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/types.h"
#include "graph/graph.h"

namespace spire {

/// The most-likely state of one object, as estimated by iterative inference
/// (Section IV) and possibly amended by conflict resolution (Table I).
struct ObjectEstimate {
  ObjectId object = kNoObject;
  /// argmax_k resides(o, l_k, now); kUnknownLocation when the object is most
  /// likely absent from every known location.
  LocationId location = kUnknownLocation;
  /// Probability of the chosen location.
  double location_prob = 0.0;
  /// Probability of the second-best location candidate (explain channel).
  double location_runner_up = 0.0;
  /// argmax_j contained(o, o_j, *, now); kNoObject when uncontained.
  ObjectId container = kNoObject;
  /// Probability of the chosen container edge.
  double container_prob = 0.0;
  /// Probability of the second-best container edge (explain channel).
  double container_runner_up = 0.0;
  /// True when the object was directly observed this epoch (d = 0).
  bool observed = false;
  /// True when the location result must be withheld from output: partial
  /// inference produced "unknown" from an incomplete view (Section IV-D).
  bool withheld = false;

  bool operator==(const ObjectEstimate&) const = default;
};

/// Results of one inference pass: the estimates in pass order, each with
/// its object's graph slot and its container's slot, plus a slot ->
/// position table. The object that owns the result keeps it across passes:
/// Reset() empties it through the previous pass's own slots, so a steady
/// pass refills the same buffers without allocating (DESIGN.md §10).
class InferenceResult {
 public:
  /// One estimate and the graph slots it was computed for.
  struct Entry {
    ObjectEstimate estimate;
    /// The object's node slot.
    NodeId slot = kNoNode;
    /// The node slot of estimate.container; kNoNode when uncontained.
    NodeId container_slot = kNoNode;
    /// Tombstone: the object retired after the pass (Retire). A retired
    /// entry is neither found, reported nor resolved.
    bool retired = false;
  };

  /// Position value of a slot without an entry.
  static constexpr std::uint32_t kNoIndex = static_cast<std::uint32_t>(-1);

  Epoch epoch = kNeverEpoch;
  /// True for complete inference, false for partial.
  bool complete = false;
  /// Edges pruned during this pass.
  std::size_t edges_pruned = 0;
  /// Number of BFS waves the coloring took to converge (explain channel).
  std::size_t waves = 0;

  /// Empties the result for a new pass, keeping every buffer.
  void Reset(Epoch now, bool is_complete);

  /// Records the estimate for `slot` (a real slot, never kNoNode):
  /// appended, or overwriting the slot's entry when it already has one.
  void Put(NodeId slot, const ObjectEstimate& estimate,
           NodeId container_slot);

  /// Position of the slot's entry in entries(), or kNoIndex.
  std::uint32_t IndexOf(NodeId slot) const {
    return slot < index_of_slot_.size() ? index_of_slot_[slot] : kNoIndex;
  }

  /// The live estimate of `object`, whose node sits at `slot`; nullptr when
  /// the slot has no entry, the entry is retired, or it belongs to another
  /// object (the slot was recycled).
  const ObjectEstimate* Find(NodeId slot, ObjectId object) const;

  /// The live estimate of `object` by a linear scan (tests and tools; the
  /// pipeline looks up by slot).
  const ObjectEstimate* Find(ObjectId object) const;

  /// Tombstones the live entry of `object` at `slot`; returns its estimate
  /// (still readable until the next Reset), or nullptr when there is none.
  const ObjectEstimate* Retire(NodeId slot, ObjectId object);

  std::vector<Entry>& entries() { return entries_; }
  const std::vector<Entry>& entries() const { return entries_; }

  /// Entries including tombstones.
  std::size_t size() const { return entries_.size(); }

 private:
  std::vector<Entry> entries_;
  std::vector<std::uint32_t> index_of_slot_;
};

}  // namespace spire
