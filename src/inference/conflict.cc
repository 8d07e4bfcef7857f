#include "inference/conflict.h"

#include <algorithm>
#include <vector>

#include "common/epc.h"
#include "common/scratch.h"
#include "obs/registry.h"

namespace spire {

ConflictStats ConflictResolver::Resolve(InferenceResult* result) {
  ConflictStats stats;
  constexpr std::uint32_t kNone = InferenceResult::kNoIndex;
  std::vector<InferenceResult::Entry>& entries = result->entries();
  const std::size_t n = entries.size();

  // Group children by their chosen container (only containers that have a
  // live estimate in this pass can be resolved against).
  head_.clear();
  next_.clear();
  pinned_.clear();
  parents_.clear();
  TrimScratch(&head_, n);
  TrimScratch(&next_, n);
  TrimScratch(&pinned_, n);
  TrimScratch(&parents_, n);
  head_.assign(n, kNone);
  next_.assign(n, kNone);
  for (std::uint32_t i = 0; i < n; ++i) {
    const InferenceResult::Entry& entry = entries[i];
    if (entry.retired || entry.estimate.container == kNoObject) continue;
    const std::uint32_t parent = result->IndexOf(entry.container_slot);
    if (parent == kNone || entries[parent].retired ||
        entries[parent].estimate.object != entry.estimate.container) {
      continue;
    }
    if (head_[parent] == kNone) parents_.push_back(parent);
    next_[i] = head_[parent];
    head_[parent] = i;
  }
  auto object_of = [&](std::uint32_t index) {
    return entries[index].estimate.object;
  };

  // Parents before children: higher packaging layers first, ids for
  // determinism. A case overridden by its pallet then resolves against its
  // own items with the updated location.
  std::sort(parents_.begin(), parents_.end(),
            [&](std::uint32_t a, std::uint32_t b) {
              const ObjectId ia = object_of(a), ib = object_of(b);
              int la = EpcLayer(ia), lb = EpcLayer(ib);
              if (la != lb) return la > lb;
              return ia < ib;
            });

  // Locations fixed by containment priority in this pass: once a child is
  // overridden (Rule I/III), its location is as trustworthy as an observed
  // one when the child is later processed as a parent itself — otherwise a
  // child poll could undo the override.
  pinned_.assign(n, 0);

  for (std::uint32_t parent_index : parents_) {
    ObjectEstimate& parent = entries[parent_index].estimate;
    kids_.clear();
    for (std::uint32_t k = head_[parent_index]; k != kNone; k = next_[k]) {
      kids_.push_back(k);
    }
    std::sort(kids_.begin(), kids_.end(),
              [&](std::uint32_t a, std::uint32_t b) {
                return object_of(a) < object_of(b);
              });
    const bool parent_known = parent.observed || pinned_[parent_index] != 0;

    if (!parent_known && !parent.withheld) {
      // Rules II/III preamble: poll the children for a majority location.
      // Counted over the sorted votes, so among equal counts the smallest
      // location wins.
      votes_.clear();
      for (std::uint32_t k : kids_) {
        const LocationId location = entries[k].estimate.location;
        if (location != kUnknownLocation) votes_.push_back(location);
      }
      std::sort(votes_.begin(), votes_.end());
      LocationId best = kUnknownLocation;
      std::size_t best_count = 0;
      for (std::size_t run = 0; run < votes_.size();) {
        std::size_t end = run + 1;
        while (end < votes_.size() && votes_[end] == votes_[run]) ++end;
        if (end - run > best_count) {
          best_count = end - run;
          best = votes_[run];
        }
        run = end;
      }
      if (best != kUnknownLocation && 2 * best_count > kids_.size() &&
          best != parent.location) {
        parent.location = best;
        parent.withheld = false;
        ++stats.parents_repositioned;
      }
    }

    if (parent.withheld) continue;  // No usable parent location this pass.
    // A missing parent is not a color: an object may be reported missing
    // while its containment stands (Section V-A), so there is no location
    // conflict to resolve against it.
    if (parent.location == kUnknownLocation) continue;

    for (std::uint32_t k : kids_) {
      ObjectEstimate& child = entries[k].estimate;
      if (child.location == parent.location) continue;
      // Likewise, a child inferred missing stays missing: Missing events
      // nest inside containment pairs, and keeping the verdict is what
      // detects objects that silently vanished from their containers.
      if (child.location == kUnknownLocation && !child.observed) continue;
      if (child.observed) {
        if (parent.observed) continue;  // Cannot happen for a live edge.
        // Rule II: an observed child that still disagrees ends the
        // containment relationship.
        child.container = kNoObject;
        child.container_prob = 0.0;
        child.container_runner_up = 0.0;
        entries[k].container_slot = kNoNode;
        ++stats.containments_ended;
      } else {
        // Rules I and III: containment overrides the inferred child; the
        // child adopts the parent's posterior (and its runner-up — the
        // child's own candidates are no longer in play).
        child.location = parent.location;
        child.location_prob = parent.location_prob;
        child.location_runner_up = parent.location_runner_up;
        child.withheld = parent.location == kUnknownLocation
                             ? child.withheld
                             : false;
        pinned_[k] = 1;
        ++stats.children_overridden;
      }
    }
  }
  if (obs::Enabled()) {
    auto& registry = obs::Registry::Global();
    static obs::Counter* children_overridden =
        registry.GetCounter("inference", "conflict_children_overridden");
    static obs::Counter* parents_repositioned =
        registry.GetCounter("inference", "conflict_parents_repositioned");
    static obs::Counter* containments_ended =
        registry.GetCounter("inference", "conflict_containments_ended");
    children_overridden->Add(stats.children_overridden);
    parents_repositioned->Add(stats.parents_repositioned);
    containments_ended->Add(stats.containments_ended);
  }
  return stats;
}

ConflictStats ResolveConflicts(InferenceResult* result) {
  ConflictResolver resolver;
  return resolver.Resolve(result);
}

}  // namespace spire
