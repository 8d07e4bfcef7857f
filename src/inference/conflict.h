// Conflict resolution between location and containment inference
// (Section IV-E, Table I).
//
// Iterative inference can leave the two endpoints of a chosen containment
// edge with different locations (their colors were inferred in different
// waves). Since a containment relationship — often confirmed by a special
// reader — carries more reliable information than an inferred location, the
// resolution gives priority to containment:
//
//   Rule I   parent observed, child inferred  -> override the child.
//   Rule II  parent inferred, child observed  -> poll all children; adopt a
//            majority location for the parent if one exists; then end the
//            containment of still-conflicting observed children.
//   Rule III parent inferred, child inferred  -> after the majority vote,
//            override still-conflicting inferred children.
//
// Polling requires all children, so this runs as a post-processing step over
// the full inference result (merged into the output path), parents before
// children (higher packaging layers first).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "inference/estimate.h"

namespace spire {

/// Counters for observability and tests.
struct ConflictStats {
  std::size_t children_overridden = 0;   ///< Rule I and Rule III overrides.
  std::size_t parents_repositioned = 0;  ///< Majority votes that moved a parent.
  std::size_t containments_ended = 0;    ///< Rule II terminations.
};

/// Resolves conflicts with scratch buffers that outlive one call: the
/// pipeline owns one, so steady epochs resolve without allocating. Children
/// are grouped per container by entry index (through the container's slot),
/// so no object id is hashed. Retired (tombstoned) entries take no part.
class ConflictResolver {
 public:
  /// Resolves all conflicts in `result` in place.
  ConflictStats Resolve(InferenceResult* result);

 private:
  /// Per entry: the first child (head) and the next sibling (next) of the
  /// entry's children list; kNoIndex ends a list.
  std::vector<std::uint32_t> head_, next_;
  /// Entry indexes of the containers that have children, then of one
  /// parent's children.
  std::vector<std::uint32_t> parents_, kids_;
  /// Per entry: location fixed by containment priority in this pass.
  std::vector<std::uint8_t> pinned_;
  std::vector<LocationId> votes_;
};

/// Resolves all conflicts in `result` in place (a one-off resolver).
ConflictStats ResolveConflicts(InferenceResult* result);

}  // namespace spire
