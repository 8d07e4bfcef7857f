#include "eval/accuracy.h"

namespace spire {

AccuracyStats EvaluateEstimates(const InferenceResult& result,
                                const PhysicalWorld& world,
                                LocationId exclude_location) {
  AccuracyStats stats;
  for (const InferenceResult::Entry& entry : result.entries()) {
    if (entry.retired) continue;  // Exited; nothing to score.
    const ObjectEstimate& estimate = entry.estimate;
    const ObjectState* truth = world.Find(estimate.object);
    if (truth == nullptr) continue;  // Already exited; nothing to score.
    if (exclude_location != kUnknownLocation &&
        truth->location == exclude_location) {
      continue;
    }
    if (!estimate.withheld) {
      ++stats.location_total;
      if (estimate.location != truth->location) ++stats.location_errors;
    }
    ++stats.containment_total;
    if (estimate.container != truth->parent) ++stats.containment_errors;
  }
  return stats;
}

}  // namespace spire
