// Node inference (Section IV-B): the most likely location of an unobserved
// object, or its absence from every known location.
//
// A probability distribution is built over (1) the node's most recent color,
// faded by (now - seen_at)^-theta, (2) colors propagated through incident
// edges from neighbors whose color is known (observed, or inferred in an
// earlier wave), weighted by the edges' inference probabilities, and (3) the
// special color "unknown" (Eqs. 3-4).
//
// InferAt factors the distribution into a ScoreModel: per-color scores that
// are constant in time plus the single fading term on the recent color. The
// model is what the incremental scheduler interrogates — since fade is the
// only time-dependent input, the first epoch at which a cached node's argmax
// could change is computable in closed form (NextArgmaxFlip), and the node
// can sleep until then.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "graph/graph.h"
#include "inference/edge_inference.h"
#include "inference/params.h"

namespace spire {

/// The outcome of node inference at one node.
struct NodeInferenceResult {
  /// argmax color; kUnknownLocation when "unknown" wins.
  LocationId location = kUnknownLocation;
  double probability = 0.0;
  /// Probability of the second-best candidate (including "unknown"); feeds
  /// the explain channel's posterior gap.
  double runner_up = 0.0;
};

/// The colors known at one point of an inference pass: observed colors from
/// the graph plus estimates committed by earlier waves, the latter held in
/// the pass's epoch-stamped scratch arrays (indexed by Node::self). With
/// null arrays only observed colors are visible — the oracle unit tests
/// use.
struct PassColors {
  const Graph* graph = nullptr;
  const std::uint64_t* known_stamp = nullptr;
  const LocationId* known_value = nullptr;
  std::uint64_t pass = 0;

  LocationId ColorOf(const Node& node) const {
    if (graph->IsColored(node)) return node.recent_color;
    if (known_stamp != nullptr && known_stamp[node.self] == pass) {
      return known_value[node.self];
    }
    return kUnknownLocation;
  }
};

/// One node's Eq. 3-4 distribution, split into time-constant per-color
/// scores and the fading term. Evaluating the model at the pass epoch is
/// exactly InferAt's answer; evaluating it at future epochs predicts when
/// the argmax flips (all other inputs are constant until the graph around
/// the node changes, which re-seeds inference anyway).
struct ScoreModel {
  /// Time-constant score per candidate color, ascending by LocationId (the
  /// same order the former std::map iteration established).
  std::vector<std::pair<LocationId, double>> base;
  /// (1 - gamma): the coefficient of both the fade term and "unknown".
  double fade_unit = 0.0;
  LocationId recent = kUnknownLocation;
  /// Whether a fading term exists (valid seen_at and a known recent color).
  bool fades = false;
  Epoch seen_at = kNeverEpoch;
  /// Reader-period normalization divisor of the fading age (1 = raw epochs).
  double period_divisor = 1.0;
  double theta = 1.0;

  /// The fade 1/age^theta at epoch t (0 when no fading term exists),
  /// mirroring NodeInferencer::FadingAge exactly.
  double FadeAt(Epoch t) const;

  /// Winner selection over the distribution with the given fade value; one
  /// code path shared by "evaluate now" and "evaluate in the future", so
  /// the two can never disagree.
  NodeInferenceResult EvaluateFade(double fade) const;

  NodeInferenceResult EvaluateAt(Epoch t) const {
    return EvaluateFade(FadeAt(t));
  }
  LocationId ArgmaxAt(Epoch t) const { return EvaluateAt(t).location; }
};

/// The first epoch in (now, horizon] at which the model's argmax differs
/// from its value at `now`; kNeverEpoch when it is stable through `horizon`
/// *and* in the fade -> 0 limit (i.e. stable forever absent graph changes).
/// When the argmax is stable through the horizon but flips in the limit,
/// `horizon` itself is returned as a recheck point. Relies on the winner's
/// pairwise leads being monotone in t: the winner's score never increases
/// (fade decays), "unknown" never decreases, and propagated scores are
/// constant.
Epoch NextArgmaxFlip(const ScoreModel& model, Epoch now, Epoch horizon);

/// Computes Eqs. 3-4. The caller supplies the pass's known colors.
class NodeInferencer {
 public:
  /// `location_periods[l]` is the reading period of the reader at location
  /// l, used to normalize the fading age into missed reading opportunities
  /// (see InferenceParams::normalize_age_by_reader_period). An empty vector
  /// means raw epoch ages.
  NodeInferencer(const Graph* graph, const InferenceParams* params,
                 const EdgeInferencer* edges,
                 std::vector<Epoch> location_periods = {})
      : graph_(graph),
        params_(params),
        edges_(edges),
        location_periods_(std::move(location_periods)) {}

  /// Runs node inference at an uncolored node. When `model` is non-null it
  /// receives the node's score model (for fade-deadline scheduling); the
  /// returned result is always the model evaluated at `now`. A caller that
  /// passes the same model every time infers without allocating.
  NodeInferenceResult InferAt(const Node& node, Epoch now,
                              const PassColors& colors,
                              ScoreModel* model = nullptr) const;

  /// The fading age used for a node: epochs since last observation, divided
  /// by the reading period of its last location when normalization is on.
  double FadingAge(const Node& node, Epoch now) const;

 private:
  const Graph* graph_;
  const InferenceParams* params_;
  const EdgeInferencer* edges_;
  std::vector<Epoch> location_periods_;
};

}  // namespace spire
