#include "inference/node_inference.h"

#include <algorithm>
#include <cmath>

namespace spire {

double NodeInferencer::FadingAge(const Node& node, Epoch now) const {
  double age = static_cast<double>(now - node.seen_at);
  if (params_->normalize_age_by_reader_period &&
      node.recent_color < location_periods_.size()) {
    // Measure absence in missed reading opportunities: a silent slow reader
    // carries less evidence per epoch than a silent fast one.
    Epoch period = location_periods_[node.recent_color];
    if (period > 1) age /= static_cast<double>(period);
  }
  return age < 1.0 ? 1.0 : age;
}

double ScoreModel::FadeAt(Epoch t) const {
  if (!fades) return 0.0;
  double age = static_cast<double>(t - seen_at);
  if (period_divisor > 1.0) age /= period_divisor;
  if (age < 1.0) age = 1.0;
  return 1.0 / std::pow(age, theta);
}

NodeInferenceResult ScoreModel::EvaluateFade(double fade) const {
  // "unknown" opens as the incumbent, then candidates in ascending color
  // order with strict > — the exact selection semantics of the original
  // std::map sweep.
  const double unknown_score = fade_unit * (1.0 - fade);  // Eq. 4.
  NodeInferenceResult result;
  result.location = kUnknownLocation;
  result.probability = unknown_score;
  double total = 0.0;
  for (const auto& [color, constant] : base) {
    const double score =
        color == recent ? constant + fade_unit * fade : constant;
    total += score;
    if (score > result.probability) {
      result.runner_up = result.probability;
      result.probability = score;
      result.location = color;
    } else if (score > result.runner_up) {
      result.runner_up = score;
    }
  }
  total += unknown_score;
  if (total > 0.0) {
    result.probability /= total;
    result.runner_up /= total;
  }
  return result;
}

Epoch NextArgmaxFlip(const ScoreModel& model, Epoch now, Epoch horizon) {
  const LocationId winner = model.ArgmaxAt(now);
  // "unknown" only gains ground over time; once it wins it wins forever.
  if (winner == kUnknownLocation) return kNeverEpoch;
  if (model.ArgmaxAt(horizon) == winner) {
    // Stable through the horizon. If the winner also holds in the fade -> 0
    // limit, monotonicity makes it stable forever; otherwise the flip is
    // somewhere past the horizon — recheck there rather than search an
    // unbounded range.
    return model.EvaluateFade(0.0).location == winner ? kNeverEpoch : horizon;
  }
  // Invariant: argmax == winner at lo, != winner at hi.
  Epoch lo = now, hi = horizon;
  while (hi - lo > 1) {
    const Epoch mid = lo + (hi - lo) / 2;
    if (model.ArgmaxAt(mid) == winner) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return hi;
}

NodeInferenceResult NodeInferencer::InferAt(const Node& node, Epoch now,
                                            const PassColors& colors,
                                            ScoreModel* model) const {
  const double gamma = params_->gamma;
  ScoreModel local;
  ScoreModel& m = model != nullptr ? *model : local;

  // Colors propagated through the edges: sum of edge probabilities per
  // color, normalized by Z2 over all propagating edges (Eq. 3). The sums
  // accumulate in m.base, one entry per color: a node sees few distinct
  // colors, so a linear find beats any index. Each color's sum adds its
  // edges in edge order (parents, then children); the output bytes depend
  // on that floating-point order (tests/golden_stream_test.cc).
  std::vector<std::pair<LocationId, double>>& scores = m.base;
  scores.clear();
  double z2 = 0.0;
  auto consider = [&](EdgeId id, NodeId neighbor_slot) {
    const Node& neighbor = graph_->node(neighbor_slot);
    LocationId color = colors.ColorOf(neighbor);
    if (color == kUnknownLocation) return;
    const double p = edges_->ProbabilityOf(id);
    if (p <= 0.0) return;
    auto it = std::find_if(scores.begin(), scores.end(),
                           [&](const auto& entry) { return entry.first == color; });
    if (it == scores.end()) {
      scores.emplace_back(color, p);
    } else {
      it->second += p;
    }
    z2 += p;
  };
  for (EdgeId id : node.parent_edges) {
    consider(id, graph_->edge(id).parent_node);
  }
  for (EdgeId id : node.child_edges) {
    consider(id, graph_->edge(id).child_node);
  }

  // Assemble the model: per-color scores that do not move with time, plus
  // the fading term on the recent color added at evaluation (the recent
  // color is a candidate even when no edge propagates it). When no edge
  // propagates a color, the gamma mass is unavailable and the remaining
  // terms are compared directly (renormalization does not change the
  // argmax).
  for (auto& [color, mass] : scores) mass = gamma * mass / z2;
  if (node.recent_color != kUnknownLocation &&
      std::none_of(scores.begin(), scores.end(), [&](const auto& entry) {
        return entry.first == node.recent_color;
      })) {
    scores.emplace_back(node.recent_color, 0.0);
  }
  std::sort(scores.begin(), scores.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });

  m.fade_unit = 1.0 - gamma;
  m.recent = node.recent_color;
  // Nodes are created on first observation, so seen_at is always valid and
  // (now - seen_at) >= 1 for an uncolored node; the guard covers synthetic
  // test nodes.
  m.fades =
      node.seen_at != kNeverEpoch && node.recent_color != kUnknownLocation;
  m.seen_at = node.seen_at;
  m.theta = params_->theta;
  m.period_divisor = 1.0;
  if (params_->normalize_age_by_reader_period &&
      node.recent_color < location_periods_.size()) {
    Epoch period = location_periods_[node.recent_color];
    if (period > 1) m.period_divisor = static_cast<double>(period);
  }
  return m.EvaluateAt(now);
}

}  // namespace spire
