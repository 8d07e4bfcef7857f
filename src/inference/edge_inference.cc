#include "inference/edge_inference.h"

#include <cmath>

namespace spire {

void EdgeInferencer::BuildZipfTables() const {
  zipf_.resize(ShiftRegister::kMaxCapacity);
  zipf_prefix_.assign(ShiftRegister::kMaxCapacity + 1, 0.0);
  for (int i = 0; i < ShiftRegister::kMaxCapacity; ++i) {
    // The paper's Eq. 1 indexes 1/i^alpha from i = 0; we use (i+1)^alpha to
    // keep the most recent term finite (see DESIGN.md).
    zipf_[i] = 1.0 / std::pow(static_cast<double>(i + 1), params_->alpha);
    zipf_prefix_[i + 1] = zipf_prefix_[i] + zipf_[i];
  }
  zipf_alpha_ = params_->alpha;
}

double EdgeInferencer::Weight(const Edge& edge) const {
  const ShiftRegister& bits = edge.recent_colocations;
  const int n = bits.size();
  if (n == 0) return 0.0;
  if (params_->alpha == 0.0) {
    return static_cast<double>(bits.PopCount()) / static_cast<double>(n);
  }
  if (zipf_alpha_ != params_->alpha) BuildZipfTables();
  // Set bits in ascending index order: the same additions, in the same
  // order, as summing term by term over the whole window.
  double numerator = 0.0;
  for (std::uint64_t window = bits.Window(); window != 0;
       window &= window - 1) {
    numerator += zipf_[__builtin_ctzll(window)];
  }
  return numerator / zipf_prefix_[n];
}

double EdgeInferencer::EffectiveBeta(const Node& child) const {
  if (!params_->adaptive_beta) return params_->beta;
  const ConfirmedParent& confirmed = child.confirmed;
  if (confirmed.confirmed_at == kNeverEpoch) return params_->beta;
  if (confirmed.observations == 0) return 0.0;
  return static_cast<double>(confirmed.conflicts) /
         static_cast<double>(confirmed.observations);
}

double EdgeInferencer::Confidence(const Edge& edge, const Node& child) const {
  const double beta = EffectiveBeta(child);
  const bool is_confirmed_edge =
      child.confirmed.confirmed_at != kNeverEpoch &&
      child.confirmed.parent == edge.parent;
  const double memory = is_confirmed_edge ? 1.0 : 0.0;
  return (1.0 - beta) * memory + beta * Weight(edge);
}

EdgeInferenceResult EdgeInferencer::InferAt(const Node& node,
                                            std::vector<EdgeId>* prunable) {
  EdgeInferenceResult result;
  if (node.parent_edges.empty()) return result;

  double total = 0.0;
  double best_confidence = -1.0;
  double second_confidence = -1.0;
  for (EdgeId id : node.parent_edges) {
    const Edge& edge = graph_->edge(id);
    const double confidence = Confidence(edge, node);
    // Stash the unnormalized confidence; normalized below.
    if (id >= probabilities_.size()) {
      probabilities_.resize(id + 1, 0.0);
      stamps_.resize(id + 1, 0);
    }
    probabilities_[id] = confidence;
    stamps_[id] = pass_;
    total += confidence;
    if (confidence > best_confidence) {
      second_confidence = best_confidence;
      best_confidence = confidence;
      result.best_edge = id;
      result.best_parent = edge.parent;
      result.best_parent_node = edge.parent_node;
    } else if (confidence > second_confidence) {
      second_confidence = confidence;
    }
    if (prunable != nullptr && params_->prune_threshold > 0.0 &&
        confidence < params_->prune_threshold) {
      prunable->push_back(id);
    }
  }
  if (total > 0.0) {
    for (EdgeId id : node.parent_edges) probabilities_[id] /= total;
    result.best_prob = probabilities_[result.best_edge];
    if (second_confidence >= 0.0) {
      result.runner_up_prob = second_confidence / total;
    }
  } else {
    // No edge carries any evidence: fall back to a uniform distribution.
    const double uniform = 1.0 / static_cast<double>(node.parent_edges.size());
    for (EdgeId id : node.parent_edges) probabilities_[id] = uniform;
    result.best_prob = uniform;
    if (node.parent_edges.size() > 1) result.runner_up_prob = uniform;
  }
  return result;
}

}  // namespace spire
