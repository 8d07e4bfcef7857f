// Edge inference (Section IV-A): the most likely container of an object.
//
// For every incoming edge of a node, a weight is computed from the edge's
// recent co-location history (Eq. 1), blended with the node's last
// special-reader confirmation (Eq. 2), and normalized into a probability
// distribution over the candidate containers. The unnormalized blend is the
// edge's *confidence*, which also drives graph pruning (Expt 6).
#pragma once

#include <cstdint>
#include <vector>

#include "graph/graph.h"
#include "inference/params.h"

namespace spire {

/// The outcome of edge inference at one node.
struct EdgeInferenceResult {
  /// The argmax incoming edge, or kNoEdge when the node has no parents.
  EdgeId best_edge = kNoEdge;
  ObjectId best_parent = kNoObject;
  /// Node slot of best_parent (the winning edge's parent_node).
  NodeId best_parent_node = kNoNode;
  double best_prob = 0.0;
  /// Probability of the second-best candidate container; 0 when the node
  /// has fewer than two parents. Feeds the explain channel's posterior gap.
  double runner_up_prob = 0.0;
};

/// Computes Eqs. 1-2 over a graph. The per-edge probabilities of the last
/// call per node are stored in a dense arena (indexed by EdgeId) so that
/// node inference can later read the propagation weight of any edge.
class EdgeInferencer {
 public:
  EdgeInferencer(const Graph* graph, const InferenceParams* params)
      : graph_(graph), params_(params) {}

  /// Eq. 1: the normalized Zipf-weighted co-location weight of an edge.
  /// History is normalized over the observations actually held (at most S),
  /// so a fresh edge with one positive instance has weight 1. O(1) at
  /// alpha = 0 (popcount / size, exact: sums of 1.0 are exact in a double);
  /// otherwise one table read per set bit.
  double Weight(const Edge& edge) const;

  /// Eq. 2 numerator: (1-beta) * m(e) + beta * w(e), before normalization.
  /// `beta` is resolved per node when the adaptive heuristic is enabled.
  double Confidence(const Edge& edge, const Node& child) const;

  /// Runs edge inference over all incoming edges of `node`: fills the edge
  /// probability arena and returns the most likely parent. Optionally
  /// collects the ids of edges whose confidence fell below the pruning
  /// threshold (the caller removes them; pruning never happens here so the
  /// computation stays read-only).
  EdgeInferenceResult InferAt(const Node& node,
                              std::vector<EdgeId>* prunable = nullptr);

  /// The probability assigned to an edge by the last InferAt() on its child
  /// node; 0 for edges not yet visited this pass.
  double ProbabilityOf(EdgeId edge) const {
    return edge < probabilities_.size() && stamps_[edge] == pass_
               ? probabilities_[edge]
               : 0.0;
  }

  /// Starts a new inference pass: O(1), entries written in earlier passes
  /// read as 0 because their stamp is stale.
  void BeginPass() { ++pass_; }

  /// The effective beta for a node (adaptive heuristic of Expt 1: the
  /// fraction of conflicting observations since the last confirmation).
  double EffectiveBeta(const Node& child) const;

 private:
  /// Rebuilds the Zipf tables for params_->alpha (alpha > 0 only).
  void BuildZipfTables() const;

  const Graph* graph_;
  const InferenceParams* params_;
  /// Edge probability arena indexed by EdgeId; an entry is valid only while
  /// its stamp equals the current pass.
  std::vector<double> probabilities_;
  std::vector<std::uint64_t> stamps_;
  std::uint64_t pass_ = 1;
  /// zipf_[i] = 1 / (i+1)^alpha and zipf_prefix_[n] = zipf_[0] + ... +
  /// zipf_[n-1], summed in index order, for alpha = zipf_alpha_. Built on
  /// the first call with a nonzero alpha and rebuilt whenever the shared
  /// params change alpha (0 = not built; alpha = 0 never reads them).
  mutable double zipf_alpha_ = 0.0;
  mutable std::vector<double> zipf_;
  mutable std::vector<double> zipf_prefix_;
};

}  // namespace spire
