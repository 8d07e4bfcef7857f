// Iterative inference (Section IV-C/D): sweeping edge and node inference
// across the graph in increasing distance from the colored nodes.
//
// Inference starts at the observed (colored) nodes and proceeds in BFS
// waves: nodes at distance d are processed only after every node at a
// smaller distance, so colors and edge probabilities established closer to
// the observations feed the inference further out. Within a wave, edge
// inference runs first (also pruning low-confidence edges), then node
// inference; wave results are committed together so same-wave nodes do not
// see each other's fresh estimates.
//
// Complete inference covers the entire graph; partial inference (run in
// epochs where some readers are silent) is restricted to nodes within
// `partial_hops` of a colored node and withholds "unknown" verdicts, since
// they may merely reflect a reader that was not scheduled to read.
//
// Delta-driven complete passes (DESIGN.md §10): with
// InferenceParams::incremental on, a complete pass recomputes only the
// connected components that contain a *seed* — a node whose color,
// adjacency or confirmation state changed since the last complete pass
// (Graph's dirty set), or a node whose fade-flip deadline arrived (the fade
// wheel) — and replays cached estimates for every untouched component.
// Because estimates are a per-component function of inputs that are all
// either constant or deadline-scheduled, the emitted event stream is
// byte-identical to a full recompute (the incremental_equivalence oracle
// proves it on every fuzz seed); only the cached posteriors served to the
// explain channel may be stale. All per-pass state (visited set, committed
// colors, wave buffers, score models) lives in epoch-stamped scratch arrays
// indexed by NodeId or in buffers reused across passes, and the caller's
// InferenceResult is refilled in place, so a steady pass allocates only
// when the graph outgrows a buffer.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "graph/graph.h"
#include "stream/reader.h"
#include "inference/edge_inference.h"
#include "inference/estimate.h"
#include "inference/node_inference.h"
#include "inference/params.h"

namespace spire {

/// Runs iterative inference passes over one graph.
class IterativeInference {
 public:
  /// `registry` (optional) supplies reader periods for normalized fading
  /// ages (InferenceParams::normalize_age_by_reader_period).
  IterativeInference(Graph* graph, const InferenceParams& params,
                     const ReaderRegistry* registry = nullptr)
      : graph_(graph),
        params_(params),
        edge_inferencer_(graph, &params_),
        node_inferencer_(graph, &params_, &edge_inferencer_,
                         LocationPeriods(registry)) {}

  /// Per-location reader periods from a registry (empty without one).
  static std::vector<Epoch> LocationPeriods(const ReaderRegistry* registry);

  /// Complete inference: every live node receives an estimate. Incremental
  /// when enabled and the cache is primed; a full pass otherwise (first
  /// pass, incremental off, or a scheduled resync boundary). Refills
  /// `result` (Reset first), reusing its buffers: a caller that hands the
  /// last result back runs steady passes without allocating.
  void RunComplete(Epoch now, InferenceResult* result);

  /// Partial inference over the `partial_hops`-neighborhood of the colored
  /// nodes; refills `result` like RunComplete.
  void RunPartial(Epoch now, InferenceResult* result);

  /// By-value forms of the two passes (tests and one-off callers).
  InferenceResult RunComplete(Epoch now) {
    InferenceResult result;
    RunComplete(now, &result);
    return result;
  }
  InferenceResult RunPartial(Epoch now) {
    InferenceResult result;
    RunPartial(now, &result);
    return result;
  }

  const InferenceParams& params() const { return params_; }
  InferenceParams& mutable_params() { return params_; }

  /// Cross-site handoff support (spire/handoff.h). CaptureHandoff reads
  /// the node's cached complete-pass estimate and scheduled fade deadline;
  /// returns false when the cache holds no valid entry for the node (the
  /// deadline is still reported). ImplantHandoff restores both on the
  /// receiving side. The caller must also mark the implanted node dirty:
  /// the next complete pass then recomputes its component, so the shipped
  /// estimate is never replayed into the output — it only keeps the
  /// incremental cache and fade schedule shaped as if the object had lived
  /// here all along.
  bool CaptureHandoff(NodeId slot, ObjectEstimate* estimate,
                      Epoch* deadline) const;
  void ImplantHandoff(NodeId slot, const ObjectEstimate& estimate,
                      Epoch deadline);

 private:
  /// Epochs ahead that fade-flip deadlines are searched; nodes whose argmax
  /// is stable through the horizon but not in the fade -> 0 limit get a
  /// recheck at the horizon.
  static constexpr Epoch kFadeHorizon = 1 << 14;

  /// Timer wheel of per-node fade-flip deadlines. A node may be scheduled
  /// many times (each recompute reschedules); only the entry matching the
  /// latest Schedule() fires, the rest are dropped lazily on collection.
  class FadeWheel {
   public:
    void Resize(std::size_t slots);
    /// Sets the node's next wake-up (kNeverEpoch cancels a pending one).
    void Schedule(NodeId slot, Epoch deadline);
    /// Appends every node whose scheduled deadline lies in (prev, now] to
    /// `out` and unschedules it.
    void Collect(Epoch prev, Epoch now, std::vector<NodeId>* out);
    void Clear();
    /// The node's pending wake-up (kNeverEpoch when none or out of range).
    Epoch ScheduledAt(NodeId slot) const {
      return slot < wake_.size() ? wake_[slot] : kNeverEpoch;
    }

   private:
    static constexpr std::size_t kBuckets = 1024;
    struct Entry {
      Epoch deadline;
      NodeId slot;
    };
    void Drain(std::vector<Entry>& bucket, Epoch now,
               std::vector<NodeId>* out);
    std::array<std::vector<Entry>, kBuckets> ring_;
    /// Authoritative next wake-up per node slot; kNeverEpoch when none.
    std::vector<Epoch> wake_;
  };

  /// One inference pass. `restrict` limits complete passes to the given
  /// node set (a union of whole connected components); nullptr = whole
  /// graph.
  void RunPass(Epoch now, bool complete,
               const std::vector<NodeId>* restrict_to,
               InferenceResult* result);
  void RunFullComplete(Epoch now, InferenceResult* result);
  void RunIncrementalComplete(Epoch now, InferenceResult* result);

  /// Grows the epoch-stamped scratch arrays to the graph's slot count.
  void EnsureScratch();

  /// Edge inference + pruning at one node; returns the container choice.
  EdgeInferenceResult InferEdgesAndPrune(const Node& node,
                                         InferenceResult* result);

  /// The epoch at which the model's argmax may next flip, when the cache
  /// consumes it (kNeverEpoch otherwise).
  Epoch FadeDeadline(const ScoreModel& model, Epoch now) const;

  /// Caches a complete-pass estimate (with its container's slot) and
  /// (re)schedules the node's fade deadline; observed nodes pass
  /// kNeverEpoch (their next change is the color loss, which dirties
  /// them).
  void StoreCache(NodeId slot, const ObjectEstimate& estimate,
                  NodeId container_slot, Epoch deadline);

  Graph* graph_;
  InferenceParams params_;
  EdgeInferencer edge_inferencer_;
  NodeInferencer node_inferencer_;

  // --- Epoch-stamped scratch (allocation-free steady-state passes) ---
  std::uint64_t pass_ = 0;
  std::vector<std::uint64_t> visited_stamp_;
  std::vector<std::uint64_t> known_stamp_;
  std::vector<LocationId> known_value_;
  std::uint64_t reach_round_ = 0;
  std::vector<std::uint64_t> reach_stamp_;
  std::vector<NodeId> wave_, next_, rest_, reach_, due_;
  std::vector<EdgeInferenceResult> wave_edges_;
  std::vector<ObjectEstimate> pending_;
  std::vector<Epoch> wave_deadlines_;
  ScoreModel model_;
  std::vector<EdgeId> prunable_;

  // --- Estimate cache + fade wheel (incremental mode) ---
  std::vector<ObjectEstimate> cache_;
  /// The container's node slot of each cached estimate.
  std::vector<NodeId> cache_container_;
  std::vector<std::uint8_t> cache_valid_;
  bool cache_primed_ = false;
  bool store_cache_ = false;
  int passes_since_full_ = 0;
  Epoch last_complete_ = kNeverEpoch;
  FadeWheel wheel_;
};

}  // namespace spire
