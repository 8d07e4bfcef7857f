// Stream-driven graph construction (Section III-B, Fig. 4).
//
// The updater consumes one reading set R_k per reader per epoch and applies
// the four-step procedure: (1) create and color nodes, (2) add containment-
// candidate edges between newly colored nodes and same-colored nodes in the
// closest layers above/below, (3) remove edges invalidated by diverging
// colors or by special-reader confirmations, and (4) update per-edge
// co-location statistics and per-node confirmation state. The procedure is
// incremental: applying the batches of an epoch in any reader order yields a
// consistent graph after the last batch.
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "graph/graph.h"
#include "stream/epoch_stream.h"
#include "stream/reader.h"

namespace spire {

/// Counters reported by one update call (observability + tests).
struct UpdateStats {
  std::size_t readings = 0;
  std::size_t nodes_created = 0;
  std::size_t edges_created = 0;
  std::size_t edges_removed = 0;
  std::size_t colocations_recorded = 0;
  std::size_t confirmations = 0;
  std::size_t conflicts_recorded = 0;

  UpdateStats& operator+=(const UpdateStats& other);
};

/// Applies reading sets to a Graph. One instance per Graph.
class GraphUpdater {
 public:
  GraphUpdater(Graph* graph, const ReaderRegistry* registry)
      : graph_(graph), registry_(registry) {}

  /// Starts a new epoch on the underlying graph and clears the exit list.
  void BeginEpoch(Epoch now);

  /// graph_update(G, R_k): applies one reader's reading set.
  UpdateStats ApplyReaderBatch(const ReaderBatch& batch);

  /// Convenience: BeginEpoch + ApplyReaderBatch for every reader of the
  /// epoch, in batch order.
  UpdateStats ApplyEpoch(const EpochBatch& batch);

  /// Objects read by exit-door readers this epoch. The pipeline removes
  /// their nodes after inference (Section IV's graph pruning rule 1).
  const std::vector<ObjectId>& exited_this_epoch() const { return exited_; }

 private:
  /// Special-reader domain knowledge for one batch: the unique top-level
  /// container on the belt; its directly contained (adjacent-layer)
  /// objects are listed, by slot, in confirmed_.
  struct Confirmation {
    bool active = false;
    ObjectId top = kNoObject;
  };

  /// Reads the confirmation off the batch's nodes (by_layer_, after step 1)
  /// and lists its children.
  Confirmation ComputeConfirmation();
  /// True iff the node at `slot` is a confirmed child in this batch.
  bool IsConfirmedChild(const Confirmation& confirmation, NodeId slot) const {
    return confirmation.active &&
           std::binary_search(confirmed_.begin(), confirmed_.end(), slot);
  }
  void ProcessIncidentEdges(Node& v, LocationId color,
                            const Confirmation& confirmation,
                            UpdateStats* stats);
  void UpdateEdgeStats(Edge& e, bool same_color, const Confirmation& confirmation,
                       UpdateStats* stats);

  Graph* graph_;
  const ReaderRegistry* registry_;
  std::vector<ObjectId> exited_;

  // --- Per-batch scratch, reused across batches (DESIGN.md §10) ---
  /// Batch counter; a slot whose stamp equals it gained a *new* color in
  /// this batch (step 1 -> step 2). A reading repeated within the batch
  /// finds its own mark, as a set of new-colored tags would.
  std::uint32_t batch_ = 0;
  std::vector<std::uint32_t> new_color_stamp_;
  /// The batch's nodes by packaging level, in reading order.
  std::array<std::vector<NodeId>, kNumPackagingLevels> by_layer_;
  /// Slots confirmed to be directly contained in the belt's top container,
  /// sorted.
  std::vector<NodeId> confirmed_;
  /// One node's incident edges, copied because removal edits the
  /// adjacency lists.
  std::vector<EdgeId> incident_;
};

}  // namespace spire
