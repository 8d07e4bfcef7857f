// The time-varying colored graph model (Section III-A).
//
// Nodes are RFID-tagged objects, arranged in layers by packaging level and
// colored by the location where they were observed in the current epoch; an
// unobserved node is uncolored but remembers its most recent color and
// observation time. Directed edges parent -> child encode *possible*
// containment; an edge never connects two nodes of different colors. Each
// edge carries a shift-register of recent co-location evidence, and each
// node remembers the last container confirmed by a special reader together
// with a count of conflicting observations since that confirmation.
//
// Storage (hot-path architecture, DESIGN.md §10): nodes live in a chunked
// slot arena addressed by dense NodeId, with the ObjectId -> NodeId hash
// looked up once at ingest; chunks are never reallocated, so Node references
// stay stable across arena growth. Edges name their endpoints both ways —
// by ObjectId (the external identity) and by NodeId (the O(1) hop used in
// inference wave loops). The per-epoch color index is a flat
// vector-of-vectors of slots per layer, cleared in O(colors touched). The graph also
// maintains a dirty set — nodes whose color, adjacency or confirmation
// state changed since the last ClearDirty() — that seeds the incremental
// inference pass.
#pragma once

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/bitvector.h"
#include "common/epc.h"
#include "common/status.h"
#include "common/types.h"

namespace spire {

/// Index of an edge in the graph's edge arena.
using EdgeId = std::uint32_t;
inline constexpr EdgeId kNoEdge = static_cast<EdgeId>(-1);

/// Index of a node in the graph's node arena.
using NodeId = std::uint32_t;
inline constexpr NodeId kNoNode = static_cast<NodeId>(-1);

/// The last containment confirmation a node received from a special reader.
struct ConfirmedParent {
  ObjectId parent = kNoObject;
  Epoch confirmed_at = kNeverEpoch;
  /// Observations conflicting with the confirmation since it was made
  /// (drives the adaptive-beta heuristic of Section VI, Expt 1).
  int conflicts = 0;
  /// Observations in which the confirmed edge was exercised (either
  /// co-location or one-sided observation) since the confirmation.
  int observations = 0;

  bool operator==(const ConfirmedParent&) const = default;
};

/// A graph node: one RFID-tagged object. `id == kNoObject` marks a freed
/// arena slot.
struct Node {
  ObjectId id = kNoObject;
  /// This node's own arena slot (so a Node& is enough to index the
  /// inference scratch arrays).
  NodeId self = kNoNode;
  /// Layer = packaging level (item 0, case 1, pallet 2).
  int layer = 0;
  /// Most recent color and when it was observed ((recent color, seen at) of
  /// Section III-A). The node is *colored* in the current epoch iff
  /// colored_epoch equals the graph's current epoch.
  LocationId recent_color = kUnknownLocation;
  Epoch seen_at = kNeverEpoch;
  Epoch colored_epoch = kNeverEpoch;
  /// On the graph's dirty list (maintained by Graph::MarkDirty).
  bool dirty = false;
  ConfirmedParent confirmed;
  /// Incoming edges (possible containers) and outgoing edges (possible
  /// contents).
  std::vector<EdgeId> parent_edges;
  std::vector<EdgeId> child_edges;
};

/// A directed containment-candidate edge parent -> child. Endpoints are
/// named both by ObjectId and by arena NodeId.
struct Edge {
  ObjectId parent = kNoObject;
  ObjectId child = kNoObject;
  NodeId parent_node = kNoNode;
  NodeId child_node = kNoNode;
  /// recent_co-locations: positive/negative co-location evidence, newest
  /// observation at index 0.
  ShiftRegister recent_colocations{32};
  Epoch update_time = kNeverEpoch;
  Epoch created_at = kNeverEpoch;
  bool alive = false;
};

/// The mutable graph. One instance lives for the whole stream; the data
/// capture module updates it every epoch and the interpretation module reads
/// (and prunes) it.
class Graph {
 public:
  /// `history_size` is S, the capacity of every edge's co-location register.
  explicit Graph(int history_size = 32);

  /// Starts a new epoch: all nodes become uncolored (lazily, via the epoch
  /// stamp) and the per-epoch color index is cleared. `now` must increase
  /// strictly. Nodes colored in the previous epoch are marked dirty: losing
  /// the color changes their next estimate (observed -> inferred).
  void BeginEpoch(Epoch now);

  Epoch now() const { return now_; }

  /// Finds or creates the node for an object; the layer is decoded from the
  /// EPC id. Returns the node (reference stable across arena growth).
  Node& GetOrCreateNode(ObjectId id);

  /// Colors a node for the current epoch and updates (recent color, seen
  /// at). Also registers the node in the per-epoch color index and marks it
  /// dirty.
  void ColorNode(Node& node, LocationId color);

  /// True iff the node was observed in the current epoch.
  bool IsColored(const Node& node) const { return node.colored_epoch == now_; }

  /// The node's color this epoch, or kUnknownLocation when uncolored.
  LocationId ColorOf(const Node& node) const {
    return IsColored(node) ? node.recent_color : kUnknownLocation;
  }

  /// Node lookup by object; nullptr when the object has no node.
  Node* FindNode(ObjectId id);
  const Node* FindNode(ObjectId id) const;

  /// Arena slot of an object's node, or kNoNode.
  NodeId FindNodeId(ObjectId id) const {
    auto it = node_ids_.find(id);
    return it == node_ids_.end() ? kNoNode : it->second;
  }

  /// Direct arena access; `id` must be < NodeSlots(). The slot may be freed
  /// (see NodeAlive).
  Node& node(NodeId id) {
    return node_chunks_[id >> kNodeChunkShift][id & (kNodeChunkSize - 1)];
  }
  const Node& node(NodeId id) const {
    return node_chunks_[id >> kNodeChunkShift][id & (kNodeChunkSize - 1)];
  }

  /// True iff the slot currently holds a live node.
  bool NodeAlive(NodeId id) const { return node(id).id != kNoObject; }

  /// Arena slot access that hides freed slots; nullptr for a freed slot.
  Node* NodeAt(NodeId id) {
    Node& n = node(id);
    return n.id == kNoObject ? nullptr : &n;
  }
  const Node* NodeAt(NodeId id) const {
    const Node& n = node(id);
    return n.id == kNoObject ? nullptr : &n;
  }

  /// Number of arena slots ever allocated; NodeIds are always < NodeSlots().
  std::size_t NodeSlots() const { return node_slots_; }

  /// Creates the edge parent -> child unless it already exists; returns its
  /// id either way. The caller guarantees the color constraint.
  EdgeId AddEdge(ObjectId parent, ObjectId child);

  /// Looks up an existing edge parent -> child, or kNoEdge.
  EdgeId FindEdge(ObjectId parent, ObjectId child) const;

  /// FindEdge by live node slots: a scan of the child's parent edges, with
  /// no hash lookup.
  EdgeId FindSlotEdge(NodeId parent, NodeId child) const;

  /// Creates the edge parent -> child between two live nodes that have no
  /// such edge yet (the caller checked with FindSlotEdge); no hash lookup.
  EdgeId AddSlotEdge(NodeId parent, NodeId child);

  /// Removes an edge from the arena and both adjacency lists; both former
  /// endpoints are marked dirty.
  void RemoveEdge(EdgeId id);

  /// Removes a node and all its incident edges (used when an object exits
  /// the physical world through a proper channel). The freed slot is reused
  /// by a later GetOrCreateNode.
  void RemoveNode(ObjectId id);

  Edge& edge(EdgeId id) { return edges_[id]; }
  const Edge& edge(EdgeId id) const { return edges_[id]; }

  /// The node at the other end of an edge, as seen from `from`.
  ObjectId OtherEnd(const Edge& e, ObjectId from) const {
    return e.parent == from ? e.child : e.parent;
  }

  /// Ditto by arena slot.
  NodeId OtherEndNode(const Edge& e, NodeId from) const {
    return e.parent_node == from ? e.child_node : e.parent_node;
  }

  /// Slots of the nodes colored `color` in the current epoch at the given
  /// layer, in coloring order.
  const std::vector<NodeId>& ColoredAt(LocationId color, int layer) const;

  /// Arena slots of all nodes colored in the current epoch, in coloring
  /// order (the seed set for inference).
  const std::vector<NodeId>& ColoredSlots() const { return colored_slots_; }

  /// Nodes whose color, adjacency or confirmation state changed since the
  /// last ClearDirty(). May contain slots that were freed after being
  /// marked; callers filter with NodeAlive.
  const std::vector<NodeId>& DirtyNodes() const { return dirty_nodes_; }

  /// Marks a node as changed since the last complete inference pass.
  void MarkDirty(Node& node) {
    if (!node.dirty) {
      node.dirty = true;
      dirty_nodes_.push_back(node.self);
    }
  }

  /// Resets the dirty set (called by inference after a complete pass).
  void ClearDirty();

  std::size_t NumNodes() const { return num_alive_nodes_; }
  std::size_t NumEdges() const { return num_alive_edges_; }

  /// Upper bound on edge-arena slots (alive + free-listed); edge ids are
  /// always < EdgeCapacity().
  std::size_t EdgeCapacity() const { return edges_.size(); }

  int history_size() const { return history_size_; }

  /// Deterministic memory accounting in bytes: node, edge, adjacency and
  /// index footprints. Used by the Expt-6 reproduction in place of JVM heap
  /// measurements.
  std::size_t MemoryUsage() const;

 private:
  static constexpr std::size_t kNodeChunkShift = 10;
  static constexpr std::size_t kNodeChunkSize = std::size_t{1}
                                                << kNodeChunkShift;

  void DetachFromAdjacency(std::vector<EdgeId>& list, EdgeId id);
  NodeId AllocateSlot();

  int history_size_;
  Epoch now_ = kNeverEpoch;
  /// Chunked node arena: chunk pointers grow, chunks never move.
  std::vector<std::unique_ptr<Node[]>> node_chunks_;
  std::size_t node_slots_ = 0;
  std::vector<NodeId> free_nodes_;
  std::unordered_map<ObjectId, NodeId> node_ids_;
  std::size_t num_alive_nodes_ = 0;
  std::vector<Edge> edges_;
  std::vector<EdgeId> free_edges_;
  std::size_t num_alive_edges_ = 0;
  /// Per-epoch index: layer -> color -> colored nodes, flat by LocationId.
  /// `touched_colors_` lists the (layer, color) cells filled this epoch so
  /// BeginEpoch clears in O(touched), not O(location space).
  std::vector<std::vector<NodeId>> colored_index_[kNumPackagingLevels];
  std::vector<std::pair<int, LocationId>> touched_colors_;
  std::vector<NodeId> colored_slots_;
  std::vector<NodeId> dirty_nodes_;
};

}  // namespace spire
