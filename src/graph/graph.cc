#include "graph/graph.h"

#include <algorithm>
#include <cassert>

namespace spire {

Graph::Graph(int history_size) : history_size_(history_size) {
  assert(history_size >= 1 && history_size <= ShiftRegister::kMaxCapacity);
}

void Graph::BeginEpoch(Epoch now) {
  assert(now > now_);
  now_ = now;
  // Losing the epoch color changes a node's next estimate (observed ->
  // inferred), so last epoch's colored nodes are change candidates.
  for (NodeId slot : colored_slots_) {
    if (NodeAlive(slot)) MarkDirty(node(slot));
  }
  for (const auto& [layer, color] : touched_colors_) {
    colored_index_[layer][color].clear();
  }
  touched_colors_.clear();
  colored_slots_.clear();
}

NodeId Graph::AllocateSlot() {
  if (!free_nodes_.empty()) {
    NodeId slot = free_nodes_.back();
    free_nodes_.pop_back();
    return slot;
  }
  const NodeId slot = static_cast<NodeId>(node_slots_);
  if ((node_slots_ & (kNodeChunkSize - 1)) == 0) {
    node_chunks_.push_back(std::make_unique<Node[]>(kNodeChunkSize));
  }
  ++node_slots_;
  return slot;
}

Node& Graph::GetOrCreateNode(ObjectId id) {
  auto [it, inserted] = node_ids_.try_emplace(id, kNoNode);
  if (!inserted) return node(it->second);
  const NodeId slot = AllocateSlot();
  it->second = slot;
  Node& n = node(slot);
  // Reset fields individually: clear() keeps the adjacency vectors'
  // capacity on slot reuse, and the dirty flag stays in sync with the
  // dirty list (the freed slot may still be queued there).
  n.id = id;
  n.self = slot;
  n.layer = EpcLayer(id);
  n.recent_color = kUnknownLocation;
  n.seen_at = kNeverEpoch;
  n.colored_epoch = kNeverEpoch;
  n.confirmed = ConfirmedParent{};
  n.parent_edges.clear();
  n.child_edges.clear();
  ++num_alive_nodes_;
  return n;
}

void Graph::ColorNode(Node& node, LocationId color) {
  if (IsColored(node) && node.recent_color == color) return;
  // A new color or a refreshed seen_at both change the node's estimate.
  MarkDirty(node);
  node.recent_color = color;
  node.seen_at = now_;
  if (node.colored_epoch != now_) {
    node.colored_epoch = now_;
    colored_slots_.push_back(node.self);
  }
  auto& by_color = colored_index_[node.layer];
  if (color >= by_color.size()) by_color.resize(color + 1);
  if (by_color[color].empty()) touched_colors_.emplace_back(node.layer, color);
  by_color[color].push_back(node.self);
}

Node* Graph::FindNode(ObjectId id) {
  auto it = node_ids_.find(id);
  return it == node_ids_.end() ? nullptr : &node(it->second);
}

const Node* Graph::FindNode(ObjectId id) const {
  auto it = node_ids_.find(id);
  return it == node_ids_.end() ? nullptr : &node(it->second);
}

void Graph::ClearDirty() {
  for (NodeId slot : dirty_nodes_) node(slot).dirty = false;
  dirty_nodes_.clear();
}

EdgeId Graph::AddEdge(ObjectId parent, ObjectId child) {
  EdgeId existing = FindEdge(parent, child);
  if (existing != kNoEdge) return existing;
  // Node references stay valid across both GetOrCreateNode calls: the
  // chunked arena never moves existing nodes.
  const NodeId parent_slot = GetOrCreateNode(parent).self;
  return AddSlotEdge(parent_slot, GetOrCreateNode(child).self);
}

EdgeId Graph::FindSlotEdge(NodeId parent, NodeId child) const {
  for (EdgeId id : node(child).parent_edges) {
    if (edges_[id].parent_node == parent) return id;
  }
  return kNoEdge;
}

EdgeId Graph::AddSlotEdge(NodeId parent, NodeId child) {
  assert(FindSlotEdge(parent, child) == kNoEdge);
  EdgeId id;
  if (!free_edges_.empty()) {
    id = free_edges_.back();
    free_edges_.pop_back();
  } else {
    id = static_cast<EdgeId>(edges_.size());
    edges_.emplace_back();
  }
  Node& parent_node = node(parent);
  Node& child_node = node(child);
  Edge& e = edges_[id];
  e = Edge{};
  e.parent = parent_node.id;
  e.child = child_node.id;
  e.parent_node = parent_node.self;
  e.child_node = child_node.self;
  e.recent_colocations = ShiftRegister(history_size_);
  e.created_at = now_;
  e.alive = true;

  parent_node.child_edges.push_back(id);
  child_node.parent_edges.push_back(id);
  MarkDirty(parent_node);
  MarkDirty(child_node);
  ++num_alive_edges_;
  return id;
}

EdgeId Graph::FindEdge(ObjectId parent, ObjectId child) const {
  const Node* child_node = FindNode(child);
  if (child_node == nullptr) return kNoEdge;
  for (EdgeId id : child_node->parent_edges) {
    if (edges_[id].parent == parent) return id;
  }
  return kNoEdge;
}

void Graph::RemoveEdge(EdgeId id) {
  Edge& e = edges_[id];
  assert(e.alive);
  if (Node* parent = NodeAt(e.parent_node)) {
    DetachFromAdjacency(parent->child_edges, id);
    MarkDirty(*parent);
  }
  if (Node* child = NodeAt(e.child_node)) {
    DetachFromAdjacency(child->parent_edges, id);
    MarkDirty(*child);
  }
  e.alive = false;
  free_edges_.push_back(id);
  --num_alive_edges_;
}

void Graph::RemoveNode(ObjectId id) {
  Node* node = FindNode(id);
  if (node == nullptr) return;
  // Copy: RemoveEdge mutates the adjacency lists. Removal dirties every
  // former neighbor (via RemoveEdge), which is what re-seeds inference in
  // the region the node left.
  std::vector<EdgeId> incident = node->parent_edges;
  incident.insert(incident.end(), node->child_edges.begin(),
                  node->child_edges.end());
  for (EdgeId e : incident) RemoveEdge(e);
  // The per-epoch color index may still reference the node; uncolor lazily
  // is not possible for removed ids, so purge it eagerly.
  if (node->colored_epoch == now_) {
    auto& by_color = colored_index_[node->layer];
    if (node->recent_color < by_color.size()) {
      auto& vec = by_color[node->recent_color];
      vec.erase(std::remove(vec.begin(), vec.end(), node->self), vec.end());
    }
    colored_slots_.erase(
        std::remove(colored_slots_.begin(), colored_slots_.end(), node->self),
        colored_slots_.end());
  }
  node_ids_.erase(id);
  free_nodes_.push_back(node->self);
  node->id = kNoObject;
  --num_alive_nodes_;
}

const std::vector<NodeId>& Graph::ColoredAt(LocationId color,
                                            int layer) const {
  static const std::vector<NodeId> kEmpty;
  assert(layer >= 0 && layer < kNumPackagingLevels);
  const auto& by_color = colored_index_[layer];
  return color < by_color.size() ? by_color[color] : kEmpty;
}

std::size_t Graph::MemoryUsage() const {
  std::size_t bytes = 0;
  // Arena node storage: whole chunks, plus the id map's entry payload with
  // an assumed bucket/control overhead of two pointers per entry.
  bytes += node_chunks_.size() * kNodeChunkSize * sizeof(Node);
  bytes += node_ids_.size() *
           (sizeof(std::pair<ObjectId, NodeId>) + 2 * sizeof(void*));
  for (NodeId slot = 0; slot < node_slots_; ++slot) {
    const Node& n = node(slot);
    bytes += n.parent_edges.capacity() * sizeof(EdgeId);
    bytes += n.child_edges.capacity() * sizeof(EdgeId);
  }
  bytes += free_nodes_.capacity() * sizeof(NodeId);
  bytes += edges_.capacity() * sizeof(Edge);
  bytes += free_edges_.capacity() * sizeof(EdgeId);
  bytes += colored_slots_.capacity() * sizeof(NodeId);
  bytes += dirty_nodes_.capacity() * sizeof(NodeId);
  for (const auto& layer_index : colored_index_) {
    bytes += layer_index.capacity() * sizeof(std::vector<NodeId>);
    for (const auto& cell : layer_index) {
      bytes += cell.capacity() * sizeof(NodeId);
    }
  }
  return bytes;
}

void Graph::DetachFromAdjacency(std::vector<EdgeId>& list, EdgeId id) {
  auto it = std::find(list.begin(), list.end(), id);
  if (it != list.end()) {
    *it = list.back();
    list.pop_back();
  }
}

}  // namespace spire
