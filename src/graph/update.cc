#include "graph/update.h"

#include <algorithm>

#include "obs/registry.h"

namespace spire {

namespace {

struct Instruments {
  obs::Counter* epochs_applied;
  obs::Counter* readings;
  obs::Counter* nodes_created;
  obs::Counter* edges_created;
  obs::Counter* edges_removed;
  obs::Counter* confirmations;
  obs::Counter* conflicts_recorded;
};

const Instruments* GetInstruments() {
  if (!obs::Enabled()) return nullptr;
  auto& registry = obs::Registry::Global();
  static const Instruments instruments{
      registry.GetCounter("graph", "epochs_applied"),
      registry.GetCounter("graph", "readings"),
      registry.GetCounter("graph", "nodes_created"),
      registry.GetCounter("graph", "edges_created"),
      registry.GetCounter("graph", "edges_removed"),
      registry.GetCounter("graph", "confirmations"),
      registry.GetCounter("graph", "conflicts_recorded"),
  };
  return &instruments;
}

}  // namespace

UpdateStats& UpdateStats::operator+=(const UpdateStats& other) {
  readings += other.readings;
  nodes_created += other.nodes_created;
  edges_created += other.edges_created;
  edges_removed += other.edges_removed;
  colocations_recorded += other.colocations_recorded;
  confirmations += other.confirmations;
  conflicts_recorded += other.conflicts_recorded;
  return *this;
}

void GraphUpdater::BeginEpoch(Epoch now) {
  graph_->BeginEpoch(now);
  exited_.clear();
}

UpdateStats GraphUpdater::ApplyEpoch(const EpochBatch& batch) {
  BeginEpoch(batch.epoch);
  UpdateStats stats;
  for (const ReaderBatch& reader_batch : batch.per_reader) {
    stats += ApplyReaderBatch(reader_batch);
  }
  if (const Instruments* instruments = GetInstruments()) {
    instruments->epochs_applied->Add(1);
    instruments->readings->Add(stats.readings);
    instruments->nodes_created->Add(stats.nodes_created);
    instruments->edges_created->Add(stats.edges_created);
    instruments->edges_removed->Add(stats.edges_removed);
    instruments->confirmations->Add(stats.confirmations);
    instruments->conflicts_recorded->Add(stats.conflicts_recorded);
  }
  return stats;
}

GraphUpdater::Confirmation GraphUpdater::ComputeConfirmation() {
  Confirmation confirmation;
  // Domain knowledge (Section III-B): a belt reader scans one top-level
  // container at a time. When the batch contains exactly one object at its
  // highest packaging level, that object is the confirmed top-level
  // container and every adjacent-layer object in the batch is confirmed to
  // be directly contained in it. (Objects two layers down — items under a
  // scanned pallet — are not confirmed: their direct container is unknown.)
  int top_layer = kNumPackagingLevels - 1;
  while (top_layer >= 0 && by_layer_[top_layer].empty()) --top_layer;
  if (top_layer <= 0 || by_layer_[top_layer].size() != 1) return confirmation;
  confirmation.active = true;
  confirmation.top = graph_->node(by_layer_[top_layer][0]).id;
  confirmed_.assign(by_layer_[top_layer - 1].begin(),
                    by_layer_[top_layer - 1].end());
  std::sort(confirmed_.begin(), confirmed_.end());
  return confirmation;
}

UpdateStats GraphUpdater::ApplyReaderBatch(const ReaderBatch& batch) {
  UpdateStats stats;
  auto reader = registry_->GetReader(batch.reader);
  if (!reader.ok() || batch.tags.empty()) return stats;
  // Mobile readers resolve to their patrol stop for this epoch.
  const LocationId color = registry_->LocationAt(batch.reader, graph_->now());
  const bool special = IsSpecialReader(reader.value().type);
  const bool exit = IsExitReader(reader.value().type);

  // Step 1: create and color nodes; stamp those that gained a *new* color
  // (just created, or observed at a different location than their most
  // recent color) — only those spawn edges in step 2.
  if (++batch_ == 0) {
    // The counter wrapped: stamps from 2^32 batches ago would match.
    std::fill(new_color_stamp_.begin(), new_color_stamp_.end(), 0);
    batch_ = 1;
  }
  for (auto& layer : by_layer_) layer.clear();
  for (ObjectId tag : batch.tags) {
    // One hash lookup per reading: the arena slot from here on.
    Node* existing = graph_->FindNode(tag);
    bool new_color = false;
    if (existing == nullptr) {
      ++stats.nodes_created;
      new_color = true;
    } else if (existing->recent_color != color) {
      new_color = true;
    }
    Node& node =
        existing != nullptr ? *existing : graph_->GetOrCreateNode(tag);
    if (node.self >= new_color_stamp_.size()) {
      new_color_stamp_.resize(graph_->NodeSlots(), 0);
    }
    if (new_color) new_color_stamp_[node.self] = batch_;
    graph_->ColorNode(node, color);
    by_layer_[static_cast<std::size_t>(node.layer)].push_back(node.self);
    ++stats.readings;
    if (exit) exited_.push_back(tag);
  }

  const Confirmation confirmation =
      special ? ComputeConfirmation() : Confirmation{};

  // Steps 2-4, packaging levels bottom-up (Fig. 4 line 7).
  for (int layer = 0; layer < kNumPackagingLevels; ++layer) {
    for (NodeId slot : by_layer_[static_cast<std::size_t>(layer)]) {
      // Step 2: connect a newly colored node to same-colored nodes in the
      // closest layer above and below (edges may cross layers when the
      // adjacent layer has no node of this color).
      if (new_color_stamp_[slot] == batch_) {
        for (int above = layer + 1; above < kNumPackagingLevels; ++above) {
          const auto& candidates = graph_->ColoredAt(color, above);
          if (candidates.empty()) continue;
          for (NodeId parent : candidates) {
            if (graph_->FindSlotEdge(parent, slot) == kNoEdge) {
              graph_->AddSlotEdge(parent, slot);
              ++stats.edges_created;
            }
          }
          break;
        }
        for (int below = layer - 1; below >= 0; --below) {
          const auto& candidates = graph_->ColoredAt(color, below);
          if (candidates.empty()) continue;
          for (NodeId child : candidates) {
            if (graph_->FindSlotEdge(slot, child) == kNoEdge) {
              graph_->AddSlotEdge(slot, child);
              ++stats.edges_created;
            }
          }
          break;
        }
      }

      // Steps 3-4: examine every incident edge once per epoch.
      ProcessIncidentEdges(graph_->node(slot), color, confirmation, &stats);
    }
  }
  return stats;
}

void GraphUpdater::ProcessIncidentEdges(Node& v, LocationId color,
                                        const Confirmation& confirmation,
                                        UpdateStats* stats) {
  const Epoch now = graph_->now();
  // Copy: edge removal mutates the adjacency lists.
  incident_.assign(v.parent_edges.begin(), v.parent_edges.end());
  incident_.insert(incident_.end(), v.child_edges.begin(),
                   v.child_edges.end());

  for (EdgeId id : incident_) {
    Edge& e = graph_->edge(id);
    if (!e.alive) continue;
    Node* other = graph_->NodeAt(graph_->OtherEndNode(e, v.self));
    if (other == nullptr) continue;

    const bool other_colored = graph_->IsColored(*other);
    const bool same_color = other_colored && other->recent_color == color;
    // When both endpoints are colored alike this epoch, the edge is handled
    // once, from the higher packaging level (cost analysis, Section III-B).
    if (same_color && other->layer > v.layer) continue;

    // Step 3: remove outdated edges.
    bool drop = false;
    if (e.created_at < now && other_colored && !same_color) {
      // Two previously co-located objects now report different locations.
      drop = true;
    }
    if (!drop && confirmation.active) {
      if (e.child == confirmation.top) {
        // The child is a confirmed top-level container: it has no parent.
        drop = true;
      } else if (IsConfirmedChild(confirmation, e.child_node) &&
                 e.parent != confirmation.top) {
        // The child's container is confirmed to be `top`; competing parent
        // edges are eliminated.
        drop = true;
      }
    }
    if (drop) {
      graph_->RemoveEdge(id);
      ++stats->edges_removed;
      continue;
    }

    // Step 4: update edge statistics once per epoch.
    if (e.update_time < now) {
      UpdateEdgeStats(e, same_color, confirmation, stats);
      e.update_time = now;
    }
  }
}

void GraphUpdater::UpdateEdgeStats(Edge& e, bool same_color,
                                   const Confirmation& confirmation,
                                   UpdateStats* stats) {
  const Epoch now = graph_->now();
  // Right-shift the history and record the newest observation. The push
  // only dirties the endpoints when it changes the register's *visible*
  // window — a saturated all-alike history absorbing one more identical
  // observation leaves every edge weight (and thus every estimate) as it
  // was, so the incremental pass may keep the region cached.
  const std::uint64_t window_before = e.recent_colocations.Window();
  const int count_before = e.recent_colocations.size();
  e.recent_colocations.Push(same_color);
  if (e.recent_colocations.Window() != window_before ||
      e.recent_colocations.size() != count_before) {
    if (Node* parent = graph_->NodeAt(e.parent_node)) graph_->MarkDirty(*parent);
    if (Node* child = graph_->NodeAt(e.child_node)) graph_->MarkDirty(*child);
  }
  if (same_color) ++stats->colocations_recorded;

  Node* child = graph_->NodeAt(e.child_node);
  if (child == nullptr) return;

  if (same_color && confirmation.active && e.parent == confirmation.top &&
      IsConfirmedChild(confirmation, e.child_node)) {
    // A special reader confirmed this containment.
    child->confirmed.parent = e.parent;
    child->confirmed.confirmed_at = now;
    child->confirmed.conflicts = 0;
    child->confirmed.observations = 0;
    graph_->MarkDirty(*child);
    ++stats->confirmations;
    return;
  }

  if (child->confirmed.parent == e.parent &&
      child->confirmed.confirmed_at != kNeverEpoch) {
    // The confirmed edge was exercised: track agreement/conflict for the
    // adaptive-beta heuristic and the conflict count of Section III-A.
    ++child->confirmed.observations;
    graph_->MarkDirty(*child);
    if (!same_color) {
      ++child->confirmed.conflicts;
      ++stats->conflicts_recorded;
    }
  }
}

}  // namespace spire
