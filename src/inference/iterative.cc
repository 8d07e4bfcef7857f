#include "inference/iterative.h"

#include <algorithm>
#include <cassert>

#include "common/scratch.h"
#include "obs/registry.h"
#include "obs/trace.h"

namespace spire {

namespace {

struct Instruments {
  obs::Counter* passes_complete;
  obs::Counter* passes_partial;
  obs::Counter* waves;
  obs::Counter* edges_pruned;
  obs::Counter* estimates;
  obs::Counter* dirty_nodes;
  obs::Counter* fade_wakeups;
  obs::Counter* cache_hits;
  obs::Counter* nodes_reinferred;
};

const Instruments* GetInstruments() {
  if (!obs::Enabled()) return nullptr;
  auto& registry = obs::Registry::Global();
  static const Instruments instruments{
      registry.GetCounter("inference", "passes_complete"),
      registry.GetCounter("inference", "passes_partial"),
      registry.GetCounter("inference", "waves"),
      registry.GetCounter("inference", "edges_pruned"),
      registry.GetCounter("inference", "estimates"),
      registry.GetCounter("inference", "dirty_nodes"),
      registry.GetCounter("inference", "fade_wakeups"),
      registry.GetCounter("inference", "cache_hits"),
      registry.GetCounter("inference", "nodes_reinferred"),
  };
  return &instruments;
}

}  // namespace

// ------------------------------------------------------------- FadeWheel ---

void IterativeInference::FadeWheel::Resize(std::size_t slots) {
  if (wake_.size() < slots) wake_.resize(slots, kNeverEpoch);
}

void IterativeInference::FadeWheel::Schedule(NodeId slot, Epoch deadline) {
  wake_[slot] = deadline;
  if (deadline == kNeverEpoch) return;
  ring_[static_cast<std::size_t>(deadline) & (kBuckets - 1)].push_back(
      Entry{deadline, slot});
}

void IterativeInference::FadeWheel::Drain(std::vector<Entry>& bucket,
                                          Epoch now,
                                          std::vector<NodeId>* out) {
  std::size_t kept = 0;
  for (std::size_t i = 0; i < bucket.size(); ++i) {
    const Entry entry = bucket[i];
    if (entry.deadline > now) {
      bucket[kept++] = entry;
      continue;
    }
    // Due, or stale (superseded by a later Schedule). Only the entry that
    // matches the authoritative wake-up fires; either way it leaves the
    // ring.
    if (wake_[entry.slot] == entry.deadline) {
      wake_[entry.slot] = kNeverEpoch;
      out->push_back(entry.slot);
    }
  }
  bucket.resize(kept);
}

void IterativeInference::FadeWheel::Collect(Epoch prev, Epoch now,
                                            std::vector<NodeId>* out) {
  if (now <= prev) return;
  if (now - prev >= static_cast<Epoch>(kBuckets)) {
    for (auto& bucket : ring_) Drain(bucket, now, out);
    return;
  }
  // Any deadline in (prev, now] hashes into one of these consecutive
  // buckets; earlier deadlines were collected by earlier calls.
  for (Epoch e = prev + 1; e <= now; ++e) {
    Drain(ring_[static_cast<std::size_t>(e) & (kBuckets - 1)], now, out);
  }
}

void IterativeInference::FadeWheel::Clear() {
  for (auto& bucket : ring_) bucket.clear();
  std::fill(wake_.begin(), wake_.end(), kNeverEpoch);
}

// -------------------------------------------------------------- Inference ---

std::vector<Epoch> IterativeInference::LocationPeriods(
    const ReaderRegistry* registry) {
  if (registry == nullptr) return {};
  return spire::LocationPeriods(*registry);
}

void IterativeInference::EnsureScratch() {
  const std::size_t slots = graph_->NodeSlots();
  if (visited_stamp_.size() >= slots) return;
  visited_stamp_.resize(slots, 0);
  known_stamp_.resize(slots, 0);
  known_value_.resize(slots, kUnknownLocation);
  reach_stamp_.resize(slots, 0);
  cache_.resize(slots);
  cache_container_.resize(slots, kNoNode);
  cache_valid_.resize(slots, 0);
  wheel_.Resize(slots);
}

EdgeInferenceResult IterativeInference::InferEdgesAndPrune(
    const Node& node, InferenceResult* result) {
  prunable_.clear();
  EdgeInferenceResult inferred = edge_inferencer_.InferAt(node, &prunable_);
  for (EdgeId id : prunable_) {
    if (id == inferred.best_edge) {
      // The chosen edge itself fell below the threshold: the containment
      // evidence is too weak to keep.
      inferred.best_edge = kNoEdge;
      inferred.best_parent = kNoObject;
      inferred.best_parent_node = kNoNode;
      inferred.best_prob = 0.0;
      inferred.runner_up_prob = 0.0;
    }
    graph_->RemoveEdge(id);
    ++result->edges_pruned;
  }
  return inferred;
}

Epoch IterativeInference::FadeDeadline(const ScoreModel& model,
                                       Epoch now) const {
  return store_cache_ ? NextArgmaxFlip(model, now, now + kFadeHorizon)
                      : kNeverEpoch;
}

void IterativeInference::StoreCache(NodeId slot,
                                    const ObjectEstimate& estimate,
                                    NodeId container_slot, Epoch deadline) {
  if (!store_cache_) return;
  cache_[slot] = estimate;
  cache_container_[slot] = container_slot;
  cache_valid_[slot] = 1;
  wheel_.Schedule(slot, deadline);
}

bool IterativeInference::CaptureHandoff(NodeId slot, ObjectEstimate* estimate,
                                        Epoch* deadline) const {
  *deadline = wheel_.ScheduledAt(slot);
  // The validity check mirrors the incremental pass's cache-hole safety
  // net: a slot may have been recycled since the entry was stored.
  if (slot >= cache_valid_.size() || cache_valid_[slot] == 0) return false;
  if (cache_[slot].object != graph_->node(slot).id) return false;
  *estimate = cache_[slot];
  return true;
}

void IterativeInference::ImplantHandoff(NodeId slot,
                                        const ObjectEstimate& estimate,
                                        Epoch deadline) {
  // The slot belongs to a node the caller just created, so EnsureScratch
  // covers it. Implanting is unconditional (not gated on store_cache_):
  // with incremental inference off the entry is simply never read. The
  // node is dirty, so the entry is never replayed and needs no container
  // slot.
  EnsureScratch();
  cache_[slot] = estimate;
  cache_container_[slot] = kNoNode;
  cache_valid_[slot] = 1;
  wheel_.Schedule(slot, deadline);
}

void IterativeInference::RunPass(Epoch now, bool complete,
                                 const std::vector<NodeId>* restrict_to,
                                 InferenceResult* result) {
  edge_inferencer_.BeginPass();
  EnsureScratch();
  ++pass_;
  const std::uint64_t pass = pass_;

  PassColors colors;
  colors.graph = graph_;
  colors.known_stamp = known_stamp_.data();
  colors.known_value = known_value_.data();
  colors.pass = pass;

  // Wave d = 0: the observed nodes. Edge inference estimates their most
  // likely containers; their location is the observed color. In a
  // restricted pass every colored node is a seed (coloring marks dirty), so
  // wave 0 — and with it the whole BFS — is identical to the full pass's.
  wave_.clear();
  for (NodeId slot : graph_->ColoredSlots()) {
    visited_stamp_[slot] = pass;
    wave_.push_back(slot);
  }
  for (NodeId slot : wave_) {
    Node& node = graph_->node(slot);
    EdgeInferenceResult edges = InferEdgesAndPrune(node, result);
    ObjectEstimate estimate;
    estimate.object = node.id;
    estimate.location = node.recent_color;
    estimate.location_prob = 1.0;
    estimate.container = edges.best_parent;
    estimate.container_prob = edges.best_prob;
    estimate.container_runner_up = edges.runner_up_prob;
    estimate.observed = true;
    result->Put(slot, estimate, edges.best_parent_node);
    known_stamp_[slot] = pass;
    known_value_[slot] = node.recent_color;
    if (complete) {
      StoreCache(slot, estimate, edges.best_parent_node, kNeverEpoch);
    }
  }

  // Waves d = 1, 2, ...: uncolored nodes in increasing distance.
  int distance = 0;
  while (!wave_.empty()) {
    ++distance;
    if (!complete && distance > params_.partial_hops) break;
    obs::ScopedSpan wave_span("inference", "wave", now);

    // Collect the next wave from the (post-pruning) adjacency of this one.
    next_.clear();
    for (NodeId slot : wave_) {
      const Node& node = graph_->node(slot);
      auto discover = [&](NodeId neighbor) {
        if (visited_stamp_[neighbor] != pass) {
          visited_stamp_[neighbor] = pass;
          next_.push_back(neighbor);
        }
      };
      for (EdgeId e : node.parent_edges) discover(graph_->edge(e).parent_node);
      for (EdgeId e : node.child_edges) discover(graph_->edge(e).child_node);
    }
    if (next_.empty()) break;

    // Edge inference (with pruning) for the whole wave first...
    wave_edges_.clear();
    for (NodeId slot : next_) {
      wave_edges_.push_back(InferEdgesAndPrune(graph_->node(slot), result));
    }
    // ...then node inference, seeing only colors from earlier waves.
    // A node's fade deadline is read off its score model right away, so
    // one model serves the whole wave.
    pending_.clear();
    wave_deadlines_.clear();
    for (std::size_t i = 0; i < next_.size(); ++i) {
      const Node& node = graph_->node(next_[i]);
      const EdgeInferenceResult& edges = wave_edges_[i];
      NodeInferenceResult location =
          node_inferencer_.InferAt(node, now, colors, &model_);
      wave_deadlines_.push_back(complete ? FadeDeadline(model_, now)
                                         : kNeverEpoch);
      ObjectEstimate estimate;
      estimate.object = node.id;
      estimate.location = location.location;
      estimate.location_prob = location.probability;
      estimate.location_runner_up = location.runner_up;
      estimate.container = edges.best_parent;
      estimate.container_prob = edges.best_prob;
      estimate.container_runner_up = edges.runner_up_prob;
      estimate.observed = false;
      estimate.withheld = !complete && location.location == kUnknownLocation;
      pending_.push_back(estimate);
    }
    // Commit the wave: later waves may now use these colors.
    for (std::size_t i = 0; i < next_.size(); ++i) {
      const ObjectEstimate& estimate = pending_[i];
      const NodeId container_slot = wave_edges_[i].best_parent_node;
      result->Put(next_[i], estimate, container_slot);
      if (estimate.location != kUnknownLocation) {
        known_stamp_[next_[i]] = pass;
        known_value_[next_[i]] = estimate.location;
      }
      if (complete) {
        StoreCache(next_[i], estimate, container_slot, wave_deadlines_[i]);
      }
    }
    result->waves = static_cast<std::size_t>(distance);
    wave_.swap(next_);
  }

  if (complete) {
    // Nodes unreachable from any colored node ("d = infinity"): no color can
    // propagate to them; infer from their fading colors alone.
    rest_.clear();
    if (restrict_to == nullptr) {
      const std::size_t slots = graph_->NodeSlots();
      for (NodeId slot = 0; slot < slots; ++slot) {
        if (!graph_->NodeAlive(slot)) continue;
        if (visited_stamp_[slot] == pass) continue;
        rest_.push_back(slot);
      }
    } else {
      for (NodeId slot : *restrict_to) {
        if (visited_stamp_[slot] == pass) continue;
        rest_.push_back(slot);
      }
    }
    std::sort(rest_.begin(), rest_.end(), [&](NodeId a, NodeId b) {
      return graph_->node(a).id < graph_->node(b).id;
    });
    for (NodeId slot : rest_) {
      const Node& node = graph_->node(slot);
      EdgeInferenceResult edges = InferEdgesAndPrune(node, result);
      NodeInferenceResult location =
          node_inferencer_.InferAt(node, now, colors, &model_);
      ObjectEstimate estimate;
      estimate.object = node.id;
      estimate.location = location.location;
      estimate.location_prob = location.probability;
      estimate.location_runner_up = location.runner_up;
      estimate.container = edges.best_parent;
      estimate.container_prob = edges.best_prob;
      estimate.container_runner_up = edges.runner_up_prob;
      estimate.observed = false;
      result->Put(slot, estimate, edges.best_parent_node);
      StoreCache(slot, estimate, edges.best_parent_node,
                 FadeDeadline(model_, now));
    }
  }
}

void IterativeInference::RunPartial(Epoch now, InferenceResult* result) {
  store_cache_ = false;
  result->Reset(now, false);
  RunPass(now, false, nullptr, result);
  // A partial pass follows complete ones: release their result storage.
  TrimScratch(&result->entries(), result->size());
  if (const Instruments* instruments = GetInstruments()) {
    instruments->passes_partial->Add(1);
    instruments->waves->Add(result->waves);
    instruments->edges_pruned->Add(result->edges_pruned);
    instruments->estimates->Add(result->size());
  }
}

void IterativeInference::RunFullComplete(Epoch now, InferenceResult* result) {
  // Cache maintenance (and its deadline computations) only pays off when
  // incremental passes will consume it.
  store_cache_ = params_.incremental;
  if (store_cache_) {
    EnsureScratch();
    wheel_.Clear();
  }
  // Consume the dirty set *before* the pass: edges pruned mid-pass re-dirty
  // their endpoints, and those marks must survive into the next epoch's
  // seeds (the pass's cached estimates saw the pre-pruning structure).
  graph_->ClearDirty();
  RunPass(now, true, nullptr, result);
  cache_primed_ = store_cache_;
  passes_since_full_ = 0;
  last_complete_ = now;
  if (const Instruments* instruments = GetInstruments()) {
    instruments->passes_complete->Add(1);
    instruments->waves->Add(result->waves);
    instruments->edges_pruned->Add(result->edges_pruned);
    instruments->estimates->Add(result->size());
    instruments->nodes_reinferred->Add(result->size());
  }
}

void IterativeInference::RunIncrementalComplete(Epoch now,
                                                InferenceResult* result) {
  EnsureScratch();
  store_cache_ = true;
  ++reach_round_;
  const std::uint64_t round = reach_round_;

  // Seeds: nodes whose inputs changed (dirty) or whose fade deadline
  // arrived (due). Dead slots may linger on either list; skip them.
  reach_.clear();
  auto seed = [&](NodeId slot) {
    if (!graph_->NodeAlive(slot)) return;
    if (reach_stamp_[slot] == round) return;
    reach_stamp_[slot] = round;
    reach_.push_back(slot);
  };
  for (NodeId slot : graph_->DirtyNodes()) seed(slot);
  const std::size_t dirty_seeds = reach_.size();
  // Seeds are consumed; marks set from here on (mid-pass pruning) are next
  // epoch's seeds.
  graph_->ClearDirty();
  due_.clear();
  wheel_.Collect(last_complete_, now, &due_);
  for (NodeId slot : due_) seed(slot);

  // The recompute set is the union of the seeds' connected components:
  // estimates are a per-component function, so recomputing whole components
  // (and nothing less) reproduces the full pass bit-for-bit.
  auto close_reach = [&](std::size_t from) {
    for (std::size_t i = from; i < reach_.size(); ++i) {
      const Node& node = graph_->node(reach_[i]);
      auto grow = [&](NodeId neighbor) {
        if (reach_stamp_[neighbor] != round) {
          reach_stamp_[neighbor] = round;
          reach_.push_back(neighbor);
        }
      };
      for (EdgeId e : node.parent_edges) grow(graph_->edge(e).parent_node);
      for (EdgeId e : node.child_edges) grow(graph_->edge(e).child_node);
    }
  };
  close_reach(0);

  // Safety net: every untouched node must have a valid cached estimate. A
  // hole (which the seeding rules are designed to make impossible) extends
  // the recompute set *before* the pass runs, so a fallback never mixes
  // with a partially pruned graph.
  const std::size_t slots = graph_->NodeSlots();
  for (NodeId slot = 0; slot < slots; ++slot) {
    if (!graph_->NodeAlive(slot) || reach_stamp_[slot] == round) continue;
    if (cache_valid_[slot] && cache_[slot].object == graph_->node(slot).id) {
      continue;
    }
    const std::size_t from = reach_.size();
    reach_stamp_[slot] = round;
    reach_.push_back(slot);
    close_reach(from);
  }

  RunPass(now, true, &reach_, result);
  const std::size_t reinferred = result->size();

  // Untouched components: replay the cached estimates. Their (location,
  // container, observed, withheld) equal what a full pass would recompute;
  // the posteriors may lag (explain channel only, see DESIGN.md §10).
  for (NodeId slot = 0; slot < slots; ++slot) {
    if (!graph_->NodeAlive(slot) || reach_stamp_[slot] == round) continue;
    result->Put(slot, cache_[slot], cache_container_[slot]);
  }
  const std::size_t cache_hits = result->size() - reinferred;

  ++passes_since_full_;
  last_complete_ = now;
  if (const Instruments* instruments = GetInstruments()) {
    instruments->passes_complete->Add(1);
    instruments->waves->Add(result->waves);
    instruments->edges_pruned->Add(result->edges_pruned);
    instruments->estimates->Add(result->size());
    instruments->dirty_nodes->Add(dirty_seeds);
    instruments->fade_wakeups->Add(due_.size());
    instruments->cache_hits->Add(cache_hits);
    instruments->nodes_reinferred->Add(reinferred);
  }
}

void IterativeInference::RunComplete(Epoch now, InferenceResult* result) {
  result->Reset(now, true);
  // Every live node gets an estimate: one allocation at most.
  result->entries().reserve(graph_->NumNodes());
  const bool resync_due = params_.full_resync_passes > 0 &&
                          passes_since_full_ >= params_.full_resync_passes;
  if (!params_.incremental || !cache_primed_ || resync_due) {
    RunFullComplete(now, result);
  } else {
    RunIncrementalComplete(now, result);
  }
}

}  // namespace spire
