#include "spire/pipeline.h"

#include <algorithm>
#include <chrono>
#include <unordered_set>

#include "common/epc.h"
#include "common/scratch.h"
#include "obs/trace.h"
#include "store/archive_writer.h"

namespace spire {

namespace {

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
      .count();
}

}  // namespace

SpirePipeline::SpirePipeline(const ReaderRegistry* registry,
                             PipelineOptions options)
    : registry_(registry),
      options_(options),
      graph_(options.history_size),
      updater_(&graph_, registry),
      inference_(&graph_, options.inference, registry),
      schedule_(InferenceSchedule::FromRegistry(*registry)) {
  if (options_.level == CompressionLevel::kLevel1) {
    compressor_ = std::make_unique<RangeCompressor>(options_.compressor);
  } else {
    compressor_ = std::make_unique<ContainmentCompressor>(options_.compressor);
  }
  if (options_.suppress_warmup_output) {
    for (const ReaderInfo& reader : registry_->readers()) {
      if (reader.type == ReaderType::kEntryDoor) {
        warmup_locations_.push_back(reader.location);
      }
    }
  }
}

bool SpirePipeline::IsWarmupLocation(LocationId location) const {
  return std::find(warmup_locations_.begin(), warmup_locations_.end(),
                   location) != warmup_locations_.end();
}

bool SpirePipeline::IsRetired(ObjectId id, Epoch epoch) const {
  auto it = retired_.find(id);
  return it != retired_.end() &&
         epoch - it->second <= options_.exit_grace_epochs;
}

void SpirePipeline::SetExplainSink(obs::ExplainLog* log) {
  explain_ = log;
  suppression_recorder_.log = log;
  compressor_->SetObserver(log == nullptr ? nullptr : &suppression_recorder_);
}

void SpirePipeline::RecordProvenance(const EventStream& out, std::size_t first,
                                     Epoch epoch, const char* default_stage) {
  if (explain_ == nullptr) return;
  for (std::size_t i = first; i < out.size(); ++i) {
    const Event& event = out[i];
    obs::EventProvenance record;
    record.id = i;
    record.type = ToString(event.type);
    record.object = event.object;
    record.location = event.location;
    record.container = event.container;
    record.start = event.start;
    record.end = event.end;
    record.epoch = epoch;
    record.complete_inference = last_result_.complete;
    record.inference_waves = static_cast<int>(last_result_.waves);
    const char* stage = default_stage;
    const ObjectEstimate* estimate =
        last_result_.Find(graph_.FindNodeId(event.object), event.object);
    if (estimate == nullptr) {
      for (const ObjectEstimate& exited : exited_estimates_) {
        if (exited.object != event.object) continue;
        estimate = &exited;
        stage = "exit";
        break;
      }
    }
    if (estimate != nullptr) {
      if (IsContainmentEvent(event.type)) {
        record.winner_posterior = estimate->container_prob;
        record.runner_up_posterior = estimate->container_runner_up;
      } else {
        record.winner_posterior = estimate->location_prob;
        record.runner_up_posterior = estimate->location_runner_up;
      }
    }
    record.stage = stage;
    explain_->RecordEvent(std::move(record));
  }
}

void SpirePipeline::MirrorToArchive(const EventStream& out,
                                    std::size_t first) {
  obs::ScopedSpan span("pipeline", "archive_append");
  if (archive_ == nullptr || !archive_status_.ok()) return;
  for (std::size_t i = first; i < out.size(); ++i) {
    Status status = archive_->Append(out[i]);
    if (!status.ok()) {
      archive_status_ = status;
      return;
    }
  }
}

void SpirePipeline::RetireObject(ObjectId id, Epoch epoch, EventStream* out) {
  // Report the final sighting first so the output stream (like the
  // physical truth) shows the stay at the exit before it closes. The exit
  // ends any containment, which also resumes the object's own location
  // output under level-2 compression — otherwise the final stay of a
  // contained object would be unrecoverable once its container retires.
  const ObjectEstimate* estimate =
      last_result_.Retire(graph_.FindNodeId(id), id);
  if (estimate != nullptr && !estimate->withheld &&
      !IsWarmupLocation(estimate->location)) {
    ObjectStateEstimate state;
    state.object = id;
    state.location = estimate->location;
    state.container = kNoObject;
    // An exit sighting is a definite read, never a disappearance; leaving
    // the flag implicit would let a stale estimate smuggle a Missing
    // singleton into the stream right before the Retire closes it.
    state.missing = false;
    compressor_->Report(state, epoch, out);
  }
  if (estimate != nullptr) exited_estimates_.push_back(*estimate);
  compressor_->Retire(id, epoch, out);
  graph_.RemoveNode(id);
  retired_[id] = epoch;
}

void SpirePipeline::StageDeparture(const std::vector<ObjectId>& ids,
                                   std::vector<ObjectHandoff>* sink) {
  pending_departures_.push_back(DepartureGroup{ids, sink});
}

void SpirePipeline::ProcessDepartures(Epoch epoch, EventStream* out) {
  for (DepartureGroup& group : pending_departures_) {
    // Capture the whole group before retiring any member: removing one
    // node destroys the intra-group edges the others still need to read.
    const std::unordered_set<ObjectId> members(group.ids.begin(),
                                               group.ids.end());
    for (ObjectId id : group.ids) {
      const Node* node = graph_.FindNode(id);
      // Never sighted here (or already organically exited this epoch):
      // nothing to ship, and nothing to retire below either.
      if (node == nullptr) continue;
      ObjectHandoff handoff;
      handoff.object = id;
      handoff.seen_at = node->seen_at;
      handoff.confirmed = node->confirmed;
      for (EdgeId edge_id : node->parent_edges) {
        const Edge& edge = graph_.edge(edge_id);
        if (!edge.alive || members.count(edge.parent) == 0) continue;
        HandoffEdge shipped;
        shipped.parent = edge.parent;
        shipped.colocation_window = edge.recent_colocations.Window();
        shipped.colocation_count = edge.recent_colocations.size();
        shipped.update_time = edge.update_time;
        shipped.created_at = edge.created_at;
        handoff.parent_edges.push_back(shipped);
      }
      // Adjacency-list order depends on update history; sort for a
      // canonical wire form.
      std::sort(handoff.parent_edges.begin(), handoff.parent_edges.end(),
                [](const HandoffEdge& a, const HandoffEdge& b) {
                  return a.parent < b.parent;
                });
      handoff.has_estimate = inference_.CaptureHandoff(
          node->self, &handoff.estimate, &handoff.fade_deadline);
      if (handoff.has_estimate) {
        // Location ids are site-local; the destination recomputes them on
        // its first complete pass after the splice.
        handoff.estimate.location = kUnknownLocation;
        handoff.estimate.location_prob = 0.0;
        handoff.estimate.location_runner_up = 0.0;
      }
      group.sink->push_back(std::move(handoff));
    }
    // Retire in the staged leaf-up order: contents go before their
    // containers, so Retire never releases a still-live child (which would
    // splice resume events into the stream).
    for (ObjectId id : group.ids) {
      if (graph_.FindNode(id) == nullptr) continue;
      RetireObject(id, epoch, out);
    }
  }
  pending_departures_.clear();
}

void SpirePipeline::ImplantHandoff(const ObjectHandoff& handoff) {
  // A round trip may return within the exit grace window; the arrival must
  // not be swallowed by the retirement filter.
  retired_.erase(handoff.object);
  Node& node = graph_.GetOrCreateNode(handoff.object);
  node.seen_at = handoff.seen_at;
  node.confirmed = handoff.confirmed;
  for (const HandoffEdge& shipped : handoff.parent_edges) {
    // AddEdge creates the parent's node if its own handoff has not been
    // implanted yet (hops are captured leaf-up, so children come first);
    // the parent's implant then fills in its node state.
    const EdgeId edge_id = graph_.AddEdge(shipped.parent, handoff.object);
    Edge& edge = graph_.edge(edge_id);
    edge.recent_colocations.Restore(shipped.colocation_window,
                                    shipped.colocation_count);
    edge.update_time = shipped.update_time;
    edge.created_at = shipped.created_at;
  }
  // Always recompute the implanted component on the next complete pass:
  // the shipped estimate must never be replayed into the output.
  graph_.MarkDirty(node);
  if (handoff.has_estimate) {
    inference_.ImplantHandoff(node.self, handoff.estimate,
                              handoff.fade_deadline);
  }
}

void SpirePipeline::ProcessEpoch(Epoch epoch, EpochReadings readings,
                                 EventStream* out) {
  ++epochs_processed_;
  exited_estimates_.clear();
  obs::ScopedSpan epoch_span("pipeline", "epoch", epoch);
  const std::size_t first_output = out->size();

  // Device-level cleaning: deduplicate multi-reader/multi-tick readings and
  // drop readings of objects inside their exit grace window.
  const EpochBatch& batch = [&]() -> const EpochBatch& {
    obs::ScopedSpan span("pipeline", "smooth", epoch);
    deduplicator_.Run(&readings);
    if (!retired_.empty()) {
      std::erase_if(readings, [&](const RfidReading& r) {
        return IsRetired(r.tag, epoch);
      });
    }
    return grouper_.Group(readings, epoch);
  }();

  // Data capture: stream-driven graph update.
  auto t0 = std::chrono::steady_clock::now();
  {
    obs::ScopedSpan span("pipeline", "graph_update", epoch);
    updater_.ApplyEpoch(batch);
  }
  last_costs_.update_seconds = SecondsSince(t0);

  // Interpretation: complete inference when every reader group read this
  // epoch, partial inference otherwise; then conflict resolution.
  auto t1 = std::chrono::steady_clock::now();
  const bool complete =
      options_.inference_mode == InferenceMode::kAlwaysComplete ||
      schedule_.IsCompleteEpoch(epoch);
  {
    obs::ScopedSpan span("pipeline", "inference", epoch);
    if (complete) {
      inference_.RunComplete(epoch, &last_result_);
    } else if (options_.inference_mode == InferenceMode::kCompleteOnly) {
      last_result_.Reset(epoch, false);
    } else {
      inference_.RunPartial(epoch, &last_result_);
    }
  }
  if (options_.resolve_conflicts) {
    obs::ScopedSpan span("pipeline", "conflict", epoch);
    resolver_.Resolve(&last_result_);
  }
  last_costs_.inference_seconds = SecondsSince(t1);
  total_costs_.update_seconds += last_costs_.update_seconds;
  total_costs_.inference_seconds += last_costs_.inference_seconds;

  {
    obs::ScopedSpan span("pipeline", "compress", epoch);
    // Proper exits: close the objects' events and drop their nodes.
    for (ObjectId id : updater_.exited_this_epoch()) {
      RetireObject(id, epoch, out);
    }

    // Cross-site departures behave like exits, but capture the objects'
    // inference state first (spire/handoff.h).
    if (!pending_departures_.empty()) ProcessDepartures(epoch, out);

    // Output: report every non-withheld estimate; the compressor discards
    // everything that does not change the reported state. Report order matters
    // for stream equivalence across compression levels:
    //  * an object whose open containment terminates this epoch goes first, so
    //    its own location resumes before the former container's updates would
    //    (wrongly) propagate to it;
    //  * then higher packaging layers before their contents, so a container's
    //    location is on the stream before a child's containment opens — that
    //    is what lets level 2 suppress the child's location from the start.
    // The sort keys (containment-ends flag, layer) are precomputed once per
    // id — OpenContainerOf is a compressor-state lookup, far too heavy to
    // re-evaluate inside a comparator.
    // Retired objects' entries are tombstones: their final report went out
    // with the retirement above.
    const std::vector<InferenceResult::Entry>& entries =
        last_result_.entries();
    report_.clear();
    TrimScratch(&report_, entries.size());
    for (std::uint32_t i = 0; i < entries.size(); ++i) {
      const ObjectEstimate& estimate = entries[i].estimate;
      if (entries[i].retired || estimate.withheld) continue;
      // No inference output for objects in the warm-up (entry door) area.
      if (IsWarmupLocation(estimate.location)) continue;
      const ObjectId open = compressor_->OpenContainerOf(estimate.object);
      report_.push_back(ReportEntry{
          estimate.object, i, open != kNoObject && estimate.container != open,
          static_cast<std::uint8_t>(EpcLayer(estimate.object))});
    }
    std::sort(report_.begin(), report_.end(),
              [](const ReportEntry& a, const ReportEntry& b) {
                if (a.ends_containment != b.ends_containment) {
                  return a.ends_containment;
                }
                if (a.layer != b.layer) return a.layer > b.layer;
                return a.id < b.id;
              });
    for (const ReportEntry& entry : report_) {
      const ObjectEstimate& estimate = entries[entry.index].estimate;
      ObjectStateEstimate state;
      state.object = entry.id;
      state.location = estimate.location;
      // Inference ran before the exit handling above, so an estimate may still
      // name a container that retired this epoch (or within its grace window).
      // A departed object cannot contain anything; dropping the stale edge
      // also keeps the compressor from re-opening a containment under a
      // container whose own events just closed.
      state.container =
          IsRetired(estimate.container, epoch) ? kNoObject : estimate.container;
      compressor_->Report(state, epoch, out);
    }

    // Expire old entries of the retirement set to bound its size.
    if (epochs_processed_ % 1024 == 0) {
      std::erase_if(retired_, [&](const auto& entry) {
        return epoch - entry.second > options_.exit_grace_epochs;
      });
    }

    // Per-epoch duplicate suppression: propagation may have closed a stay
    // that a later report of the same epoch re-opened in place.
    compressor_->CancelEpochChurn(epoch, out, first_output);
  }

  // Provenance is attributed after churn cancellation so the recorded ids
  // are the indexes of the events that actually survived into the stream.
  RecordProvenance(*out, first_output, epoch, "report");

  MirrorToArchive(*out, first_output);
}

void SpirePipeline::Finish(Epoch epoch, EventStream* out) {
  const std::size_t first_output = out->size();
  compressor_->Finish(epoch, out);
  RecordProvenance(*out, first_output, epoch, "finish");
  MirrorToArchive(*out, first_output);
}

}  // namespace spire
