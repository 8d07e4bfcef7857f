// The end-to-end SPIRE substrate (Fig. 2): device-level deduplication,
// stream-driven graph capture, scheduled probabilistic interpretation,
// conflict resolution, and online compression into an output event stream.
#pragma once

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "compress/compressor.h"
#include "compress/event.h"
#include "graph/graph.h"
#include "graph/update.h"
#include "inference/conflict.h"
#include "inference/iterative.h"
#include "inference/params.h"
#include "inference/schedule.h"
#include "obs/explain.h"
#include "spire/handoff.h"
#include "stream/dedup.h"
#include "stream/epoch_stream.h"
#include "stream/reader.h"

namespace spire {

class ArchiveWriter;

/// Output compression level (Section V).
enum class CompressionLevel {
  kLevel1 = 1,  ///< Range compression.
  kLevel2 = 2,  ///< Containment-based location suppression.
};

/// When inference runs (Section IV-D; non-default modes are ablations).
enum class InferenceMode {
  /// Complete inference at multiples of the reader-period LCM, partial
  /// inference otherwise (the paper's schedule).
  kScheduled,
  /// Complete inference every epoch (upper bound on freshness and cost).
  kAlwaysComplete,
  /// Complete inference on schedule, nothing in between.
  kCompleteOnly,
};

/// Pipeline configuration.
struct PipelineOptions {
  InferenceParams inference;
  InferenceMode inference_mode = InferenceMode::kScheduled;
  /// Conflict resolution (Table I) can be ablated.
  bool resolve_conflicts = true;
  /// S: capacity of each edge's co-location history register.
  int history_size = 32;
  CompressionLevel level = CompressionLevel::kLevel2;
  CompressorOptions compressor;
  /// Readings of an object retired at an exit door are ignored for this many
  /// epochs, so the remaining interrogations during its exit dwell do not
  /// resurrect its node.
  Epoch exit_grace_epochs = 30;
  /// Entry-door readings warm up the graph model, but no inference results
  /// are output for objects located there (Section VI-A).
  bool suppress_warmup_output = true;
};

/// Wall-clock cost of the last processed epoch (Expt 5 instrumentation).
struct EpochCosts {
  double update_seconds = 0.0;
  double inference_seconds = 0.0;
  double total_seconds() const { return update_seconds + inference_seconds; }
};

/// One SPIRE instance per reader deployment.
class SpirePipeline {
 public:
  SpirePipeline(const ReaderRegistry* registry, PipelineOptions options);

  /// Processes one epoch of raw readings end to end; appends output events.
  /// Epochs must be fed in strictly increasing order.
  void ProcessEpoch(Epoch epoch, EpochReadings readings, EventStream* out);

  /// Closes all open output events (end of stream).
  void Finish(Epoch epoch, EventStream* out);

  /// Cross-site handoff, departure side (src/dist): marks `ids` to depart
  /// during the NEXT ProcessEpoch. After that epoch's inference, each is
  /// reported and retired exactly like an exit-door sighting, and its
  /// captured state (spire/handoff.h) is appended to `sink` in the staged
  /// order; objects without a graph node are skipped. `ids` must be
  /// leaf-up (contents before their containers) so retiring in order never
  /// leaves a container with live children. Several groups may be staged
  /// before one ProcessEpoch; they are processed in call order. `sink`
  /// must outlive that ProcessEpoch call.
  void StageDeparture(const std::vector<ObjectId>& ids,
                      std::vector<ObjectHandoff>* sink);

  /// Cross-site handoff, arrival side: splices a captured object in ahead
  /// of this pipeline's next ProcessEpoch. Recreates the node (seen_at,
  /// confirmed parent), restores the shipped intra-group containment
  /// edges, clears any exit-grace retirement (a round trip may return
  /// within the grace window), forwards the cached estimate + fade
  /// deadline to the inference layer, and marks the node dirty so the next
  /// complete pass recomputes its component — a stale shipped estimate can
  /// never reach the output stream. Implant a hop's handoffs in their
  /// captured order.
  void ImplantHandoff(const ObjectHandoff& handoff);

  /// Mirrors every event emitted from now on into `archive` (not owned;
  /// must outlive the pipeline; pass nullptr to detach). The caller still
  /// Close()s the archive. Append failures latch into archive_status() and
  /// stop further mirroring; the in-memory output is unaffected.
  void SetArchiveSink(ArchiveWriter* archive) { archive_ = archive; }

  /// First archive-sink failure, or OK.
  const Status& archive_status() const { return archive_status_; }

  /// Attaches the explain channel (not owned; must outlive the pipeline;
  /// nullptr to detach). While attached, every event appended to `out` gets
  /// a provenance record in the log and every level-2 location suppression
  /// a suppression record. The attribution indexes events by their position
  /// in the stream `out` passed to ProcessEpoch/Finish, so one log must only
  /// ever see one output stream.
  void SetExplainSink(obs::ExplainLog* log);

  /// The interpretation results of the last epoch, after conflict
  /// resolution (observability / accuracy evaluation).
  const InferenceResult& last_result() const { return last_result_; }

  /// True when the last epoch ran complete inference.
  bool last_epoch_complete() const { return last_result_.complete; }

  const Graph& graph() const { return graph_; }
  Graph& mutable_graph() { return graph_; }
  const Compressor& compressor() const { return *compressor_; }
  const PipelineOptions& options() const { return options_; }

  /// The deployment this pipeline interprets. The dist runtime (src/dist)
  /// hosts one pipeline per site; a pipeline instance itself stays
  /// single-threaded — concurrency is achieved by running disjoint
  /// instances in parallel.
  const ReaderRegistry* registry() const { return registry_; }

  /// Costs of the last epoch and cumulative totals.
  const EpochCosts& last_costs() const { return last_costs_; }
  const EpochCosts& total_costs() const { return total_costs_; }
  std::size_t epochs_processed() const { return epochs_processed_; }

 private:
  /// Forwards level-2 suppression decisions into the attached explain log.
  struct SuppressionRecorder final : CompressorObserver {
    obs::ExplainLog* log = nullptr;
    void OnLocationSuppressed(ObjectId object, Epoch epoch,
                              ObjectId covering_container) override {
      if (log != nullptr) {
        log->RecordSuppressed(object, epoch, covering_container, "contained");
      }
    }
  };

  /// One estimate queued for the report step (its position in
  /// last_result_'s entries), with its sort keys precomputed.
  struct ReportEntry {
    ObjectId id;
    std::uint32_t index;
    bool ends_containment;
    std::uint8_t layer;
  };

  /// Objects staged by one StageDeparture call, capturing into `sink`.
  struct DepartureGroup {
    std::vector<ObjectId> ids;
    std::vector<ObjectHandoff>* sink;
  };

  bool IsRetired(ObjectId id, Epoch epoch) const;
  bool IsWarmupLocation(LocationId location) const;
  /// The shared tail of an exit and a departure: final location report,
  /// compressor retire, node removal, exit-grace entry.
  void RetireObject(ObjectId id, Epoch epoch, EventStream* out);
  /// Captures and retires every staged departure group (call order).
  void ProcessDepartures(Epoch epoch, EventStream* out);
  /// Appends out[first, ...) to the archive sink, latching the first error.
  void MirrorToArchive(const EventStream& out, std::size_t first);
  /// Records provenance for out[first, ...) into the explain log (no-op
  /// when detached). `stage_of` labels events by object id.
  void RecordProvenance(const EventStream& out, std::size_t first, Epoch epoch,
                        const char* default_stage);

  const ReaderRegistry* registry_;
  std::vector<LocationId> warmup_locations_;
  PipelineOptions options_;
  Graph graph_;
  GraphUpdater updater_;
  IterativeInference inference_;
  InferenceSchedule schedule_;
  std::unique_ptr<Compressor> compressor_;
  /// Per-epoch scratch, reused so that steady epochs do not allocate:
  /// smoothing's winner table and reader batch, the conflict resolver's
  /// index lists, and the report step's entries. last_result_ is refilled
  /// by every pass.
  Deduplicator deduplicator_;
  EpochGrouper grouper_;
  ConflictResolver resolver_;
  std::vector<ReportEntry> report_;
  InferenceResult last_result_;
  /// Recently retired objects and their retirement epoch (exit grace).
  std::unordered_map<ObjectId, Epoch> retired_;
  /// Departure groups staged for the next ProcessEpoch.
  std::vector<DepartureGroup> pending_departures_;
  ArchiveWriter* archive_ = nullptr;
  Status archive_status_;
  obs::ExplainLog* explain_ = nullptr;
  SuppressionRecorder suppression_recorder_;
  /// Estimates of objects that exited this epoch, preserved for provenance
  /// after their entries in last_result_ are tombstoned (cleared each
  /// epoch).
  std::vector<ObjectEstimate> exited_estimates_;
  EpochCosts last_costs_;
  EpochCosts total_costs_;
  std::size_t epochs_processed_ = 0;
};

}  // namespace spire
