// The oracle battery of the differential checking harness.
//
// Every FuzzCase is expanded into a trace and judged by ten oracles:
//
//   (a) well_formed        both pipeline outputs pass ValidateWellFormed.
//   (b) level2_recovery    Decompress(level-2 output) is event-for-event
//                          equivalent to the same trace run at level 1
//                          (equality of per-epoch canonicalized streams —
//                          SPIRE's central losslessness claim, Section V).
//   (c) archive_roundtrip  writing the output through src/store and scanning
//                          it back reproduces the in-memory stream exactly.
//   (d) serde_roundtrip    SPEV encode/decode reproduces the stream exactly.
//   (e) determinism        regenerating and re-running the same case yields
//                          bit-identical output streams.
//   (f) incremental_equivalence
//                          the delta-driven inference scheduler
//                          (InferenceParams::incremental, DESIGN.md §10) is
//                          an optimization, not a semantics change: the same
//                          trace run with incremental off is bit-identical
//                          to the default run at both compression levels,
//                          and likewise under InferenceMode::kAlwaysComplete
//                          (a complete pass every epoch — the scheduler's
//                          hottest path).
//   (g) explain_consistency re-running level 2 with the explain channel
//                          attached changes nothing, yields exactly one
//                          provenance record per emitted event (matching
//                          fields, sane stage/posteriors), and every
//                          level-2 suppression names a covering containment
//                          that is actually open at that epoch.
//   (h) pattern_equivalence for every built-in CEP pattern (src/cep), the
//                          interval evaluator run directly on the level-2
//                          stream detects exactly the same (binding,
//                          completion) match set as the naive per-epoch
//                          evaluator over the decompressed level-1 view.
//   (i) distributed_equivalence
//                          on transfer cases (sim.transfer_sites >= 2), the
//                          distributed runtime (src/dist) over loopback
//                          connections at 1 and 2 nodes emits a stream
//                          bit-identical to the serial per-site reference,
//                          and that stream is well-formed with lossless
//                          level-2 recovery.
//   (j) query_equivalence  archiving the output and probing it at random
//                          and edge (object, epoch) points, the
//                          segment-direct SegmentLog (src/query) answers
//                          every query kind — LocationAt / ContainerAt /
//                          ContentsAt / ObjectsAt / TrajectoryOf /
//                          IsMissingAt — identically to the fully
//                          materialized EventLog, both through a tiny
//                          cache (whole-list stay entries) and uncached
//                          (the epoch-cut fold), and the cache counters
//                          reconcile (hits + misses == lookups,
//                          decodes <= misses).
//
// The default level-2 run also asserts the handover invariant after every
// epoch: Compressor::PendingHandovers() is empty (failure name
// `handover_invariant`).
//
// A failure names the oracle and carries a human-readable diff/detail, so a
// minimized repro file is actionable on its own.
#pragma once

#include <optional>
#include <string>

#include "check/trace_gen.h"
#include "compress/event.h"
#include "spire/pipeline.h"

namespace spire {

/// One oracle violation.
struct OracleFailure {
  std::string oracle;  ///< Stable oracle name (see header comment).
  std::string detail;  ///< First divergence / validator message.
};

/// Sorts a stream into its canonical per-epoch order: events are grouped by
/// their emission epoch (V_e for End*, V_s otherwise — emission order is
/// already epoch-monotone) and ordered within the epoch by a fixed total
/// key. Two streams are state-equivalent per epoch iff their canonical
/// forms are equal, regardless of intra-epoch interleaving.
EventStream Canonicalized(const EventStream& stream);

/// Human-readable first divergence between two streams ("" when equal).
/// `a_name` / `b_name` label the sides in the report.
std::string DiffStreams(const EventStream& a, const EventStream& b,
                        const std::string& a_name, const std::string& b_name);

/// Feeds the whole trace through a fresh pipeline at `level` and Finish()es
/// it one epoch past the end.
EventStream RunPipelineOnTrace(const RecordedTrace& trace,
                               CompressionLevel level);

/// Same, with full control over the pipeline configuration. When
/// `handover_violation` is non-null, the compressor's handover invariant is
/// checked after every epoch and the first violation (epoch and pending
/// objects) is described there; it stays empty when the invariant held.
EventStream RunPipelineOnTrace(const RecordedTrace& trace,
                               const PipelineOptions& options,
                               std::string* handover_violation = nullptr);

/// Checker configuration.
struct CheckOptions {
  /// Directory for archive round-trip scratch files; "" uses the system
  /// temporary directory. Created on demand.
  std::string scratch_dir;
};

/// Cost accounting for one Check() call.
struct CheckStats {
  /// Pipeline executions performed (2 levels + 4 incremental-equivalence
  /// re-runs + 2 determinism re-runs + 1 explain-consistency re-run; on
  /// transfer cases + 2 distributed references + 2 distributed runs).
  std::size_t traces_run = 0;
};

/// Runs the full oracle battery over fuzz cases. Single-threaded.
class DifferentialChecker {
 public:
  explicit DifferentialChecker(CheckOptions options = {});

  /// Expands the case and applies all ten oracles; std::nullopt means all
  /// green. `stats`, when non-null, accumulates pipeline-run counts.
  std::optional<OracleFailure> Check(const FuzzCase& fuzz_case,
                                     CheckStats* stats = nullptr) const;

  // Individual oracles (exposed for targeted tests). Each returns
  // std::nullopt when satisfied.
  static std::optional<OracleFailure> CheckWellFormed(const EventStream& level1,
                                                      const EventStream& level2);
  /// Re-runs the trace at level 2 with an ExplainLog attached and checks
  /// the log against `level2` (the same trace's output without the
  /// channel). `level2` must already be well-formed.
  static std::optional<OracleFailure> CheckExplainConsistency(
      const RecordedTrace& trace, const EventStream& level2);
  static std::optional<OracleFailure> CheckLevel2Recovery(
      const EventStream& level1, const EventStream& level2);
  /// Evaluates every library pattern both ways — interval NFA on the
  /// compressed `level2`, naive per-epoch NFA on the decompressed `level1`
  /// — and requires identical match sets. `registry` resolves the
  /// patterns' location names for this trace.
  static std::optional<OracleFailure> CheckPatternEquivalence(
      const ReaderRegistry& registry, const EventStream& level1,
      const EventStream& level2);
  /// Re-runs the trace with delta-driven inference disabled (and under
  /// InferenceMode::kAlwaysComplete both ways) and requires bit-identical
  /// output. `level1` / `level2` are the default (incremental) runs.
  static std::optional<OracleFailure> CheckIncrementalEquivalence(
      const RecordedTrace& trace, const EventStream& level1,
      const EventStream& level2, CheckStats* stats = nullptr);
  static std::optional<OracleFailure> CheckSerdeRoundTrip(
      const EventStream& stream, const std::string& label);
  /// Transfer cases only (no-op otherwise): re-expands the case's
  /// multi-site view and requires the distributed runtime (src/dist) to
  /// reproduce the serial per-site reference bit-for-bit over loopback
  /// connections at 1 and 2 nodes, with a well-formed, level-2-recoverable
  /// merged stream.
  static std::optional<OracleFailure> CheckDistributedEquivalence(
      const FuzzCase& fuzz_case, CheckStats* stats = nullptr);
  std::optional<OracleFailure> CheckArchiveRoundTrip(
      const EventStream& stream, const std::string& label) const;
  /// Archives `stream` to scratch and probes it at random and edge
  /// (object, epoch) points: segment-direct answers (query/segment_log,
  /// through a deliberately tiny cache and again uncached) must equal the
  /// materialized EventLog's for every query kind, and the cache counters
  /// must reconcile with the decode count.
  std::optional<OracleFailure> CheckQueryEquivalence(
      const EventStream& stream, const std::string& label) const;

 private:
  std::string ScratchPath(const std::string& label) const;

  CheckOptions options_;
};

}  // namespace spire
