#include "check/oracles.h"

#include <algorithm>
#include <filesystem>
#include <sstream>
#include <tuple>

#include "cep/compressed_log.h"
#include "cep/library.h"
#include "cep/nfa.h"
#include "common/random.h"
#include "compress/decompress.h"
#include "dist/runner.h"
#include "compress/fold.h"
#include "compress/serde.h"
#include "compress/well_formed.h"
#include "obs/explain.h"
#include "obs/registry.h"
#include "obs/trace.h"
#include "query/event_log.h"
#include "query/segment_log.h"
#include "store/archive_reader.h"
#include "store/archive_writer.h"
#include "store/segment.h"

namespace spire {

namespace {

/// The epoch an event is emitted at: V_e for End* messages, V_s otherwise
/// (the same grouping rule the decompressor uses).
Epoch EmissionEpoch(const Event& event) {
  switch (event.type) {
    case EventType::kEndLocation:
    case EventType::kEndContainment:
      return event.end;
    default:
      return event.start;
  }
}

/// A fixed total order inside one emission epoch. Any total order works:
/// equality of the sorted forms is multiset equality per epoch.
auto CanonicalKey(const Event& event) {
  return std::make_tuple(EmissionEpoch(event), event.object,
                         static_cast<int>(event.type), event.location,
                         event.container, event.start, event.end);
}

std::string Excerpt(const EventStream& stream, std::size_t center) {
  std::ostringstream out;
  const std::size_t from = center >= 2 ? center - 2 : 0;
  const std::size_t to = std::min(stream.size(), center + 3);
  for (std::size_t i = from; i < to; ++i) {
    out << (i == center ? "  > " : "    ") << "[" << i << "] "
        << stream[i].ToString() << "\n";
  }
  return out.str();
}

}  // namespace

EventStream Canonicalized(const EventStream& stream) {
  EventStream out = stream;
  std::stable_sort(out.begin(), out.end(), [](const Event& a, const Event& b) {
    return CanonicalKey(a) < CanonicalKey(b);
  });
  return out;
}

std::string DiffStreams(const EventStream& a, const EventStream& b,
                        const std::string& a_name, const std::string& b_name) {
  const std::size_t common = std::min(a.size(), b.size());
  std::size_t i = 0;
  while (i < common && a[i] == b[i]) ++i;
  if (i == common && a.size() == b.size()) return "";
  std::ostringstream out;
  out << a_name << " (" << a.size() << " events) and " << b_name << " ("
      << b.size() << " events) diverge at index " << i << "\n";
  out << a_name << ":\n" << Excerpt(a, i);
  out << b_name << ":\n" << Excerpt(b, i);
  return out.str();
}

EventStream RunPipelineOnTrace(const RecordedTrace& trace,
                               CompressionLevel level) {
  PipelineOptions options;
  options.level = level;
  return RunPipelineOnTrace(trace, options);
}

EventStream RunPipelineOnTrace(const RecordedTrace& trace,
                               const PipelineOptions& options,
                               std::string* handover_violation) {
  SpirePipeline pipeline(&trace.registry, options);
  EventStream out;
  for (std::size_t epoch = 0; epoch < trace.epochs.size(); ++epoch) {
    pipeline.ProcessEpoch(static_cast<Epoch>(epoch), trace.epochs[epoch],
                          &out);
    if (handover_violation == nullptr || !handover_violation->empty()) {
      continue;
    }
    const std::vector<ObjectId> pending =
        pipeline.compressor().PendingHandovers();
    if (!pending.empty()) {
      std::ostringstream detail;
      detail << "after epoch " << epoch << ", " << pending.size()
             << " explicit stay(s) still match their chain root, first: "
             << pending.front();
      *handover_violation = detail.str();
    }
  }
  pipeline.Finish(static_cast<Epoch>(trace.epochs.size()), &out);
  return out;
}

DifferentialChecker::DifferentialChecker(CheckOptions options)
    : options_(std::move(options)) {}

std::string DifferentialChecker::ScratchPath(const std::string& label) const {
  namespace fs = std::filesystem;
  fs::path dir = options_.scratch_dir.empty()
                     ? fs::temp_directory_path() / "spire_check"
                     : fs::path(options_.scratch_dir);
  std::error_code ec;
  fs::create_directories(dir, ec);
  return (dir / (label + ".sparc")).string();
}

std::optional<OracleFailure> DifferentialChecker::CheckWellFormed(
    const EventStream& level1, const EventStream& level2) {
  if (Status status = ValidateWellFormed(level1); !status.ok()) {
    return OracleFailure{"well_formed", "level-1 output: " + status.ToString()};
  }
  if (Status status = ValidateWellFormed(level2); !status.ok()) {
    return OracleFailure{"well_formed", "level-2 output: " + status.ToString()};
  }
  return std::nullopt;
}

std::optional<OracleFailure> DifferentialChecker::CheckLevel2Recovery(
    const EventStream& level1, const EventStream& level2) {
  EventStream decompressed = Decompressor::DecompressAll(level2);
  if (Status status = ValidateWellFormed(decompressed); !status.ok()) {
    return OracleFailure{"level2_recovery",
                         "decompressed level-2 stream ill-formed: " +
                             status.ToString()};
  }
  std::string diff = DiffStreams(Canonicalized(level1),
                                 Canonicalized(decompressed), "level1",
                                 "decompress(level2)");
  if (!diff.empty()) return OracleFailure{"level2_recovery", diff};
  return std::nullopt;
}

std::optional<OracleFailure> DifferentialChecker::CheckIncrementalEquivalence(
    const RecordedTrace& trace, const EventStream& level1,
    const EventStream& level2, CheckStats* stats) {
  // Leg 1: the scheduled-inference runs (what `level1` / `level2` are), with
  // delta-driven scheduling off. Raw DiffStreams — not canonicalized — since
  // the claim is bit-identity, not mere state equivalence.
  PipelineOptions options;
  options.inference.incremental = false;
  for (CompressionLevel level :
       {CompressionLevel::kLevel1, CompressionLevel::kLevel2}) {
    options.level = level;
    EventStream full = RunPipelineOnTrace(trace, options);
    if (stats != nullptr) stats->traces_run += 1;
    const EventStream& incremental =
        level == CompressionLevel::kLevel1 ? level1 : level2;
    std::string diff = DiffStreams(incremental, full, "incremental", "full");
    if (!diff.empty()) {
      return OracleFailure{"incremental_equivalence",
                           (level == CompressionLevel::kLevel1 ? "level1: "
                                                               : "level2: ") +
                               diff};
    }
  }
  // Leg 2: a complete pass every epoch — every epoch exercises the seed /
  // reach / cache-replay machinery, including resync boundaries.
  options.level = CompressionLevel::kLevel2;
  options.inference_mode = InferenceMode::kAlwaysComplete;
  options.inference.incremental = true;
  options.inference.full_resync_passes = 7;  // Hit resync boundaries often.
  EventStream always_incremental = RunPipelineOnTrace(trace, options);
  options.inference.incremental = false;
  EventStream always_full = RunPipelineOnTrace(trace, options);
  if (stats != nullptr) stats->traces_run += 2;
  std::string diff = DiffStreams(always_incremental, always_full,
                                 "incremental", "full");
  if (!diff.empty()) {
    return OracleFailure{"incremental_equivalence",
                         "always-complete level2: " + diff};
  }
  return std::nullopt;
}

std::optional<OracleFailure> DifferentialChecker::CheckSerdeRoundTrip(
    const EventStream& stream, const std::string& label) {
  std::vector<std::uint8_t> bytes;
  if (Status status = EventEncoder::EncodeStream(stream, &bytes);
      !status.ok()) {
    return OracleFailure{"serde_roundtrip",
                         label + ": encode failed: " + status.ToString()};
  }
  EventDecoder decoder;
  auto decoded = decoder.DecodeStream(bytes);
  if (!decoded.ok()) {
    return OracleFailure{"serde_roundtrip", label + ": decode failed: " +
                                                decoded.status().ToString()};
  }
  std::string diff =
      DiffStreams(stream, decoded.value(), label, label + " after round-trip");
  if (!diff.empty()) return OracleFailure{"serde_roundtrip", diff};
  return std::nullopt;
}

std::optional<OracleFailure> DifferentialChecker::CheckArchiveRoundTrip(
    const EventStream& stream, const std::string& label) const {
  namespace fs = std::filesystem;
  const std::string path = ScratchPath(label);
  std::error_code ec;

  auto cleanup = [&] {
    fs::remove(path, ec);
    fs::remove(IndexPathFor(path), ec);
  };
  auto fail = [&](const std::string& detail) {
    cleanup();
    return OracleFailure{"archive_roundtrip", label + ": " + detail};
  };

  // Writes `stream` with `options`, re-reads it, and diffs. Returns the
  // archived stream through `out` for chained (compaction) stages.
  auto round_trip = [&](ArchiveOptions options, const std::string& stage,
                        EventStream* out) -> std::optional<std::string> {
    cleanup();
    auto writer = ArchiveWriter::Open(path, options);
    if (!writer.ok()) {
      return stage + ": open failed: " + writer.status().ToString();
    }
    if (Status status = (*writer.value()).Append(stream); !status.ok()) {
      return stage + ": append failed: " + status.ToString();
    }
    if (Status status = (*writer.value()).Close(); !status.ok()) {
      return stage + ": close failed: " + status.ToString();
    }
    auto reader = ArchiveReader::Open(path);
    if (!reader.ok()) {
      return stage + ": reader open failed: " + reader.status().ToString();
    }
    auto scanned = reader.value().ScanAll();
    if (!scanned.ok()) {
      return stage + ": scan failed: " + scanned.status().ToString();
    }
    std::string diff = DiffStreams(stream, scanned.value(), label,
                                   label + " after " + stage);
    if (!diff.empty()) return diff;
    // The epoch-column fast path must agree with the full decode.
    auto epochs = reader.value().ScanEpochColumn();
    if (!epochs.ok()) {
      return stage + ": epoch column failed: " + epochs.status().ToString();
    }
    if (epochs.value().size() != scanned.value().size()) {
      return stage + ": epoch column count mismatch";
    }
    for (std::size_t i = 0; i < epochs.value().size(); ++i) {
      if (epochs.value()[i] != PrimaryEpoch(scanned.value()[i])) {
        return stage + ": epoch column diverges at event " +
               std::to_string(i);
      }
    }
    if (out != nullptr) *out = std::move(scanned).value();
    return std::nullopt;
  };

  // Small blocks force multi-block segments even on shrunk traces, so the
  // codec's block-boundary paths are always exercised — through every
  // codec id the format knows.
  ArchiveOptions archive_options;
  archive_options.block_events = 256;
  for (BlockCodec codec : {BlockCodec::kVarint, BlockCodec::kBitpack}) {
    archive_options.codec = codec;
    if (auto diff = round_trip(archive_options,
                               std::string("archive round-trip (") +
                                   ToString(codec) + ")",
                               nullptr)) {
      return fail(*diff);
    }
  }

  // The v1-written / v2-compacted path: archive as format v1 (varint-only),
  // then re-archive what it decodes to as v2 bitpack — the `spire_cli
  // compact` transcode shape. Reconstruction must stay byte-identical
  // (DiffStreams compares full Event values) across the version hop.
  ArchiveOptions v1_options;
  v1_options.block_events = 256;
  v1_options.format_version = kArchiveVersionV1;
  EventStream recovered;
  if (auto diff = round_trip(v1_options, "v1 archive round-trip",
                             &recovered)) {
    return fail(*diff);
  }
  cleanup();
  ArchiveOptions v2_options;
  v2_options.block_events = 256;
  v2_options.codec = BlockCodec::kBitpack;
  auto writer = ArchiveWriter::Open(path, v2_options);
  if (!writer.ok()) {
    return fail("compact open failed: " + writer.status().ToString());
  }
  if (Status status = (*writer.value()).Append(recovered); !status.ok()) {
    return fail("compact append failed: " + status.ToString());
  }
  if (Status status = (*writer.value()).Close(); !status.ok()) {
    return fail("compact close failed: " + status.ToString());
  }
  auto reader = ArchiveReader::Open(path);
  if (!reader.ok()) {
    return fail("compact reader open failed: " + reader.status().ToString());
  }
  auto compacted = reader.value().ScanAll();
  if (!compacted.ok()) {
    return fail("compact scan failed: " + compacted.status().ToString());
  }
  std::string diff = DiffStreams(stream, compacted.value(), label,
                                 label + " after v1->v2 compaction");
  cleanup();
  if (!diff.empty()) return OracleFailure{"archive_roundtrip", diff};
  return std::nullopt;
}

namespace {

std::string StaysToString(const std::vector<Stay>& stays) {
  std::ostringstream out;
  out << "[";
  for (std::size_t i = 0; i < stays.size(); ++i) {
    if (i > 0) out << ",";
    out << stays[i].start << ":" << stays[i].end << "@" << stays[i].location;
  }
  out << "]";
  return out.str();
}

std::string IdsToString(const std::vector<ObjectId>& ids) {
  std::ostringstream out;
  out << "[";
  for (std::size_t i = 0; i < ids.size(); ++i) {
    if (i > 0) out << ",";
    out << ids[i];
  }
  out << "]";
  return out.str();
}

}  // namespace

std::optional<OracleFailure> DifferentialChecker::CheckQueryEquivalence(
    const EventStream& stream, const std::string& label) const {
  namespace fs = std::filesystem;
  const std::string path = ScratchPath(label + "_query");
  std::error_code ec;
  auto cleanup = [&] {
    fs::remove(path, ec);
    fs::remove(IndexPathFor(path), ec);
  };
  auto fail = [&](const std::string& detail) {
    cleanup();
    return OracleFailure{"query_equivalence", label + ": " + detail};
  };

  // Small blocks keep the candidate-prefix logic multi-block even on
  // shrunk traces; the tiny cache forces evictions mid-probe.
  cleanup();
  ArchiveOptions archive_options;
  archive_options.block_events = 256;
  archive_options.codec = BlockCodec::kBitpack;
  auto writer = ArchiveWriter::Open(path, archive_options);
  if (!writer.ok()) {
    return fail("archive open failed: " + writer.status().ToString());
  }
  if (Status status = (*writer.value()).Append(stream); !status.ok()) {
    return fail("archive append failed: " + status.ToString());
  }
  if (Status status = (*writer.value()).Close(); !status.ok()) {
    return fail("archive close failed: " + status.ToString());
  }

  // Two legs answer every probe: through the tiny cache, whose entries
  // fold each key's whole posting list, and uncached, where each point
  // query folds only the posting blocks up to its epoch cut.
  auto cache = std::make_shared<BlockCache>(32 * 1024);
  auto cached_log = SegmentLog::Open(path, ReaderOptions{}, cache);
  if (!cached_log.ok()) {
    return fail("segment log open failed: " + cached_log.status().ToString());
  }
  auto uncached_log = SegmentLog::Open(path);
  if (!uncached_log.ok()) {
    return fail("uncached segment log open failed: " +
                uncached_log.status().ToString());
  }
  const SegmentLog& cached = *cached_log.value();
  auto materialized =
      EventLog::FromArchive(cached.reader(), 0, kInfiniteEpoch, false);
  if (!materialized.ok()) {
    return fail("materialized baseline failed: " +
                materialized.status().ToString());
  }
  const EventLog& log = materialized.value();

  const std::vector<ObjectId> objects = log.Objects();
  std::vector<LocationId> locations;
  for (const auto& [location, blocks] :
       cached.reader().location_postings()) {
    locations.push_back(location);
  }
  if (objects.empty()) {
    cleanup();
    return std::nullopt;  // Nothing archived; nothing to probe.
  }

  // One probe through one leg: every kind at (object, epoch), and
  // ObjectsAt at `location` when the archive has locations.
  auto probe_leg = [&](const SegmentLog& direct, const std::string& leg,
                       ObjectId object, Epoch epoch,
                       std::optional<LocationId> location)
      -> std::optional<OracleFailure> {
    const std::string at = " (" + leg + ") object=" + std::to_string(object) +
                           " epoch=" + std::to_string(epoch);
    auto location_at = direct.LocationAt(object, epoch);
    if (!location_at.ok()) {
      return fail("LocationAt failed: " + location_at.status().ToString());
    }
    if (location_at.value() != log.LocationAt(object, epoch)) {
      return fail("LocationAt diverges" + at);
    }
    auto container_at = direct.ContainerAt(object, epoch);
    if (!container_at.ok()) {
      return fail("ContainerAt failed: " + container_at.status().ToString());
    }
    if (container_at.value() != log.ContainerAt(object, epoch)) {
      return fail("ContainerAt diverges" + at);
    }
    auto missing_at = direct.IsMissingAt(object, epoch);
    if (!missing_at.ok()) {
      return fail("IsMissingAt failed: " + missing_at.status().ToString());
    }
    if (missing_at.value() != log.IsMissingAt(object, epoch)) {
      return fail("IsMissingAt diverges" + at);
    }
    auto trajectory = direct.TrajectoryOf(object);
    if (!trajectory.ok()) {
      return fail("TrajectoryOf failed: " + trajectory.status().ToString());
    }
    if (trajectory.value() != log.TrajectoryOf(object)) {
      return fail("TrajectoryOf diverges" + at + ": direct " +
                  StaysToString(trajectory.value()) + " vs materialized " +
                  StaysToString(log.TrajectoryOf(object)));
    }
    for (bool transitive : {false, true}) {
      auto contents = direct.ContentsAt(object, epoch, transitive);
      if (!contents.ok()) {
        return fail("ContentsAt failed: " + contents.status().ToString());
      }
      if (contents.value() != log.ContentsAt(object, epoch, transitive)) {
        return fail(std::string("ContentsAt") +
                    (transitive ? " (transitive)" : "") + " diverges" + at +
                    ": direct " + IdsToString(contents.value()) +
                    " vs materialized " +
                    IdsToString(log.ContentsAt(object, epoch, transitive)));
      }
    }
    if (location.has_value()) {
      auto objects_at = direct.ObjectsAt(*location, epoch);
      if (!objects_at.ok()) {
        return fail("ObjectsAt failed: " + objects_at.status().ToString());
      }
      if (objects_at.value() != log.ObjectsAt(*location, epoch)) {
        return fail("ObjectsAt diverges (" + leg + ") at location=" +
                    std::to_string(*location) + " epoch=" +
                    std::to_string(epoch) + ": direct " +
                    IdsToString(objects_at.value()) + " vs materialized " +
                    IdsToString(log.ObjectsAt(*location, epoch)));
      }
    }
    return std::nullopt;
  };

  // Deterministic probes at random (object, epoch) points, plus the edge
  // epochs where coverage flips: before the stream, at the first and last
  // epochs, and just past the end.
  Pcg32 rng(0x517e'91ull ^ stream.size());
  std::vector<Epoch> probe_epochs = {-1, 0, log.first_epoch(),
                                     log.last_epoch(),
                                     log.last_epoch() + 1};
  for (int i = 0; i < 24; ++i) {
    probe_epochs.push_back(
        rng.NextInRange(log.first_epoch(), log.last_epoch() + 1));
  }

  for (int probe = 0; probe < 64; ++probe) {
    const ObjectId object = objects[rng.NextBounded(
        static_cast<std::uint32_t>(objects.size()))];
    const Epoch epoch =
        probe_epochs[rng.NextBounded(
            static_cast<std::uint32_t>(probe_epochs.size()))];
    std::optional<LocationId> location;
    if (!locations.empty()) {
      location = locations[rng.NextBounded(
          static_cast<std::uint32_t>(locations.size()))];
    }
    if (auto failure = probe_leg(cached, "cached", object, epoch, location)) {
      return failure;
    }
    if (auto failure = probe_leg(*uncached_log.value(), "uncached", object,
                                 epoch, location)) {
      return failure;
    }
  }

  // The serving invariants must reconcile after the probe storm.
  const BlockCache::Stats stats = cache->GetStats();
  if (stats.hits + stats.misses != stats.lookups) {
    return fail("cache counters do not reconcile: hits + misses != lookups");
  }
  if (cached.blocks_decoded() > stats.misses) {
    return fail("cache counters do not reconcile: decodes > misses");
  }
  cleanup();
  return std::nullopt;
}

std::optional<OracleFailure> DifferentialChecker::CheckExplainConsistency(
    const RecordedTrace& trace, const EventStream& level2) {
  auto fail = [](const std::string& detail) {
    return OracleFailure{"explain_consistency", detail};
  };

  PipelineOptions options;
  options.level = CompressionLevel::kLevel2;
  SpirePipeline pipeline(&trace.registry, options);
  obs::ExplainLog log;
  pipeline.SetExplainSink(&log);
  EventStream out;
  for (std::size_t epoch = 0; epoch < trace.epochs.size(); ++epoch) {
    pipeline.ProcessEpoch(static_cast<Epoch>(epoch), trace.epochs[epoch],
                          &out);
  }
  pipeline.Finish(static_cast<Epoch>(trace.epochs.size()), &out);

  if (std::string diff = DiffStreams(level2, out, "level2 without explain",
                                     "level2 with explain");
      !diff.empty()) {
    return fail("attaching the explain channel changed the output\n" + diff);
  }
  if (log.events().size() != out.size()) {
    return fail(std::to_string(out.size()) + " events but " +
                std::to_string(log.events().size()) + " provenance records");
  }
  for (std::size_t i = 0; i < out.size(); ++i) {
    const obs::EventProvenance& record = log.events()[i];
    const Event& event = out[i];
    const std::string at = "record " + std::to_string(i);
    if (record.id != i) {
      return fail(at + " carries id " + std::to_string(record.id));
    }
    if (record.type != ToString(event.type) ||
        record.object != event.object || record.location != event.location ||
        record.container != event.container || record.start != event.start ||
        record.end != event.end) {
      return fail(at + " does not match its event " + event.ToString());
    }
    if (record.stage != "report" && record.stage != "exit" &&
        record.stage != "finish") {
      return fail(at + " has unknown stage '" + record.stage + "'");
    }
    if (record.winner_posterior < 0.0 ||
        record.winner_posterior > 1.0 + 1e-9 ||
        record.runner_up_posterior < 0.0 ||
        record.runner_up_posterior > record.winner_posterior + 1e-9) {
      return fail(at + " has implausible posteriors " +
                  std::to_string(record.winner_posterior) + " / " +
                  std::to_string(record.runner_up_posterior));
    }
  }

  // Every suppressed level-2 location update must name a containment that
  // the output stream itself shows open at the suppression epoch.
  const std::vector<RangedEvent> folded = FoldEvents(out);
  for (const obs::SuppressionRecord& record : log.suppressions()) {
    if (record.reason != "contained") {
      return fail("suppression with unknown reason '" + record.reason + "'");
    }
    bool covered = false;
    for (const RangedEvent& ranged : folded) {
      if (ranged.type == EventType::kStartContainment &&
          ranged.object == record.object &&
          ranged.container == record.covering_container &&
          ranged.start <= record.epoch && record.epoch <= ranged.end) {
        covered = true;
        break;
      }
    }
    if (!covered) {
      return fail("suppression of object " + std::to_string(record.object) +
                  " at epoch " + std::to_string(record.epoch) +
                  " names container " +
                  std::to_string(record.covering_container) +
                  " with no covering containment in the output");
    }
  }
  return std::nullopt;
}

std::optional<OracleFailure> DifferentialChecker::CheckPatternEquivalence(
    const ReaderRegistry& registry, const EventStream& level1,
    const EventStream& level2) {
  auto fail = [](const std::string& detail) {
    return OracleFailure{"pattern_equivalence", detail};
  };
  auto naive_log = EventLog::Build(level1);
  if (!naive_log.ok()) {
    return fail("level1 EventLog: " + naive_log.status().ToString());
  }
  auto compressed_log = cep::CompressedLog::Build(level2);
  if (!compressed_log.ok()) {
    return fail("level2 CompressedLog: " + compressed_log.status().ToString());
  }
  // Both evaluators must agree under identical bounds; take them from the
  // level-1 view (the decompressed ground truth).
  const cep::EvalBounds bounds = cep::BoundsOf(naive_log.value());
  for (const cep::Pattern& pattern : cep::BuiltinLibrary()) {
    auto compiled = cep::Compile(pattern, &registry);
    if (!compiled.ok()) {
      // Library names that this deployment does not register (possible for
      // shrunken layouts) make the pattern vacuous, not a failure.
      continue;
    }
    const std::vector<cep::Match> naive =
        cep::EvaluateNaive(compiled.value(), naive_log.value(), bounds);
    const std::vector<cep::Match> interval = cep::EvaluateCompressed(
        compiled.value(), &compressed_log.value(), bounds);
    const std::string diff =
        cep::DiffMatchSets(interval, naive, "interval(level2)",
                           "naive(level1)");
    if (!diff.empty()) return fail(pattern.name + ": " + diff);
  }
  return std::nullopt;
}

std::optional<OracleFailure> DifferentialChecker::CheckDistributedEquivalence(
    const FuzzCase& fuzz_case, CheckStats* stats) {
  if (fuzz_case.sim.transfer_sites < 2) return std::nullopt;
  auto fail = [](const std::string& detail) {
    return OracleFailure{"distributed_equivalence", detail};
  };

  auto trace = GenerateTransferTrace(fuzz_case);
  if (!trace.ok()) {
    return fail("transfer expansion failed: " + trace.status().ToString());
  }
  auto workload = dist::ToWorkload(trace.value());
  if (!workload.ok()) {
    return fail("workload conversion failed: " + workload.status().ToString());
  }

  PipelineOptions options;
  options.level = CompressionLevel::kLevel2;
  const EventStream reference =
      dist::RunDistReference(workload.value(), trace.value().hops, options);
  options.level = CompressionLevel::kLevel1;
  const EventStream reference_level1 =
      dist::RunDistReference(workload.value(), trace.value().hops, options);
  if (stats != nullptr) stats->traces_run += 2;

  if (auto failure = CheckWellFormed(reference_level1, reference)) {
    return fail("serial reference: " + failure->detail);
  }
  if (auto failure = CheckLevel2Recovery(reference_level1, reference)) {
    return fail("serial reference: " + failure->detail);
  }

  // Bit-identity — raw DiffStreams, not canonicalized: the distributed
  // merge must reproduce the serial stream exactly, for any node count.
  for (int nodes : {1, 2}) {
    dist::DistOptions dist_options;
    dist_options.num_nodes = nodes;
    dist_options.pipeline.level = CompressionLevel::kLevel2;
    dist::DistResult result = dist::RunDistLoopback(
        workload.value(), trace.value().hops, dist_options);
    if (stats != nullptr) stats->traces_run += 1;
    if (!result.status.ok()) {
      return fail(std::to_string(nodes) +
                  "-node run failed: " + result.status.ToString());
    }
    std::string diff =
        DiffStreams(reference, result.events, "serial reference",
                    std::to_string(nodes) + "-node distributed");
    if (!diff.empty()) return fail(diff);
  }

  // Observer-effect leg: the fleet observability machinery — per-epoch
  // StatsReport frames, ClockSync, and cross-node handoff trace spans —
  // must never change a single byte of the merged output stream.
  {
    const bool was_enabled = obs::Enabled();
    obs::SetEnabled(true);
    const std::string trace_path =
        (std::filesystem::temp_directory_path() /
         ("spire_oracle_trace_" + std::to_string(fuzz_case.sim.seed) +
          ".json"))
            .string();
    obs::Tracer& tracer = obs::Tracer::Global();
    const bool tracing = tracer.Start(trace_path).ok();

    dist::DistOptions dist_options;
    dist_options.num_nodes = 2;
    dist_options.pipeline.level = CompressionLevel::kLevel2;
    dist_options.stats_interval_epochs = 1;  // Maximum cadence pressure.
    dist::DistResult result = dist::RunDistLoopback(
        workload.value(), trace.value().hops, dist_options);
    if (stats != nullptr) stats->traces_run += 1;

    if (tracing) {
      (void)tracer.Stop();
      std::error_code ec;
      std::filesystem::remove(trace_path, ec);
    }
    obs::SetEnabled(was_enabled);

    if (!result.status.ok()) {
      return fail("observed 2-node run failed: " + result.status.ToString());
    }
    std::string diff = DiffStreams(reference, result.events,
                                   "serial reference",
                                   "2-node distributed with stats+tracing");
    if (!diff.empty()) {
      return fail("observability changed the output: " + diff);
    }
  }
  return std::nullopt;
}

std::optional<OracleFailure> DifferentialChecker::Check(
    const FuzzCase& fuzz_case, CheckStats* stats) const {
  auto trace = GenerateTrace(fuzz_case);
  if (!trace.ok()) {
    return OracleFailure{"generate", trace.status().ToString()};
  }
  EventStream level1 = RunPipelineOnTrace(trace.value(), CompressionLevel::kLevel1);
  PipelineOptions level2_options;
  level2_options.level = CompressionLevel::kLevel2;
  std::string handover_violation;
  EventStream level2 =
      RunPipelineOnTrace(trace.value(), level2_options, &handover_violation);
  if (stats != nullptr) stats->traces_run += 2;
  if (!handover_violation.empty()) {
    return OracleFailure{"handover_invariant", handover_violation};
  }

  if (auto failure = CheckWellFormed(level1, level2)) return failure;
  if (auto failure = CheckLevel2Recovery(level1, level2)) return failure;
  if (auto failure =
          CheckIncrementalEquivalence(trace.value(), level1, level2, stats)) {
    return failure;
  }
  if (auto failure = CheckArchiveRoundTrip(level2, "level2")) return failure;
  if (auto failure = CheckArchiveRoundTrip(level1, "level1")) return failure;
  if (auto failure = CheckQueryEquivalence(level2, "level2")) return failure;
  if (auto failure = CheckQueryEquivalence(level1, "level1")) return failure;
  if (auto failure = CheckSerdeRoundTrip(level1, "level1")) return failure;
  if (auto failure = CheckSerdeRoundTrip(level2, "level2")) return failure;
  if (auto failure = CheckExplainConsistency(trace.value(), level2)) {
    return failure;
  }
  if (stats != nullptr) stats->traces_run += 1;
  if (auto failure = CheckPatternEquivalence(trace.value().registry, level1,
                                             level2)) {
    return failure;
  }
  if (auto failure = CheckDistributedEquivalence(fuzz_case, stats)) {
    return failure;
  }

  // Determinism: the whole path — simulator, dedup, inference, compression —
  // must reproduce bit-identically from the same case.
  auto trace_again = GenerateTrace(fuzz_case);
  if (!trace_again.ok()) {
    return OracleFailure{"determinism", "second trace generation failed: " +
                                            trace_again.status().ToString()};
  }
  EventStream level1_again =
      RunPipelineOnTrace(trace_again.value(), CompressionLevel::kLevel1);
  EventStream level2_again =
      RunPipelineOnTrace(trace_again.value(), CompressionLevel::kLevel2);
  if (stats != nullptr) stats->traces_run += 2;
  if (std::string diff =
          DiffStreams(level1, level1_again, "level1 run A", "level1 run B");
      !diff.empty()) {
    return OracleFailure{"determinism", diff};
  }
  if (std::string diff =
          DiffStreams(level2, level2_again, "level2 run A", "level2 run B");
      !diff.empty()) {
    return OracleFailure{"determinism", diff};
  }
  return std::nullopt;
}

}  // namespace spire
