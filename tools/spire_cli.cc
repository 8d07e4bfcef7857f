// spire_cli — offline driver for the SPIRE substrate.
//
//   spire_cli <command> [key=value ...]
//
// Every command's keys are declared once, typed and defaulted, in the
// option table below (kCommands); main checks the command line against it
// before any file is opened, so an unknown, malformed or out-of-range key
// fails by name. Running spire_cli with no arguments prints the usage from
// the same table. README.md walks through the commands; DESIGN.md covers
// the subsystems behind them: archive/scan/compact §6, serve §8, run,
// statusz, explain and obscheck §9, detect §11, dist and its spawned
// `node` processes §12, queryserve §13.
//
// Trace files use the binary format of stream/trace_io.h; event files are
// "SPEV" + u16 version + u64 record count + the 26-byte records of
// compress/serde.h; archives are the segmented block format of
// store/format.h with a ".spix" index sidecar.
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <climits>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "cep/compressed_log.h"
#include "cep/library.h"
#include "cep/nfa.h"
#include "cep/pattern.h"
#include "check/oracles.h"
#include "check/trace_gen.h"
#include "common/config.h"
#include "common/random.h"
#include "compress/decompress.h"
#include "compress/fold.h"
#include "compress/serde.h"
#include "compress/well_formed.h"
#include "dist/coordinator.h"
#include "dist/node.h"
#include "dist/runner.h"
#include "dist/transport.h"
#include "obs/explain.h"
#include "obs/json.h"
#include "obs/merge_trace.h"
#include "obs/registry.h"
#include "obs/trace.h"
#include "query/event_log.h"
#include "query/segment_log.h"
#include "serve/workload.h"
#include "sim/simulator.h"
#include "smurf/smurf.h"
#include "spire/pipeline.h"
#include "store/archive_reader.h"
#include "store/archive_writer.h"
#include "store/segment.h"
#include "stream/deployment.h"
#include "stream/trace_io.h"

using namespace spire;

namespace {

// ------------------------------------------------------------- option keys

// Keys that more than one command or group takes, each declared once.
const OptionSpec kIn = StringOption("in");
const OptionSpec kOut = StringOption("out");
const OptionSpec kDeployment = StringOption("deployment");
// Fuzz-case seeds, 0 through INT64_MAX as in spire_fuzz and repro files;
// kInputSeed's 0 means input from files.
const OptionSpec kSeed = IntOptionOf<std::uint64_t>("seed", 1);
const OptionSpec kInputSeed = IntOptionOf<std::uint64_t>("seed", 0);
const OptionSpec kSites = IntOption("sites", 0, 0, INT_MAX);
const OptionSpec kObject = IntOption("object", -1, -1);  // -1: no object.
const OptionSpec kFrom = IntOption("from", 0);
const OptionSpec kTo = IntOption("to", kInfiniteEpoch);
const OptionSpec kMmap = BoolOption("mmap", true);
const OptionSpec kLevel = EnumOption("level", "2", {"1", "2"});
const OptionSpec kStatusz = EnumOption("statusz", "", {"text", "json"});
const OptionSpec kStatsOut = StringOption("stats_out");
const OptionSpec kTraceOut = StringOption("trace_out");
const OptionSpec kExplainOut = StringOption("explain_out");
const OptionSpec kNodes = IntOptionOf("nodes", 2);

using Keys = std::vector<OptionSpec>;

Keys Join(std::initializer_list<Keys> groups) {
  Keys keys;
  for (const Keys& group : groups) {
    keys.insert(keys.end(), group.begin(), group.end());
  }
  return keys;
}

// The shared groups.
const Keys kPipeline = {
    kLevel, DoubleOption("beta", InferenceParams().beta),
    DoubleOption("gamma", InferenceParams().gamma),
    DoubleOption("theta", InferenceParams().theta),
    BoolOption("incremental", InferenceParams().incremental),
    EnumOption("mode", "scheduled", {"scheduled", "always", "complete_only"})};
// An absent codec= keeps the command's default: archive writes the smaller
// varint blocks, compact the scan-optimized bitpack ones.
const Keys kWriter = {
    IntOption("block",
              static_cast<std::int64_t>(ArchiveOptions().block_events), 1),
    EnumOption("codec", "", {"varint", "bitpack"}),
    EnumOption("format", "2", {"1", "2"})};
const Keys kFleet = {
    kNodes,    BoolOption("check", true), BoolOption("stats", false),
    kStatsOut, kStatusz, IntOption("stats_every", 16, 0, UINT32_MAX),
    kTraceOut, kOut};
// Everything a dist run's workload derives from: the fuzz case `seed`,
// `sites`, the level its pipelines run at, and the other SimConfig keys. A
// spawned `node` re-derives the workload from exactly these keys, forwarded
// from the coordinator's command line.
const Keys kWorkload = [] {
  Keys keys = SimConfig::Keys();
  std::erase_if(keys, [](const OptionSpec& key) { return key.name == "seed"; });
  keys.insert(keys.begin(), {kLevel, kSeed, kSites});
  return keys;
}();

// ---------------------------------------------------------------- helpers

int Fail(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 1;
}

int FailText(const std::string& message) {
  std::fprintf(stderr, "error: %s\n", message.c_str());
  return 1;
}

Status SaveLines(const std::string& path,
                 const std::vector<std::string>& lines) {
  std::ofstream out(path);
  if (!out) return Status::NotFound("cannot open for writing: " + path);
  for (const std::string& line : lines) out << line << "\n";
  return out.good() ? Status::OK() : Status::Internal("write failed: " + path);
}

Result<std::vector<std::string>> LoadLines(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::NotFound("cannot open: " + path);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

// ---------------------------------------------------------------- generate

int RunGenerate(const Options& args) {
  auto out_path = args.String("out");
  auto deployment_path = args.String("deployment");
  auto sim_config = SimConfig::FromOptions(args, SimConfig());
  if (!sim_config.ok()) return Fail(sim_config.status());
  auto sim = WarehouseSimulator::Create(sim_config.value());
  if (!sim.ok()) return Fail(sim.status());
  WarehouseSimulator& s = *sim.value();

  std::ofstream out(out_path, std::ios::binary);
  if (!out) return FailText("cannot open for writing: " + out_path);
  TraceWriter writer(&out);
  Status status = writer.WriteHeader();
  if (!status.ok()) return Fail(status);
  while (!s.Done()) {
    EpochReadings readings = s.Step();
    status = writer.WriteEpoch(s.current_epoch(), readings);
    if (!status.ok()) return Fail(status);
  }
  s.FinishTruth();

  status = SaveLines(deployment_path, SerializeDeployment(s.registry()));
  if (!status.ok()) return Fail(status);

  auto truth_path = args.String("truth");
  if (!truth_path.empty()) {
    status = WriteEventFile(truth_path, s.truth_events());
    if (!status.ok()) return Fail(status);
  }
  std::printf("wrote %zu readings over %lld epochs to %s\n",
              s.total_readings(),
              static_cast<long long>(s.current_epoch() + 1), out_path.c_str());
  return 0;
}

// ----------------------------------------------------------------- process

CompressionLevel LevelOf(const Options& args) {
  return args.String("level") == "1" ? CompressionLevel::kLevel1
                                     : CompressionLevel::kLevel2;
}

/// The pipeline group's knobs (`process`, `run`, `statusz` and `detect`).
PipelineOptions PipelineOptionsFromArgs(const Options& args) {
  PipelineOptions options;
  options.level = LevelOf(args);
  options.inference.beta = args.Double("beta");
  options.inference.gamma = args.Double("gamma");
  options.inference.theta = args.Double("theta");
  // incremental=0 forces full recomputation every complete pass (the output
  // is identical either way; the knob exists for A/B timing and debugging).
  options.inference.incremental = args.Bool("incremental");
  const std::string& mode = args.String("mode");
  if (mode == "always") {
    options.inference_mode = InferenceMode::kAlwaysComplete;
  } else if (mode == "complete_only") {
    options.inference_mode = InferenceMode::kCompleteOnly;
  }
  return options;
}

int RunProcess(const Options& args) {
  auto in_path = args.String("in");
  auto deployment_path = args.String("deployment");
  auto out_path = args.String("out");
  auto lines = LoadLines(deployment_path);
  if (!lines.ok()) return Fail(lines.status());
  auto registry = ParseDeployment(lines.value());
  if (!registry.ok()) return Fail(registry.status());

  const PipelineOptions options = PipelineOptionsFromArgs(args);
  SpirePipeline pipeline(&registry.value(), options);

  std::ifstream in(in_path, std::ios::binary);
  if (!in) return FailText("cannot open: " + in_path);
  TraceReader reader(&in);
  Status status = reader.ReadHeader();
  if (!status.ok()) return Fail(status);

  EventStream events;
  Epoch epoch = kNeverEpoch;
  Epoch last = kNeverEpoch;
  EpochReadings readings;
  std::size_t total_readings = 0;
  for (;;) {
    auto more = reader.NextEpoch(&epoch, &readings);
    if (!more.ok()) return Fail(more.status());
    if (!more.value()) break;
    total_readings += readings.size();
    pipeline.ProcessEpoch(epoch, std::move(readings), &events);
    last = epoch;
  }
  pipeline.Finish(last + 1, &events);

  status = WriteEventFile(out_path, events);
  if (!status.ok()) return Fail(status);
  std::printf("processed %zu readings -> %zu events (level %d), "
              "compression ratio %.4f\n",
              total_readings, events.size(),
              options.level == CompressionLevel::kLevel1 ? 1 : 2,
              total_readings == 0
                  ? 0.0
                  : static_cast<double>(events.size() * kEventWireBytes) /
                        static_cast<double>(total_readings *
                                            kReadingWireBytes));
  return 0;
}

// ------------------------------------------------------- small subcommands

int RunDecompress(const Options& args) {
  auto in_path = args.String("in");
  auto out_path = args.String("out");
  auto events = ReadEventFile(in_path);
  if (!events.ok()) return Fail(events.status());
  EventStream level1 = Decompressor::DecompressAll(events.value());
  Status status = WriteEventFile(out_path, level1);
  if (!status.ok()) return Fail(status);
  std::printf("decompressed %zu -> %zu events\n", events.value().size(),
              level1.size());
  return 0;
}

int RunValidate(const Options& args) {
  auto in_path = args.String("in");
  auto events = ReadEventFile(in_path);
  if (!events.ok()) return Fail(events.status());
  Status status =
      ValidateWellFormed(events.value(), /*allow_open_at_end=*/true);
  if (!status.ok()) return Fail(status);
  std::printf("%zu events, well-formed\n", events.value().size());
  return 0;
}

int RunStats(const Options& args) {
  auto in_path = args.String("in");
  auto events = ReadEventFile(in_path);
  if (!events.ok()) return Fail(events.status());
  auto log = EventLog::Build(events.value());
  if (!log.ok()) return Fail(log.status());
  std::size_t counts[5] = {};
  for (const Event& event : events.value()) {
    ++counts[static_cast<int>(event.type)];
  }
  std::printf("events: %zu (%zu bytes on the wire)\n", events.value().size(),
              WireBytes(events.value()));
  for (int type = 0; type < 5; ++type) {
    std::printf("  %-16s %zu\n", ToString(static_cast<EventType>(type)),
                counts[type]);
  }
  std::printf("objects: %zu, epochs [%lld, %lld], missing reports: %zu\n",
              log.value().num_objects(),
              static_cast<long long>(log.value().first_epoch()),
              static_cast<long long>(log.value().last_epoch()),
              log.value().MissingReports().size());
  return 0;
}

int RunQuery(const Options& args) {
  auto in_path = args.String("in");
  auto events = ReadEventFile(in_path);
  if (!events.ok()) return Fail(events.status());
  auto log = EventLog::Build(events.value(), args.Bool("decompress"));
  if (!log.ok()) return Fail(log.status());
  const Epoch epoch = args.Int("epoch");
  const std::int64_t object_arg = args.Int("object");
  if (object_arg >= 0) {
    ObjectId object = static_cast<ObjectId>(object_arg);
    LocationId location = log.value().LocationAt(object, epoch);
    ObjectId container = log.value().ContainerAt(object, epoch);
    std::printf("%s @ t=%lld: location=%d container=%s missing=%s\n",
                EpcToString(object).c_str(), static_cast<long long>(epoch),
                static_cast<int>(location),
                container == kNoObject ? "none"
                                       : EpcToString(container).c_str(),
                log.value().IsMissingAt(object, epoch) ? "yes" : "no");
    return 0;
  }
  // No object: summarize the world at the epoch.
  std::size_t located = 0;
  for (const auto& event : FoldEvents(events.value())) {
    if (event.type == EventType::kStartLocation && event.start <= epoch &&
        epoch < event.end) {
      ++located;
    }
  }
  std::printf("t=%lld: %zu objects at known locations\n",
              static_cast<long long>(epoch), located);
  return 0;
}

// ------------------------------------------------------- archive commands

/// Applies the archive-writer group (kWriter).
void ApplyWriterArgs(const Options& args, ArchiveOptions* options) {
  options->block_events = static_cast<std::size_t>(args.Int("block"));
  if (args.String("codec") == "varint") options->codec = BlockCodec::kVarint;
  if (args.String("codec") == "bitpack") options->codec = BlockCodec::kBitpack;
  options->format_version =
      args.String("format") == "1" ? kArchiveVersionV1 : kArchiveVersion;
}

int RunArchive(const Options& args) {
  auto in_path = args.String("in");
  auto out_path = args.String("out");
  auto events = ReadEventFile(in_path);
  if (!events.ok()) return Fail(events.status());

  ArchiveOptions options;
  ApplyWriterArgs(args, &options);
  auto writer = ArchiveWriter::Open(out_path, options);
  if (!writer.ok()) return Fail(writer.status());
  ArchiveWriter& w = *writer.value();
  if (w.recovery().recovered_events > 0 || w.recovery().truncated_bytes > 0) {
    std::printf("recovered %llu events in %zu blocks (truncated %llu torn "
                "bytes); appending\n",
                static_cast<unsigned long long>(w.recovery().recovered_events),
                w.recovery().recovered_blocks,
                static_cast<unsigned long long>(w.recovery().truncated_bytes));
  }
  Status status = w.Append(events.value());
  if (!status.ok()) return Fail(status);
  status = w.Close();
  if (!status.ok()) return Fail(status);

  const std::size_t flat_bytes = WireBytes(events.value());
  std::printf("archived %llu events in %zu blocks (v%u %s), %llu bytes "
              "(flat SPEV records: %zu bytes, %.1f%%)\n",
              static_cast<unsigned long long>(w.events_written()),
              w.num_blocks(), w.format_version(), ToString(w.codec()),
              static_cast<unsigned long long>(w.segment_bytes()), flat_bytes,
              flat_bytes == 0 ? 0.0
                              : 100.0 * static_cast<double>(w.segment_bytes()) /
                                    static_cast<double>(flat_bytes));
  return 0;
}

int RunScan(const Options& args) {
  auto in_path = args.String("in");
  ReaderOptions reader_options;
  reader_options.use_mmap = args.Bool("mmap");
  auto reader = ArchiveReader::Open(in_path, reader_options);
  if (!reader.ok()) return Fail(reader.status());
  const ArchiveReader& r = reader.value();
  if (r.index_rebuilt()) {
    std::printf("index sidecar missing or stale; directory rebuilt by scan\n");
  }

  const Epoch from = args.Int("from");
  const Epoch to = args.Int("to");
  const std::int64_t object_arg = args.Int("object");
  const bool ranged = from != 0 || to != kInfiniteEpoch;

  Result<EventStream> scanned = Status::Internal("unreachable");
  std::size_t blocks_decoded = 0;
  if (object_arg >= 0) {
    const ObjectId object = static_cast<ObjectId>(object_arg);
    if (ranged) {
      // Posting-list and epoch pruning compose: only the object's blocks
      // that also intersect [from, to] are decoded.
      scanned = r.ScanObjectRange(object, from, to);
      blocks_decoded = r.BlocksForObjectInRange(object, from, to);
    } else {
      scanned = r.ScanObject(object);
      blocks_decoded = r.BlocksForObject(object);
    }
  } else if (ranged) {
    scanned = r.ScanRange(from, to);
    blocks_decoded = r.BlocksInRange(from, to);
  } else {
    scanned = r.ScanAll();
    blocks_decoded = r.num_blocks();
  }
  if (!scanned.ok()) return Fail(scanned.status());

  std::printf("%zu events from %zu of %zu blocks (%llu events total)\n",
              scanned.value().size(), blocks_decoded, r.num_blocks(),
              static_cast<unsigned long long>(r.num_events()));

  auto out_path = args.String("out");
  if (!out_path.empty()) {
    // Restricted selections can open with unmatched End messages; repair
    // them so the flat file decodes standalone.
    Status status =
        WriteEventFile(out_path, RepairRestrictedStream(scanned.value()));
    if (!status.ok()) return Fail(status);
    std::printf("wrote %s\n", out_path.c_str());
  }
  return 0;
}

int RunCompact(const Options& args) {
  auto in_path = args.String("in");
  auto out_path = args.String("out");
  if (in_path == out_path) {
    return FailText("compact needs distinct in=<archive> out=<archive>");
  }
  auto reader = ArchiveReader::Open(in_path);
  if (!reader.ok()) return Fail(reader.status());
  auto events = reader.value().ScanAll();
  if (!events.ok()) return Fail(events.status());

  std::error_code ec;
  std::filesystem::remove(out_path, ec);
  std::filesystem::remove(IndexPathFor(out_path), ec);
  // Compaction rewrites every block anyway, so default to the
  // scan-optimized codec; codec=varint opts back into the smaller one.
  // This is also the v1 -> v2 upgrade path: compacting a v1 segment writes
  // a current-format segment unless format=1 is forced.
  ArchiveOptions options;
  options.codec = BlockCodec::kBitpack;
  ApplyWriterArgs(args, &options);
  auto writer = ArchiveWriter::Open(out_path, options);
  if (!writer.ok()) return Fail(writer.status());
  Status status = writer.value()->Append(events.value());
  if (!status.ok()) return Fail(status);
  status = writer.value()->Close();
  if (!status.ok()) return Fail(status);

  std::printf("compacted %zu blocks (v%u, %llu bytes) -> %zu blocks "
              "(v%u %s, %llu bytes), %zu events\n",
              reader.value().num_blocks(), reader.value().format_version(),
              static_cast<unsigned long long>(reader.value().segment_bytes()),
              writer.value()->num_blocks(), writer.value()->format_version(),
              ToString(writer.value()->codec()),
              static_cast<unsigned long long>(writer.value()->segment_bytes()),
              events.value().size());
  return 0;
}

/// The metrics outputs of `queryserve`, `run` and the fleet commands:
/// `stats_out=` writes `json` to a file, `statusz=json` prints it and
/// `statusz=text` prints the registry's text form.
Status EmitStats(const std::string& stats_out, const std::string& statusz,
                 const std::string& json) {
  if (!stats_out.empty()) SPIRE_RETURN_NOT_OK(SaveLines(stats_out, {json}));
  if (statusz == "json") {
    std::printf("%s\n", json.c_str());
  } else if (statusz == "text") {
    std::printf("%s", obs::Registry::Global().ToText().c_str());
  }
  return Status::OK();
}

// ----------------------------------------------------------- queryserve

/// One historical query against an archive segment.
struct QueryRequest {
  enum class Kind {
    kLocationAt,
    kContainerAt,
    kContentsAt,
    kObjectsAt,
    kTrajectoryOf,
    kIsMissingAt,
  };
  Kind kind = Kind::kLocationAt;
  std::uint64_t id = 0;  ///< Object id, or location id for kObjectsAt.
  Epoch epoch = 0;       ///< Ignored by kTrajectoryOf.
};

const char* QueryKindName(QueryRequest::Kind kind) {
  switch (kind) {
    case QueryRequest::Kind::kLocationAt:
      return "location_at";
    case QueryRequest::Kind::kContainerAt:
      return "container_at";
    case QueryRequest::Kind::kContentsAt:
      return "contents_at";
    case QueryRequest::Kind::kObjectsAt:
      return "objects_at";
    case QueryRequest::Kind::kTrajectoryOf:
      return "trajectory_of";
    case QueryRequest::Kind::kIsMissingAt:
      return "is_missing_at";
  }
  return "unknown";
}

/// Parses a request file: one `<kind> <id> <epoch>` line each (kind as in
/// QueryKindName; trajectory_of lines may omit the epoch). '#' comments and
/// blank lines are skipped.
Result<std::vector<QueryRequest>> ParseRequestLines(
    const std::vector<std::string>& lines) {
  std::vector<QueryRequest> requests;
  for (const std::string& line : lines) {
    std::istringstream tokens(line);
    std::string kind;
    if (!(tokens >> kind) || kind.empty() || kind[0] == '#') continue;
    QueryRequest request;
    if (kind == "location_at") {
      request.kind = QueryRequest::Kind::kLocationAt;
    } else if (kind == "container_at") {
      request.kind = QueryRequest::Kind::kContainerAt;
    } else if (kind == "contents_at") {
      request.kind = QueryRequest::Kind::kContentsAt;
    } else if (kind == "objects_at") {
      request.kind = QueryRequest::Kind::kObjectsAt;
    } else if (kind == "trajectory_of") {
      request.kind = QueryRequest::Kind::kTrajectoryOf;
    } else if (kind == "is_missing_at") {
      request.kind = QueryRequest::Kind::kIsMissingAt;
    } else {
      return Status::InvalidArgument("unknown query kind '" + kind + "'");
    }
    if (!(tokens >> request.id)) {
      return Status::InvalidArgument("query line needs an id: " + line);
    }
    long long epoch = 0;
    if (tokens >> epoch) {
      request.epoch = static_cast<Epoch>(epoch);
    } else if (request.kind != QueryRequest::Kind::kTrajectoryOf) {
      return Status::InvalidArgument("query line needs an epoch: " + line);
    }
    requests.push_back(request);
  }
  return requests;
}

/// Draws a mixed workload over the archive's own universes: objects and
/// locations come from the sidecar posting indexes, epochs span the block
/// directory's range. Deterministic in `seed`.
std::vector<QueryRequest> GenerateRequests(const ArchiveReader& reader,
                                           std::size_t count,
                                           std::uint64_t seed) {
  std::vector<ObjectId> objects;
  for (const auto& [object, blocks] : reader.object_postings()) {
    objects.push_back(object);
  }
  std::vector<LocationId> locations;
  for (const auto& [location, blocks] : reader.location_postings()) {
    locations.push_back(location);
  }
  Epoch lo = 0;
  Epoch hi = 0;
  for (const BlockMeta& block : reader.blocks()) {
    lo = std::min(lo, block.min_epoch);
    hi = std::max(hi, block.max_epoch);
  }
  std::vector<QueryRequest> requests;
  if (objects.empty()) return requests;
  Pcg32 rng(seed);
  requests.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    QueryRequest request;
    request.kind = static_cast<QueryRequest::Kind>(rng.NextBounded(6));
    if (request.kind == QueryRequest::Kind::kObjectsAt) {
      if (locations.empty()) request.kind = QueryRequest::Kind::kLocationAt;
    }
    request.id =
        request.kind == QueryRequest::Kind::kObjectsAt
            ? locations[rng.NextBounded(
                  static_cast<std::uint32_t>(locations.size()))]
            : objects[rng.NextBounded(
                  static_cast<std::uint32_t>(objects.size()))];
    request.epoch = rng.NextInRange(lo, hi);
    requests.push_back(request);
  }
  return requests;
}

std::string IdListString(const std::vector<ObjectId>& ids) {
  std::string text = "[";
  for (std::size_t i = 0; i < ids.size(); ++i) {
    if (i > 0) text += ",";
    text += std::to_string(ids[i]);
  }
  return text + "]";
}

std::string StayListString(const std::vector<Stay>& stays) {
  std::string text = "[";
  for (std::size_t i = 0; i < stays.size(); ++i) {
    if (i > 0) text += ",";
    text += std::to_string(stays[i].start) + ":" +
            std::to_string(stays[i].end) + "@" +
            std::to_string(stays[i].location);
  }
  return text + "]";
}

/// Answers one request segment-direct; the canonical string makes answers
/// byte-comparable against the materialized baseline.
Result<std::string> AnswerSegmentDirect(const SegmentLog& log,
                                        const QueryRequest& request) {
  switch (request.kind) {
    case QueryRequest::Kind::kLocationAt: {
      auto answer = log.LocationAt(request.id, request.epoch);
      if (!answer.ok()) return answer.status();
      return std::to_string(answer.value());
    }
    case QueryRequest::Kind::kContainerAt: {
      auto answer = log.ContainerAt(request.id, request.epoch);
      if (!answer.ok()) return answer.status();
      return std::to_string(answer.value());
    }
    case QueryRequest::Kind::kContentsAt: {
      auto answer = log.ContentsAt(request.id, request.epoch);
      if (!answer.ok()) return answer.status();
      return IdListString(answer.value());
    }
    case QueryRequest::Kind::kObjectsAt: {
      auto answer =
          log.ObjectsAt(static_cast<LocationId>(request.id), request.epoch);
      if (!answer.ok()) return answer.status();
      return IdListString(answer.value());
    }
    case QueryRequest::Kind::kTrajectoryOf: {
      auto answer = log.TrajectoryOf(request.id);
      if (!answer.ok()) return answer.status();
      return StayListString(answer.value());
    }
    case QueryRequest::Kind::kIsMissingAt: {
      auto answer = log.IsMissingAt(request.id, request.epoch);
      if (!answer.ok()) return answer.status();
      return std::string(answer.value() ? "true" : "false");
    }
  }
  return Status::Internal("unknown query kind");
}

/// The same request against the fully materialized EventLog.
std::string AnswerMaterialized(const EventLog& log,
                               const QueryRequest& request) {
  switch (request.kind) {
    case QueryRequest::Kind::kLocationAt:
      return std::to_string(log.LocationAt(request.id, request.epoch));
    case QueryRequest::Kind::kContainerAt:
      return std::to_string(log.ContainerAt(request.id, request.epoch));
    case QueryRequest::Kind::kContentsAt:
      return IdListString(log.ContentsAt(request.id, request.epoch));
    case QueryRequest::Kind::kObjectsAt:
      return IdListString(
          log.ObjectsAt(static_cast<LocationId>(request.id), request.epoch));
    case QueryRequest::Kind::kTrajectoryOf:
      return StayListString(log.TrajectoryOf(request.id));
    case QueryRequest::Kind::kIsMissingAt:
      return log.IsMissingAt(request.id, request.epoch) ? "true" : "false";
  }
  return "";
}

int RunQueryserve(const Options& args) {
  auto in_path = args.String("in");

  // queryserve is a metrics-centric command: instruments (cache counters,
  // per-kind latency histograms) are always on, like `statusz`.
  obs::SetEnabled(true);
  obs::Registry::Global().Reset();
  obs::Registry::Global().GetCounter("common", "cli_invocations")->Add(1);

  ReaderOptions reader_options;
  reader_options.use_mmap = args.Bool("mmap");
  const std::int64_t cache_mb = args.Int("cache_mb");
  std::shared_ptr<BlockCache> cache;
  if (cache_mb > 0) {
    cache = std::make_shared<BlockCache>(
        static_cast<std::uint64_t>(cache_mb) * 1024 * 1024);
  }
  auto log = SegmentLog::Open(in_path, reader_options, cache);
  if (!log.ok()) return Fail(log.status());
  const SegmentLog& segment_log = *log.value();

  std::vector<QueryRequest> requests;
  const auto requests_path = args.String("requests");
  if (!requests_path.empty()) {
    auto lines = LoadLines(requests_path);
    if (!lines.ok()) return Fail(lines.status());
    auto parsed = ParseRequestLines(lines.value());
    if (!parsed.ok()) return Fail(parsed.status());
    requests = std::move(parsed).value();
  } else {
    requests = GenerateRequests(segment_log.reader(),
                                static_cast<std::size_t>(args.Int("count")),
                                static_cast<std::uint64_t>(args.Int("seed")));
  }
  if (requests.empty()) return FailText("no requests to serve");

  const int threads = static_cast<int>(args.Int("threads"));
  const int passes = static_cast<int>(args.Int("passes"));

  std::vector<std::string> answers(requests.size());
  std::vector<Status> worker_status(static_cast<std::size_t>(threads));
  const auto wall_start = std::chrono::steady_clock::now();
  for (int pass = 0; pass < passes; ++pass) {
    std::vector<std::thread> workers;
    workers.reserve(static_cast<std::size_t>(threads));
    for (int t = 0; t < threads; ++t) {
      workers.emplace_back([&, t]() {
        auto& registry = obs::Registry::Global();
        for (std::size_t i = static_cast<std::size_t>(t);
             i < requests.size(); i += static_cast<std::size_t>(threads)) {
          const auto start = std::chrono::steady_clock::now();
          auto answer = AnswerSegmentDirect(segment_log, requests[i]);
          const std::chrono::duration<double> elapsed =
              std::chrono::steady_clock::now() - start;
          if (!answer.ok()) {
            worker_status[static_cast<std::size_t>(t)] = answer.status();
            return;
          }
          registry.GetHistogram("query", QueryKindName(requests[i].kind))
              ->RecordSeconds(elapsed.count());
          answers[i] = std::move(answer).value();
        }
      });
    }
    for (std::thread& worker : workers) worker.join();
    for (const Status& status : worker_status) {
      if (!status.ok()) return Fail(status);
    }
  }
  const std::chrono::duration<double> wall =
      std::chrono::steady_clock::now() - wall_start;
  const double total_queries =
      static_cast<double>(requests.size()) * passes;

  std::printf("served %zu requests x %d pass(es) on %d thread(s) in %.3fs "
              "(%.0f queries/s)\n",
              requests.size(), passes, threads, wall.count(),
              wall.count() > 0.0 ? total_queries / wall.count() : 0.0);
  if (cache != nullptr) {
    const BlockCache::Stats stats = cache->GetStats();
    std::printf("cache: %llu lookups, %llu hits (%llu stay, %llu block), "
                "%llu misses (%llu stay, %llu block), %llu evictions, "
                "%llu/%llu bytes; %llu blocks decoded\n",
                static_cast<unsigned long long>(stats.lookups),
                static_cast<unsigned long long>(stats.hits),
                static_cast<unsigned long long>(stats.stay_hits),
                static_cast<unsigned long long>(stats.block_hits),
                static_cast<unsigned long long>(stats.misses),
                static_cast<unsigned long long>(stats.stay_misses),
                static_cast<unsigned long long>(stats.block_misses),
                static_cast<unsigned long long>(stats.evictions),
                static_cast<unsigned long long>(stats.bytes),
                static_cast<unsigned long long>(stats.capacity_bytes),
                static_cast<unsigned long long>(
                    segment_log.blocks_decoded()));
    std::printf("stay hits/misses by key kind: object %llu/%llu, "
                "container %llu/%llu, location %llu/%llu\n",
                static_cast<unsigned long long>(stats.object_hits),
                static_cast<unsigned long long>(stats.object_misses),
                static_cast<unsigned long long>(stats.container_hits),
                static_cast<unsigned long long>(stats.container_misses),
                static_cast<unsigned long long>(stats.location_hits),
                static_cast<unsigned long long>(stats.location_misses));
    // The serving invariants: every lookup is a hit or a miss, and only
    // misses decode (concurrent same-key misses may both decode, so
    // decodes <= misses rather than ==).
    if (stats.hits + stats.misses != stats.lookups) {
      return FailText("cache counters do not reconcile: hits + misses != "
                      "lookups");
    }
    if (segment_log.blocks_decoded() > stats.misses) {
      return FailText("cache counters do not reconcile: decodes > misses");
    }
  }

  if (args.Bool("check")) {
    auto baseline = EventLog::FromArchive(segment_log.reader(), 0,
                                          kInfiniteEpoch, false);
    if (!baseline.ok()) return Fail(baseline.status());
    for (std::size_t i = 0; i < requests.size(); ++i) {
      const std::string expected =
          AnswerMaterialized(baseline.value(), requests[i]);
      if (answers[i] != expected) {
        return FailText(std::string("answer diverges from materialized "
                                    "baseline for ") +
                        QueryKindName(requests[i].kind) + " id=" +
                        std::to_string(requests[i].id) + " epoch=" +
                        std::to_string(requests[i].epoch) + ": got " +
                        answers[i] + ", want " + expected);
      }
    }
    std::printf("checked %zu answers against the materialized baseline: "
                "all identical\n",
                requests.size());
  }

  Status status = EmitStats(args.String("stats_out"), args.String("statusz"),
                            obs::Registry::Global().ToJson());
  return status.ok() ? 0 : Fail(status);
}

// --------------------------------------------------------------- serve

std::vector<std::string> SplitCommaList(const std::string& text) {
  std::vector<std::string> parts;
  std::size_t from = 0;
  while (from <= text.size()) {
    const std::size_t comma = text.find(',', from);
    if (comma == std::string::npos) {
      if (from < text.size()) parts.push_back(text.substr(from));
      break;
    }
    if (comma > from) parts.push_back(text.substr(from, comma - from));
    from = comma + 1;
  }
  return parts;
}

/// Reads one (trace, deployment) pair into a site, indexing readings by
/// epoch (trace files may skip silent epochs).
Result<serve::SiteWorkload> LoadSite(const std::string& trace_path,
                                     const std::string& deployment_path) {
  serve::SiteWorkload site;
  site.name = trace_path;
  auto lines = LoadLines(deployment_path);
  if (!lines.ok()) return lines.status();
  auto registry = ParseDeployment(lines.value());
  if (!registry.ok()) return registry.status();
  site.registry = std::move(registry).value();

  std::ifstream in(trace_path, std::ios::binary);
  if (!in) return Status::NotFound("cannot open: " + trace_path);
  TraceReader reader(&in);
  SPIRE_RETURN_NOT_OK(reader.ReadHeader());
  Epoch epoch = kNeverEpoch;
  EpochReadings readings;
  for (;;) {
    auto more = reader.NextEpoch(&epoch, &readings);
    if (!more.ok()) return more.status();
    if (!more.value()) break;
    if (epoch < 0) return Status::Corruption("negative epoch in " + trace_path);
    if (static_cast<std::size_t>(epoch) >= site.epochs.size()) {
      site.epochs.resize(static_cast<std::size_t>(epoch) + 1);
    }
    site.epochs[static_cast<std::size_t>(epoch)] = std::move(readings);
  }
  return site;
}

/// Builds the workload from file pairs or fuzz seeds (see usage).
Result<serve::Workload> BuildServeWorkload(const Options& args) {
  serve::Workload workload;
  auto in_list = SplitCommaList(args.String("in"));
  auto dep_list =
      SplitCommaList(args.String("deployment"));
  const std::int64_t num_sites = args.Int("sites");
  if (!in_list.empty()) {
    if (in_list.size() != dep_list.size()) {
      return Status::InvalidArgument(
          "serve needs one deployment per trace (got " +
          std::to_string(in_list.size()) + " traces, " +
          std::to_string(dep_list.size()) + " deployments)");
    }
    for (std::size_t i = 0; i < in_list.size(); ++i) {
      auto site = LoadSite(in_list[i], dep_list[i]);
      if (!site.ok()) return site.status();
      workload.sites.push_back(std::move(site).value());
    }
  } else if (num_sites > 0) {
    for (std::int64_t i = 0; i < num_sites; ++i) {
      // Unsigned, so seed + i wraps instead of overflowing.
      const std::uint64_t seed = static_cast<std::uint64_t>(args.Int("seed")) +
                                 static_cast<std::uint64_t>(i);
      FuzzCase fuzz_case = CaseFromSeed(seed);
      // NormalizeWorkload plants the site bits itself, so each site must be
      // a raw single-site trace; a transfer case's merged view already uses
      // them.
      fuzz_case.sim.transfer_sites = 1;
      auto trace = GenerateTrace(fuzz_case);
      if (!trace.ok()) return trace.status();
      serve::SiteWorkload site;
      site.name = "fuzz-seed-" + std::to_string(seed);
      site.registry = std::move(trace.value().registry);
      site.epochs = std::move(trace.value().epochs);
      workload.sites.push_back(std::move(site));
    }
  } else {
    return Status::InvalidArgument(
        "serve needs in=<t1,t2,..> deployment=<d1,d2,..> or sites=N seed=S");
  }
  SPIRE_RETURN_NOT_OK(serve::NormalizeWorkload(&workload));
  return workload;
}

// -------------------------------------------------------------- dist

/// The transfer scenario behind one `dist`/`node` run. Both commands must
/// derive the identical workload from the same args, so the node fleet can
/// be spawned with nothing but the coordinator's argument list. Starts from
/// the fuzz case of `seed`, applies any SimConfig key=value overrides, and
/// forces cross-site traffic (`sites=N` is sugar for `transfer_sites=N`).
Result<SimConfig> DistSimConfig(const Options& args) {
  FuzzCase fuzz_case =
      CaseFromSeed(static_cast<std::uint64_t>(args.Int("seed")));
  auto sim = SimConfig::FromOptions(args, fuzz_case.sim);
  if (!sim.ok()) return sim.status();
  SimConfig config = sim.value();
  if (args.Int("sites") > 0) {
    config.transfer_sites = static_cast<int>(args.Int("sites"));
  }
  if (config.transfer_sites < 2) {
    // The fuzz case drew a single-site scenario; a distributed run always
    // needs cross-site traffic, so fall back to a three-site shuttle.
    config.transfer_sites = 3;
  }
  return config;
}

struct DistWorkload {
  serve::Workload workload;
  std::vector<TransferHop> hops;
};

Result<DistWorkload> BuildDistWorkload(const Options& args) {
  auto config = DistSimConfig(args);
  if (!config.ok()) return config.status();
  auto trace = BuildTransferTrace(config.value());
  if (!trace.ok()) return trace.status();
  auto workload = dist::ToWorkload(trace.value());
  if (!workload.ok()) return workload.status();
  DistWorkload out;
  out.workload = std::move(workload).value();
  out.hops = std::move(trace.value().hops);
  return out;
}

int RunNode(const Options& args) {
  const std::int64_t node_id = args.Int("node_id");
  const std::int64_t nodes = args.Int("nodes");
  const std::int64_t fd = args.Int("fd");
  if (node_id >= nodes) return FailText("node needs node_id < nodes");
  // A spawned node traces into its own file (the parent appends
  // trace_out=<base>.node<N>.json) and labels its process row; the
  // ClockSync offset from the Hello exchange aligns it onto the
  // coordinator's timeline at merge.
  const auto trace_out = args.String("trace_out");
  if (!trace_out.empty()) {
    Status status = obs::Tracer::Global().Start(trace_out);
    if (!status.ok()) return Fail(status);
    obs::Tracer::Global().SetProcessLabel("node" + std::to_string(node_id));
  }
  auto built = BuildDistWorkload(args);
  if (!built.ok()) return Fail(built.status());
  dist::NodeConfig config;
  config.node_id = static_cast<int>(node_id);
  config.sites = dist::SitesOfNode(
      config.node_id, static_cast<int>(built.value().workload.sites.size()),
      static_cast<int>(nodes));
  config.workload = &built.value().workload;
  config.pipeline.level = LevelOf(args);
  auto conn = dist::MakeFdConn(static_cast<int>(fd));
  Status status = dist::RunDistNode(config, conn.get());
  conn->Close();
  if (!trace_out.empty()) {
    Status stop = obs::Tracer::Global().Stop();
    if (status.ok()) status = stop;
  }
  if (!status.ok()) return Fail(status);
  return 0;
}

/// Runs the node fleet as separate spire_cli processes: one socketpair per
/// node, fork, exec `/proc/self/exe node ...` with the given keys of the
/// workload group forwarded verbatim, then the coordinator over the parent
/// ends.
dist::DistResult SpawnDistProcesses(const Options& args,
                                    const DistWorkload& built,
                                    dist::DistOptions options,
                                    const std::string& trace_base) {
  dist::DistResult result;
  const int num_sites = static_cast<int>(built.workload.sites.size());
  options.num_nodes = std::max(1, std::min(options.num_nodes, num_sites));

  std::vector<std::array<int, 2>> pairs(
      static_cast<std::size_t>(options.num_nodes), {-1, -1});
  for (auto& sv : pairs) {
    if (::socketpair(AF_UNIX, SOCK_STREAM, 0, sv.data()) != 0) {
      result.status = Status::Internal("socketpair failed");
      for (auto& open_pair : pairs) {
        for (int fd : open_pair) {
          if (fd >= 0) ::close(fd);
        }
      }
      return result;
    }
  }

  std::vector<std::string> forwarded;
  for (const OptionSpec& key : kWorkload) {
    if (args.Has(key.name)) {
      forwarded.push_back(key.name + "=" + args.given().Text(key.name));
    }
  }
  std::vector<pid_t> children;
  for (int n = 0; n < options.num_nodes; ++n) {
    const pid_t pid = ::fork();
    if (pid < 0) {
      result.status = Status::Internal("fork failed");
      break;
    }
    if (pid == 0) {
      // Child: keep only this node's end, exec the `node` front end. The
      // child re-derives the identical workload from the forwarded args.
      for (int m = 0; m < options.num_nodes; ++m) {
        ::close(pairs[static_cast<std::size_t>(m)][0]);
        if (m != n) ::close(pairs[static_cast<std::size_t>(m)][1]);
      }
      std::vector<std::string> child_args;
      child_args.push_back("/proc/self/exe");
      child_args.push_back("node");
      child_args.insert(child_args.end(), forwarded.begin(), forwarded.end());
      child_args.push_back("nodes=" + std::to_string(options.num_nodes));
      child_args.push_back("node_id=" + std::to_string(n));
      child_args.push_back(
          "fd=" + std::to_string(pairs[static_cast<std::size_t>(n)][1]));
      if (!trace_base.empty()) {
        child_args.push_back("trace_out=" + trace_base + ".node" +
                             std::to_string(n) + ".json");
      }
      std::vector<char*> argv;
      for (std::string& arg : child_args) argv.push_back(arg.data());
      argv.push_back(nullptr);
      ::execv("/proc/self/exe", argv.data());
      std::fprintf(stderr, "error: exec of node %d failed\n", n);
      ::_exit(127);
    }
    children.push_back(pid);
    ::close(pairs[static_cast<std::size_t>(n)][1]);
    pairs[static_cast<std::size_t>(n)][1] = -1;
  }

  if (result.status.ok()) {
    std::vector<std::unique_ptr<dist::Conn>> conns;
    std::vector<dist::Conn*> conn_ptrs;
    for (int n = 0; n < options.num_nodes; ++n) {
      conns.push_back(
          dist::MakeFdConn(pairs[static_cast<std::size_t>(n)][0]));
      pairs[static_cast<std::size_t>(n)][0] = -1;
      conn_ptrs.push_back(conns.back().get());
    }
    result =
        dist::RunDistCoordinator(built.workload, built.hops, options,
                                 conn_ptrs);
    for (auto& conn : conns) conn->Close();
  } else {
    for (auto& sv : pairs) {
      for (int fd : sv) {
        if (fd >= 0) ::close(fd);
      }
    }
  }

  for (pid_t pid : children) {
    int wstatus = 0;
    if (::waitpid(pid, &wstatus, 0) == pid) {
      const bool clean = WIFEXITED(wstatus) && WEXITSTATUS(wstatus) == 0;
      if (!clean && result.status.ok()) {
        result.status = Status::Internal(
            "node process exited with status " + std::to_string(wstatus));
      }
    }
  }
  return result;
}

/// The distributed statusz document: the coordinator's own registry, each
/// node's latest StatsReport snapshot, and the fleet aggregate (counters
/// add, gauges take the worst node, histograms merge bucket-wise).
/// `merge_nodes` is false for loopback runs, where every node thread
/// records into this process's registry — the coordinator snapshot already
/// covers the whole fleet and merging the near-duplicate node reports
/// would double-count.
std::string FleetStatsJson(const dist::DistResult& result, bool merge_nodes) {
  const obs::RegistrySnapshot coordinator =
      obs::Registry::Global().TakeSnapshot();
  obs::RegistrySnapshot fleet = coordinator;
  if (merge_nodes) {
    for (const obs::RegistrySnapshot& node : result.node_stats) {
      fleet.Merge(node);
    }
  }
  std::ostringstream out;
  out << "{\"coordinator\":" << coordinator.ToJson() << ",\"nodes\":[";
  for (std::size_t n = 0; n < result.node_stats.size(); ++n) {
    if (n > 0) out << ",";
    // Splice a "node" id into the snapshot's {"modules":..} object.
    out << "{\"node\":" << n << ","
        << result.node_stats[n].ToJson().substr(1);
  }
  out << "],\"fleet\":" << fleet.ToJson() << "}";
  return out.str();
}

/// Runs `built` on a node fleet and reports it: the shared back end of
/// `dist` and `serve`. `mode` is loopback (node threads in this process)
/// or spawn (forked `node` processes). Handles level= and the fleet group:
/// nodes=, trace_out=, the stats outputs, the serial-reference check
/// (check=1, the default) and out=.
int RunFleet(const Options& args, const DistWorkload& built,
             const std::string& command, const std::string& mode) {
  const serve::Workload& workload = built.workload;
  const std::vector<TransferHop>& hops = built.hops;
  const std::string& statusz = args.String("statusz");
  const bool stats = args.Bool("stats");
  const std::string& stats_out = args.String("stats_out");
  const std::string& trace_out = args.String("trace_out");
  const bool wants_obs = !statusz.empty() || stats || !stats_out.empty();
  if (wants_obs) {
    obs::SetEnabled(true);
    obs::Registry::Global().GetCounter("common", "cli_invocations")->Add(1);
  }

  dist::DistOptions options;
  options.num_nodes = static_cast<int>(std::clamp<std::int64_t>(
      args.Int("nodes"), 1, static_cast<std::int64_t>(workload.sites.size())));
  options.pipeline.level = LevelOf(args);

  // Stats cadence: any metrics output turns on StatsReport frames every
  // stats_every epochs (plus the final report); stats_every=N alone also
  // enables them.
  const std::int64_t stats_every =
      wants_obs || args.Has("stats_every") ? args.Int("stats_every") : 0;
  if (stats_every > 0) {
    obs::SetEnabled(true);
    options.stats_interval_epochs = static_cast<std::uint32_t>(stats_every);
  }

  // Tracing: a loopback run is one process, so one session writes
  // trace_out directly. A spawn run gives the coordinator and every node
  // process its own file, merged onto the fleet timeline afterwards.
  std::vector<std::string> trace_parts;
  if (!trace_out.empty()) {
    const std::string coordinator_trace =
        mode == "spawn" ? trace_out + ".coord.json" : trace_out;
    Status status = obs::Tracer::Global().Start(coordinator_trace);
    if (!status.ok()) return Fail(status);
    obs::Tracer::Global().SetProcessLabel(mode == "spawn" ? "coordinator"
                                                          : command);
    trace_parts.push_back(coordinator_trace);
    if (mode == "spawn") {
      for (int n = 0; n < options.num_nodes; ++n) {
        trace_parts.push_back(trace_out + ".node" + std::to_string(n) +
                              ".json");
      }
    }
  }

  const auto start = std::chrono::steady_clock::now();
  dist::DistResult result;
  if (mode == "loopback") {
    result = dist::RunDistLoopback(workload, hops, options);
  } else {
    result = SpawnDistProcesses(args, built, options, trace_out);
  }
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  if (!trace_out.empty()) {
    Status status = obs::Tracer::Global().Stop();
    if (!status.ok()) return Fail(status);
  }
  if (!result.status.ok()) return Fail(result.status);
  if (!trace_out.empty() && mode == "spawn") {
    // Node files are complete: SpawnDistProcesses waited for every child.
    Status status = obs::MergeTraceFiles(trace_parts, trace_out);
    if (!status.ok()) return Fail(status);
    std::error_code ec;
    for (const std::string& part : trace_parts) {
      std::filesystem::remove(part, ec);
    }
  }

  // Snapshot the fleet metrics before the reference check below runs the
  // whole workload again through this process's registry.
  std::string metrics_json;
  if (wants_obs) {
    metrics_json = options.stats_interval_epochs > 0
                       ? FleetStatsJson(result, mode == "spawn")
                       : obs::Registry::Global().ToJson();
  }

  std::printf(
      "%s (%s): %zu site(s) on %d node(s), %lld epochs -> %zu events, "
      "%zu handoff(s) carrying %zu object(s) in %.3fs\n",
      command.c_str(), mode.c_str(), workload.sites.size(), options.num_nodes,
      static_cast<long long>(workload.num_epochs), result.events.size(),
      result.handoff_hops, result.handoff_objects, wall);

  if (args.Bool("check")) {
    const EventStream reference =
        dist::RunDistReference(workload, hops, options.pipeline);
    if (result.events != reference) {
      std::fprintf(stderr, "%s\n",
                   DiffStreams(result.events, reference, "dist",
                               "serial reference")
                       .c_str());
      return FailText("distributed stream diverges from the serial reference");
    }
    std::printf("check: byte-identical to the serial reference (%zu events)\n",
                reference.size());
  }

  const std::string& out_path = args.String("out");
  if (!out_path.empty()) {
    Status status = WriteEventFile(out_path, result.events);
    if (!status.ok()) return Fail(status);
  }
  if (stats) std::printf("%s\n", metrics_json.c_str());
  Status status = EmitStats(stats_out, statusz, metrics_json);
  if (!status.ok()) return Fail(status);
  if (statusz == "text") {
    for (std::size_t n = 0; n < result.node_stats.size(); ++n) {
      std::printf("node %zu: %zu module(s) reported\n", n,
                  result.node_stats[n].modules.size());
    }
  }
  return 0;
}

int RunDist(const Options& args) {
  auto built = BuildDistWorkload(args);
  if (!built.ok()) return Fail(built.status());
  return RunFleet(args, built.value(), "dist", args.String("mode"));
}

int RunServe(const Options& args) {
  auto workload = BuildServeWorkload(args);
  if (!workload.ok()) return Fail(workload.status());
  DistWorkload built;
  built.workload = std::move(workload).value();
  return RunFleet(args, built, "serve", "loopback");
}

// ------------------------------------------------------- observability

/// One site for `run`: a (trace, deployment) file pair or a fuzz-seed case
/// from the differential checker's generator.
struct RunWorkload {
  ReaderRegistry registry;
  std::vector<EpochReadings> epochs;  ///< Dense, indexed by epoch.
};

Result<RunWorkload> BuildRunWorkload(const Options& args) {
  RunWorkload load;
  const auto in_path = args.String("in");
  const auto deployment_path = args.String("deployment");
  const std::int64_t seed = args.Int("seed");
  if (!in_path.empty() && !deployment_path.empty()) {
    auto site = LoadSite(in_path, deployment_path);
    if (!site.ok()) return site.status();
    load.registry = std::move(site.value().registry);
    load.epochs = std::move(site.value().epochs);
  } else if (seed > 0) {
    auto trace = GenerateTrace(CaseFromSeed(static_cast<std::uint64_t>(seed)));
    if (!trace.ok()) return trace.status();
    load.registry = std::move(trace.value().registry);
    load.epochs = std::move(trace.value().epochs);
  } else {
    return Status::InvalidArgument(
        "run needs in=<trace> deployment=<file> or seed=S");
  }
  return load;
}

/// The CLI is the instrumentation site of the "common" module: the config
/// layer itself sits below obs in the module graph and cannot register.
void RecordCommonInstruments(const Options& args) {
  auto& registry = obs::Registry::Global();
  registry.GetCounter("common", "cli_invocations")->Add(1);
  registry.GetCounter("common", "config_keys")
      ->Add(args.given().Keys().size());
}

int RunRun(const Options& args) {
  obs::SetEnabled(true);
  obs::Registry::Global().Reset();
  RecordCommonInstruments(args);

  const auto trace_out = args.String("trace_out");
  if (!trace_out.empty()) {
    Status status = obs::Tracer::Global().Start(trace_out);
    if (!status.ok()) return Fail(status);
  }

  auto workload = BuildRunWorkload(args);
  if (!workload.ok()) return Fail(workload.status());
  std::vector<EpochReadings>& epochs = workload.value().epochs;

  SpirePipeline pipeline(&workload.value().registry,
                         PipelineOptionsFromArgs(args));
  obs::ExplainLog explain;
  pipeline.SetExplainSink(&explain);

  std::unique_ptr<ArchiveWriter> archive;
  const auto archive_out = args.String("archive_out");
  if (!archive_out.empty()) {
    auto writer = ArchiveWriter::Open(archive_out, {});
    if (!writer.ok()) return Fail(writer.status());
    archive = std::move(writer).value();
    pipeline.SetArchiveSink(archive.get());
  }

  EventStream events;
  std::size_t total_readings = 0;
  for (std::size_t i = 0; i < epochs.size(); ++i) {
    total_readings += epochs[i].size();
    pipeline.ProcessEpoch(static_cast<Epoch>(i), std::move(epochs[i]),
                          &events);
  }
  pipeline.Finish(static_cast<Epoch>(epochs.size()), &events);
  if (archive != nullptr) {
    if (!pipeline.archive_status().ok()) return Fail(pipeline.archive_status());
    Status status = archive->Close();
    if (!status.ok()) return Fail(status);
  }

  const auto out_path = args.String("out");
  if (!out_path.empty()) {
    Status status = WriteEventFile(out_path, events);
    if (!status.ok()) return Fail(status);
  }
  const auto explain_out = args.String("explain_out");
  if (!explain_out.empty()) {
    Status status = explain.WriteJsonl(explain_out);
    if (!status.ok()) return Fail(status);
  }
  std::size_t trace_spans = 0;
  if (!trace_out.empty()) {
    trace_spans = obs::Tracer::Global().num_events();
    Status status = obs::Tracer::Global().Stop();
    if (!status.ok()) return Fail(status);
  }

  std::printf("ran %zu epochs: %zu readings -> %zu events, %zu provenance "
              "records, %zu suppressions, %zu trace spans\n",
              epochs.size(), total_readings, events.size(),
              explain.events().size(), explain.suppressions().size(),
              trace_spans);
  Status status =
      EmitStats("", args.String("statusz"), obs::Registry::Global().ToJson());
  return status.ok() ? 0 : Fail(status);
}

int RunStatusz(const Options& args) {
  obs::SetEnabled(true);
  auto& metrics = obs::Registry::Global();
  metrics.Reset();
  RecordCommonInstruments(args);

  auto trace =
      GenerateTrace(CaseFromSeed(static_cast<std::uint64_t>(args.Int("seed"))));
  if (!trace.ok()) return Fail(trace.status());
  ReaderRegistry& site_registry = trace.value().registry;
  std::vector<EpochReadings>& epochs = trace.value().epochs;

  // SMURF pass over the same readings, so the comparison system's
  // instruments see traffic too.
  SmurfCleaner smurf(&site_registry);
  for (std::size_t i = 0; i < epochs.size(); ++i) {
    smurf.ProcessEpoch(static_cast<Epoch>(i), epochs[i]);
  }

  // SPIRE pass mirrored into a throwaway archive (store instruments).
  std::error_code ec;
  const std::string archive_path =
      (std::filesystem::temp_directory_path(ec) / "spire_statusz.sparc")
          .string();
  std::filesystem::remove(archive_path, ec);
  std::filesystem::remove(IndexPathFor(archive_path), ec);
  auto writer = ArchiveWriter::Open(archive_path, {});
  if (!writer.ok()) return Fail(writer.status());

  SpirePipeline pipeline(&site_registry, PipelineOptionsFromArgs(args));
  pipeline.SetArchiveSink(writer.value().get());
  EventStream events;
  for (std::size_t i = 0; i < epochs.size(); ++i) {
    pipeline.ProcessEpoch(static_cast<Epoch>(i), std::move(epochs[i]),
                          &events);
  }
  pipeline.Finish(static_cast<Epoch>(epochs.size()), &events);
  if (!pipeline.archive_status().ok()) return Fail(pipeline.archive_status());
  Status status = writer.value()->Close();
  if (!status.ok()) return Fail(status);
  std::filesystem::remove(archive_path, ec);
  std::filesystem::remove(IndexPathFor(archive_path), ec);

  if (args.Bool("json")) {
    std::printf("%s\n", metrics.ToJson().c_str());
  } else {
    std::printf("%s", metrics.ToText().c_str());
  }
  return 0;
}

int RunExplain(const Options& args) {
  const auto in_path = args.String("in");
  const std::int64_t id = args.Int("id");
  auto lines = LoadLines(in_path);
  if (!lines.ok()) return Fail(lines.status());
  const std::string id_text = std::to_string(id);
  for (const std::string& line : lines.value()) {
    if (line.empty()) continue;
    auto parsed = obs::ParseJson(line);
    if (!parsed.ok()) return Fail(parsed.status());
    const obs::JsonValue& record = parsed.value();
    const obs::JsonValue* kind = record.Find("kind");
    const obs::JsonValue* record_id = record.Find("id");
    if (kind == nullptr || kind->text != "event" || record_id == nullptr ||
        record_id->text != id_text) {
      continue;
    }
    auto text_of = [&record](const char* key) -> std::string {
      const obs::JsonValue* value = record.Find(key);
      return value == nullptr ? std::string("?") : value->text;
    };
    const obs::JsonValue* complete = record.Find("complete_inference");
    std::printf("%s\n", record.Serialize().c_str());
    std::printf(
        "event %lld: %s object=%s location=%s container=%s [%s, %s)\n"
        "  emitted by stage '%s' at epoch %s after %s inference "
        "(%s waves)\n"
        "  winning posterior %s vs runner-up %s\n",
        static_cast<long long>(id), text_of("type").c_str(),
        text_of("object").c_str(), text_of("location").c_str(),
        text_of("container").c_str(), text_of("start").c_str(),
        text_of("end").c_str(), text_of("stage").c_str(),
        text_of("epoch").c_str(),
        (complete != nullptr && complete->bool_value) ? "complete" : "partial",
        text_of("inference_waves").c_str(),
        text_of("winner_posterior").c_str(),
        text_of("runner_up_posterior").c_str());
    return 0;
  }
  std::fprintf(stderr, "no provenance record for event %lld in %s\n",
               static_cast<long long>(id), in_path.c_str());
  return 1;
}

Result<std::string> ReadWholeFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::NotFound("cannot open: " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  if (!in.good() && !in.eof()) return Status::Internal("read failed: " + path);
  return buffer.str();
}

/// `merge-traces in=a.json,b.json[,..] out=merged.json` — stitches
/// per-process fleet trace files onto one timeline (obs/merge_trace.h).
int RunMergeTraces(const Options& args) {
  const auto in = args.String("in");
  const auto out = args.String("out");
  const std::vector<std::string> paths = SplitCommaList(in);
  Status status = obs::MergeTraceFiles(paths, out);
  if (!status.ok()) return Fail(status);
  std::printf("merged %zu trace(s) -> %s\n", paths.size(), out.c_str());
  return 0;
}

/// A registry dump's query cache counters, when it has them: each hit and
/// miss total equals the sum of its stay-entry and block-entry split, and
/// each stay total the sum of its object, container and location split.
Status CheckQueryCacheSplit(const obs::JsonValue& modules) {
  const obs::JsonValue* query = modules.Find("query");
  const obs::JsonValue* counters =
      query == nullptr ? nullptr : query->Find("counters");
  if (counters == nullptr) return Status::OK();
  // Each total, then the parts that must add up to it.
  const std::vector<std::vector<std::string>> splits = {
      {"cache_hits", "cache_stay_hits", "cache_block_hits"},
      {"cache_misses", "cache_stay_misses", "cache_block_misses"},
      {"cache_stay_hits", "cache_object_hits", "cache_container_hits",
       "cache_location_hits"},
      {"cache_stay_misses", "cache_object_misses", "cache_container_misses",
       "cache_location_misses"}};
  for (const std::vector<std::string>& split : splits) {
    std::vector<const obs::JsonValue*> parts;
    for (const std::string& name : split) parts.push_back(counters->Find(name));
    if (std::all_of(parts.begin(), parts.end(),
                    [](const obs::JsonValue* part) { return part == nullptr; })) {
      continue;
    }
    std::vector<unsigned long long> values(parts.size(), 0);
    for (std::size_t i = 0; i < parts.size(); ++i) {
      if (parts[i] == nullptr ||
          parts[i]->type != obs::JsonValue::Type::kNumber ||
          std::sscanf(parts[i]->text.c_str(), "%llu", &values[i]) != 1) {
        return Status::InvalidArgument("query " + split[0] +
                                       " needs numeric counters for its split");
      }
    }
    unsigned long long sum = 0;
    std::string names;
    for (std::size_t i = 1; i < parts.size(); ++i) {
      sum += values[i];
      names += (i > 1 ? " + " : "") + split[i];
    }
    if (sum != values[0]) {
      return Status::InvalidArgument("query " + names + " != " + split[0]);
    }
  }
  return Status::OK();
}

int RunObscheck(const Options& args) {
  const auto trace_path = args.String("trace");
  const auto metrics_path = args.String("metrics");
  const auto explain_path = args.String("explain");
  if (trace_path.empty() && metrics_path.empty() && explain_path.empty()) {
    return FailText(
        "obscheck needs trace=<trace.json>, metrics=<metrics.json>, and/or "
        "explain=<log.spexp>");
  }

  if (!trace_path.empty()) {
    auto text = ReadWholeFile(trace_path);
    if (!text.ok()) return Fail(text.status());
    auto parsed = obs::ParseJson(text.value());
    if (!parsed.ok()) return Fail(parsed.status());
    const obs::JsonValue* events = parsed.value().Find("traceEvents");
    if (events == nullptr || events->type != obs::JsonValue::Type::kArray ||
        events->array.empty()) {
      return FailText(trace_path + ": no traceEvents");
    }
    std::set<std::string> names;
    for (const obs::JsonValue& event : events->array) {
      const obs::JsonValue* name = event.Find("name");
      const obs::JsonValue* phase = event.Find("ph");
      if (name == nullptr || name->type != obs::JsonValue::Type::kString ||
          phase == nullptr ||
          phase->type != obs::JsonValue::Type::kString) {
        return FailText(trace_path + ": malformed trace event");
      }
      // Three shapes are valid: complete spans ('X'), the async 'b'/'e'
      // pairs of cross-node handoff spans, and the process_name metadata
      // ('M') a merged fleet trace carries.
      if (phase->text == "X") {
        if (event.Find("ts") == nullptr || event.Find("dur") == nullptr ||
            event.Find("pid") == nullptr || event.Find("tid") == nullptr) {
          return FailText(trace_path + ": malformed complete span");
        }
      } else if (phase->text == "b" || phase->text == "e") {
        if (event.Find("ts") == nullptr || event.Find("pid") == nullptr ||
            event.Find("tid") == nullptr || event.Find("id") == nullptr) {
          return FailText(trace_path + ": malformed async span event");
        }
      } else if (phase->text == "M") {
        if (event.Find("pid") == nullptr || event.Find("args") == nullptr) {
          return FailText(trace_path + ": malformed metadata event");
        }
        continue;  // Metadata names (process_name) are not span names.
      } else {
        return FailText(trace_path + ": unknown event phase '" +
                        phase->text + "'");
      }
      names.insert(name->text);
    }
    // Every single-pipeline stage by default; `require=` overrides (e.g.
    // serve traces carry shard/merge spans but no archive_append).
    std::vector<std::string> required = {
        "epoch",    "smooth",   "graph_update", "inference",
        "conflict", "compress", "archive_append"};
    const auto require_arg = args.String("require");
    if (!require_arg.empty()) required = SplitCommaList(require_arg);
    for (const std::string& name : required) {
      if (names.count(name) == 0) {
        return FailText(trace_path + ": missing span '" + name + "'");
      }
    }
    std::printf("trace ok: %s (%zu events, %zu span names)\n",
                trace_path.c_str(), events->array.size(), names.size());
  }

  if (!metrics_path.empty()) {
    auto text = ReadWholeFile(metrics_path);
    if (!text.ok()) return Fail(text.status());
    auto parsed = obs::ParseJson(text.value());
    if (!parsed.ok()) return Fail(parsed.status());
    const obs::JsonValue* modules = parsed.value().Find("modules");
    if (modules != nullptr &&
        (modules->type != obs::JsonValue::Type::kObject ||
         modules->object.empty())) {
      return FailText(metrics_path + ": empty modules object");
    }
    // The distributed statusz shape: a fleet aggregate plus per-node
    // registries, each carrying its own modules object.
    const obs::JsonValue* fleet = parsed.value().Find("fleet");
    const obs::JsonValue* nodes = parsed.value().Find("nodes");
    std::string shape;
    if (fleet != nullptr || nodes != nullptr) {
      const obs::JsonValue* fleet_modules =
          fleet == nullptr ? nullptr : fleet->Find("modules");
      if (fleet_modules == nullptr ||
          fleet_modules->type != obs::JsonValue::Type::kObject ||
          fleet_modules->object.empty()) {
        return FailText(metrics_path + ": fleet without modules");
      }
      if (nodes == nullptr || nodes->type != obs::JsonValue::Type::kArray) {
        return FailText(metrics_path + ": fleet metrics without nodes array");
      }
      for (const obs::JsonValue& node : nodes->array) {
        const obs::JsonValue* node_modules = node.Find("modules");
        if (node.Find("node") == nullptr || node_modules == nullptr ||
            node_modules->type != obs::JsonValue::Type::kObject) {
          return FailText(metrics_path + ": malformed node registry entry");
        }
      }
      shape = "fleet + " + std::to_string(nodes->array.size()) + " nodes";
    } else {
      shape = modules != nullptr
                  ? std::to_string(modules->object.size()) + " modules"
                  : std::string("no modules key");
    }
    if (modules != nullptr) {
      Status split = CheckQueryCacheSplit(*modules);
      if (!split.ok()) return FailText(metrics_path + ": " + split.message());
    }
    auto round_trip = obs::ParseJson(parsed.value().Serialize());
    if (!round_trip.ok()) return Fail(round_trip.status());
    if (!(round_trip.value() == parsed.value())) {
      return FailText(metrics_path + ": parse -> serialize -> parse mismatch");
    }
    std::printf("metrics ok: %s (%s, round-trips)\n", metrics_path.c_str(),
                shape.c_str());
  }

  if (!explain_path.empty()) {
    auto lines = LoadLines(explain_path);
    if (!lines.ok()) return Fail(lines.status());
    std::size_t events = 0, suppressions = 0, matches = 0;
    for (const std::string& line : lines.value()) {
      if (line.empty()) continue;
      auto parsed = obs::ParseJson(line);
      if (!parsed.ok()) return Fail(parsed.status());
      const obs::JsonValue* kind = parsed.value().Find("kind");
      if (kind == nullptr || kind->type != obs::JsonValue::Type::kString) {
        return FailText(explain_path + ": record without kind");
      }
      if (kind->text == "event") {
        ++events;
      } else if (kind->text == "suppressed") {
        ++suppressions;
      } else if (kind->text == "match") {
        const obs::JsonValue* pattern = parsed.value().Find("pattern");
        const obs::JsonValue* ids = parsed.value().Find("event_ids");
        if (pattern == nullptr ||
            pattern->type != obs::JsonValue::Type::kString || ids == nullptr ||
            ids->type != obs::JsonValue::Type::kArray) {
          return FailText(explain_path + ": malformed match record");
        }
        ++matches;
      } else {
        return FailText(explain_path + ": unknown kind '" + kind->text + "'");
      }
    }
    std::printf("explain ok: %s (%zu events, %zu suppressions, %zu matches)\n",
                explain_path.c_str(), events, suppressions, matches);
  }
  return 0;
}

// ---------------------------------------------------------------- detect

Result<std::vector<cep::Pattern>> DetectPatterns(const Options& args) {
  const auto expr = args.String("pattern");
  const auto file = args.String("patterns");
  if (expr.empty() == file.empty()) {
    return Status::InvalidArgument(
        "detect needs exactly one of pattern=<expr> or "
        "patterns=library|<file>");
  }
  if (!expr.empty()) {
    auto parsed = cep::ParsePattern(expr, "pattern");
    if (!parsed.ok()) return parsed.status();
    return std::vector<cep::Pattern>{std::move(parsed).value()};
  }
  if (file == "library") return cep::BuiltinLibrary();
  auto text = ReadWholeFile(file);
  if (!text.ok()) return text.status();
  return cep::ParsePatternFileLines(text.value());
}

/// The stream to detect over, its evaluation bounds, and (when a
/// deployment or generated trace supplies one) the registry resolving the
/// patterns' location names.
struct DetectInput {
  EventStream events;
  std::optional<ReaderRegistry> registry;
  cep::EvalBounds bounds;
  std::string source;
};

Result<DetectInput> BuildDetectInput(const Options& args) {
  DetectInput input;
  const std::int64_t seed = args.Int("seed");
  const auto in_path = args.String("in");
  const auto archive_path = args.String("archive");
  const bool run_pipeline =
      seed > 0 || (!in_path.empty() && in_path.ends_with(".sptr"));

  if (run_pipeline) {
    auto workload = BuildRunWorkload(args);
    if (!workload.ok()) return workload.status();
    SpirePipeline pipeline(&workload.value().registry,
                           PipelineOptionsFromArgs(args));
    std::vector<EpochReadings>& epochs = workload.value().epochs;
    for (std::size_t i = 0; i < epochs.size(); ++i) {
      pipeline.ProcessEpoch(static_cast<Epoch>(i), std::move(epochs[i]),
                            &input.events);
    }
    pipeline.Finish(static_cast<Epoch>(epochs.size()), &input.events);
    input.registry = std::move(workload.value().registry);
    input.source = seed > 0 ? "seed " + std::to_string(seed) : in_path;
    input.bounds = cep::BoundsOf(input.events);
    return input;
  }

  const auto deployment_path = args.String("deployment");
  if (!deployment_path.empty()) {
    auto lines = LoadLines(deployment_path);
    if (!lines.ok()) return lines.status();
    auto registry = ParseDeployment(lines.value());
    if (!registry.ok()) return registry.status();
    input.registry = std::move(registry).value();
  }

  if (!archive_path.empty()) {
    auto reader = ArchiveReader::Open(archive_path);
    if (!reader.ok()) return reader.status();
    const Epoch from = args.Int("from");
    const Epoch to = args.Int("to");
    Result<EventStream> scanned = (from != 0 || to != kInfiniteEpoch)
                                      ? reader.value().ScanRange(from, to)
                                      : reader.value().ScanAll();
    if (!scanned.ok()) return scanned.status();
    // Range restriction can orphan End messages; repair keeps the subset
    // well-formed so it indexes like a live stream.
    input.events = RepairRestrictedStream(scanned.value());
    input.bounds = cep::BoundsOf(input.events);
    input.bounds.lo = std::max(input.bounds.lo, from);
    input.bounds.hi = std::min(input.bounds.hi, to);
    input.source = archive_path;
    return input;
  }

  if (in_path.empty()) {
    return Status::InvalidArgument(
        "detect needs seed=S, in=<trace.sptr> deployment=<file>, "
        "in=<events.spev>, or archive=<events.sparc>");
  }
  auto events = ReadEventFile(in_path);
  if (!events.ok()) return events.status();
  input.events = std::move(events).value();
  input.bounds = cep::BoundsOf(input.events);
  input.source = in_path;
  return input;
}

int RunDetect(const Options& args) {
  auto patterns = DetectPatterns(args);
  if (!patterns.ok()) return Fail(patterns.status());
  auto input = BuildDetectInput(args);
  if (!input.ok()) return Fail(input.status());
  const ReaderRegistry* registry =
      input.value().registry ? &*input.value().registry : nullptr;

  const std::string& eval = args.String("eval");
  const std::int64_t print_limit = args.Int("print");

  // The interval evaluator works on the compressed stream as-is; the naive
  // reference needs the decompressed per-epoch view.
  std::optional<cep::CompressedLog> compressed;
  std::optional<EventLog> naive_log;
  if (eval != "naive") {
    auto built = cep::CompressedLog::Build(input.value().events);
    if (!built.ok()) return Fail(built.status());
    compressed = std::move(built).value();
  }
  if (eval != "interval") {
    auto built = EventLog::Build(input.value().events, /*decompress=*/true);
    if (!built.ok()) return Fail(built.status());
    naive_log = std::move(built).value();
  }

  obs::ExplainLog explain;
  std::size_t total = 0;
  for (const cep::Pattern& pattern : patterns.value()) {
    auto compiled = cep::Compile(pattern, registry);
    if (!compiled.ok()) return Fail(compiled.status());
    std::vector<cep::Match> matches;
    if (eval != "naive") {
      matches = cep::EvaluateCompressed(compiled.value(), &*compressed,
                                        input.value().bounds);
    }
    if (eval != "interval") {
      std::vector<cep::Match> naive = cep::EvaluateNaive(
          compiled.value(), *naive_log, input.value().bounds);
      if (eval == "naive") {
        matches = std::move(naive);
      } else {
        const std::string diff =
            cep::DiffMatchSets(matches, naive, "interval", "naive");
        if (!diff.empty()) {
          return FailText("evaluator divergence on '" + pattern.name +
                          "': " + diff);
        }
      }
    }
    std::printf("%s: %zu match(es)\n", pattern.name.c_str(), matches.size());
    for (std::size_t i = 0;
         i < matches.size() && i < static_cast<std::size_t>(print_limit);
         ++i) {
      std::printf("  %s\n",
                  cep::ToString(compiled.value(), matches[i]).c_str());
    }
    for (const cep::Match& match : matches) {
      explain.RecordMatch({match.pattern, compiled.value().vars,
                           match.binding, match.step_epochs, match.completion,
                           match.event_ids});
    }
    total += matches.size();
  }

  const auto explain_out = args.String("explain_out");
  if (!explain_out.empty()) {
    Status status = explain.WriteJsonl(explain_out);
    if (!status.ok()) return Fail(status);
  }
  std::printf("total_matches=%zu over %s%s\n", total,
              input.value().source.c_str(),
              eval == "check" ? " (evaluators agree)" : "");
  if (args.Bool("require_matches") && total == 0) {
    return FailText("require_matches=true but no pattern matched");
  }
  return 0;
}

// ------------------------------------------------------------ the table

struct Command {
  const char* name;
  Keys keys;
  int (*run)(const Options& args);
};

const std::vector<Command> kCommands = {
    {"generate",
     Join({{Required(kOut), Required(kDeployment), StringOption("truth")},
           SimConfig::Keys()}),
     RunGenerate},
    {"process",
     Join({{Required(kIn), Required(kDeployment), Required(kOut)}, kPipeline}),
     RunProcess},
    {"decompress", {Required(kIn), Required(kOut)}, RunDecompress},
    {"validate", {Required(kIn)}, RunValidate},
    {"stats", {Required(kIn)}, RunStats},
    {"query",
     {Required(kIn), IntOption("epoch", 0), kObject,
      BoolOption("decompress", false)},
     RunQuery},
    {"archive", Join({{Required(kIn), Required(kOut)}, kWriter}), RunArchive},
    {"scan", {Required(kIn), kFrom, kTo, kObject, kOut, kMmap}, RunScan},
    {"compact", Join({{Required(kIn), Required(kOut)}, kWriter}), RunCompact},
    {"queryserve",
     {Required(kIn), StringOption("requests"), IntOption("count", 10000, 1),
      kSeed, IntOption("threads", 1, 1, INT_MAX),
      IntOption("passes", 1, 1, INT_MAX),
      IntOption("cache_mb", 64, 0), BoolOption("check", false), kMmap,
      kStatsOut, kStatusz},
     RunQueryserve},
    {"serve", Join({{kIn, kDeployment, kSites, kSeed, kLevel}, kFleet}),
     RunServe},
    {"dist",
     Join({{EnumOption("mode", "loopback", {"loopback", "spawn"})}, kWorkload,
           kFleet}),
     RunDist},
    {"node",
     Join({{Required(IntOption("node_id", 0, 0, INT_MAX)), Required(kNodes),
            Required(IntOption("fd", 0, 0, INT_MAX)), kTraceOut},
           kWorkload}),
     RunNode},
    {"run",
     Join({{kIn, kDeployment, kInputSeed, kOut, kTraceOut, kExplainOut,
            StringOption("archive_out"), kStatusz},
           kPipeline}),
     RunRun},
    {"statusz", Join({{kSeed, BoolOption("json", false)}, kPipeline}),
     RunStatusz},
    {"explain", {Required(kIn), Required(IntOption("id", 0, 0))}, RunExplain},
    {"obscheck",
     {StringOption("trace"), StringOption("metrics"), StringOption("explain"),
      StringOption("require")},
     RunObscheck},
    {"merge-traces", {Required(kIn), Required(kOut)}, RunMergeTraces},
    {"detect",
     Join({{StringOption("pattern"), StringOption("patterns"), kInputSeed, kIn,
            kDeployment, StringOption("archive"), kFrom, kTo,
            EnumOption("eval", "interval", {"interval", "naive", "check"}),
            IntOption("print", 5, 0), kExplainOut,
            BoolOption("require_matches", false)},
           kPipeline}),
     RunDetect},
};

/// Prints every command's keys (or only `only`'s) as key=default, an
/// enum's choices default first.
void PrintUsage(const Command* only) {
  std::fprintf(stderr, "usage: spire_cli <command> [key=value ...]\n"
                       "(dist and node default the SimConfig keys from the "
                       "seed's fuzz case)\n");
  for (const Command& command : kCommands) {
    if (only != nullptr && only != &command) continue;
    std::string line = "  " + std::string(command.name);
    line.resize(15, ' ');
    for (const OptionSpec& key : command.keys) {
      const std::string token = FormatOption(key);
      if (line.size() + token.size() > 78) {
        std::fprintf(stderr, "%s\n", line.c_str());
        line.assign(15, ' ');
      }
      line += " " + token;
    }
    std::fprintf(stderr, "%s\n", line.c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  const Command* command = nullptr;
  for (const Command& candidate : kCommands) {
    if (argc >= 2 && std::strcmp(argv[1], candidate.name) == 0) {
      command = &candidate;
    }
  }
  if (command == nullptr) {
    if (argc >= 2) FailText(std::string("unknown command: ") + argv[1]);
    PrintUsage(nullptr);
    return 1;
  }
  // `--stats` is sugar for `stats=true` (the one flag-style option);
  // `explain <event-id>` accepts the id as a bare integer.
  std::vector<std::string> lines;
  for (int i = 2; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--stats") {
      arg = "stats=true";
    } else if (std::strcmp(command->name, "explain") == 0 && !arg.empty() &&
               arg.find_first_not_of("0123456789") == std::string::npos) {
      arg = "id=" + arg;
    }
    lines.push_back(std::move(arg));
  }
  auto given = Config::FromLines(lines);
  if (!given.ok()) return Fail(given.status());
  auto args = Options::Parse(command->keys, given.value());
  if (!args.ok()) {
    Fail(args.status());
    PrintUsage(command);
    return 1;
  }
  return command->run(args.value());
}
