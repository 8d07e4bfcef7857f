// ingest_large and ingest_churn: raw readings in, compressed events out and
// archived, one feeder thread replaying pre-generated epochs back to back
// (a closed loop; at the physical rate of one epoch per second nothing
// would queue, so per-epoch processing time is the event latency).
#include <cmath>
#include <filesystem>
#include <fstream>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "compress/decompress.h"
#include "compress/well_formed.h"
#include "eval/event_accuracy.h"
#include "obs/trace.h"
#include "sim/simulator.h"
#include "spire/pipeline.h"
#include "store/archive_reader.h"
#include "store/archive_writer.h"
#include "workloads.h"

namespace perfbench {

namespace {

using spire::Epoch;

struct Shape {
  spire::SimConfig sim;
  /// Epochs replayed during setup until the object population is steady.
  Epoch warmup_epochs = 0;
  /// Epochs per throughput chunk: a multiple of the complete-inference
  /// period, so every chunk holds the same number of complete passes.
  Epoch chunk_epochs = 0;
  /// Trace sizing: more epochs per second than the measured window can
  /// consume, so the window never runs out of input.
  double max_epochs_per_second = 0.0;
  /// The latency_tail_us percentile: the highest that work, not host
  /// jitter, sets (README.md).
  double tail_percentile = 99.0;
  /// Set-ups per run; setup_s is the median of the steal-quieter half.
  int setups = 5;
};

/// The load generator's output. Each epoch's readings go to a file in the
/// scratch directory as they are simulated and are read back one epoch at a
/// time as they are fed: held in memory, the trace (~35 KB an epoch on
/// ingest_large) would make up most of the peak RSS and tie it to the
/// window's length.
struct Trace {
  std::unique_ptr<spire::WarehouseSimulator> sim;  // Owns the registry.
  std::vector<Epoch> epochs;
  /// Readings of epoch i: where they start in the file, and how many.
  std::vector<std::uint64_t> offsets;
  std::vector<std::size_t> counts;
  /// Ground-truth events recorded through epoch i (inclusive).
  std::vector<std::size_t> truth_size;
  std::string path;
  std::ifstream file;

  std::size_t size() const { return epochs.size(); }

  spire::EpochReadings Load(std::size_t i) {
    spire::EpochReadings readings(counts[i]);
    file.seekg(static_cast<std::streamoff>(offsets[i]));
    file.read(reinterpret_cast<char*>(readings.data()),
              static_cast<std::streamsize>(counts[i] *
                                           sizeof(spire::RfidReading)));
    if (!file) throw std::runtime_error("cannot read the trace " + path);
    return readings;
  }
};

static_assert(std::is_trivially_copyable_v<spire::RfidReading>);

Trace Generate(const Shape& shape, std::uint64_t seed, double seconds,
               const std::string& path) {
  spire::SimConfig config = shape.sim;
  config.seed = seed;
  const Epoch total =
      shape.warmup_epochs +
      static_cast<Epoch>(std::ceil(seconds * shape.max_epochs_per_second));
  config.duration_epochs = total + 1;
  auto sim = spire::WarehouseSimulator::Create(config);
  if (!sim.ok()) throw std::runtime_error(sim.status().ToString());
  Trace trace;
  trace.sim = std::move(sim).value();
  trace.path = path;
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  std::uint64_t offset = 0;
  for (Epoch e = 0; e < total; ++e) {
    const spire::EpochReadings readings = trace.sim->Step();
    const std::size_t bytes = readings.size() * sizeof(spire::RfidReading);
    out.write(reinterpret_cast<const char*>(readings.data()),
              static_cast<std::streamsize>(bytes));
    trace.offsets.push_back(offset);
    trace.counts.push_back(readings.size());
    offset += bytes;
    trace.epochs.push_back(trace.sim->current_epoch());
    trace.truth_size.push_back(trace.sim->truth_events().size());
  }
  out.close();
  if (!out) throw std::runtime_error("cannot write the trace " + path);
  trace.file.open(path, std::ios::binary);
  if (!trace.file) throw std::runtime_error("cannot open the trace " + path);
  return trace;
}

/// What one epoch emitted, kept for the gate in place of the events: a
/// retained stream would grow with the window and tie peak RSS (and its
/// reallocations inside ProcessEpoch) to throughput.
struct EpochOutput {
  std::size_t events = 0;
  std::uint64_t hash = 0;
};

/// FNV-1a over every field of `count` events from `first`.
std::uint64_t HashEvents(const spire::Event* first, std::size_t count) {
  std::uint64_t hash = kFnvOffset;
  for (const spire::Event* e = first; e != first + count; ++e) {
    hash = FnvMix(hash, static_cast<std::uint64_t>(e->type));
    hash = FnvMix(hash, e->object);
    hash = FnvMix(hash, e->location);
    hash = FnvMix(hash, e->container);
    hash = FnvMix(hash, static_cast<std::uint64_t>(e->start));
    hash = FnvMix(hash, static_cast<std::uint64_t>(e->end));
  }
  return hash;
}

/// The system under test: pipeline plus archive writer.
struct Sut {
  std::string path;
  std::unique_ptr<spire::ArchiveWriter> writer;
  std::unique_ptr<spire::SpirePipeline> pipeline;
  spire::EventStream out;  ///< One epoch's events; cleared after each.
  std::vector<EpochOutput> epochs;
  std::size_t events = 0;
  std::size_t raw_readings = 0;

  /// Records and clears what the last call emitted.
  void Collect() {
    epochs.push_back(
        EpochOutput{out.size(), HashEvents(out.data(), out.size())});
    events += out.size();
    out.clear();
  }
};

void Process(Sut* sut, Epoch epoch, spire::EpochReadings readings) {
  sut->raw_readings += readings.size();
  spire::obs::ScopedSpan span("bench", "process_epoch", epoch);
  sut->pipeline->ProcessEpoch(epoch, std::move(readings), &sut->out);
  sut->Collect();
}

/// Constructs the pipeline and archive writer and replays the warm-up
/// epochs; returns the seconds that took. `warmup` is consumed.
double Setup(const Trace& trace, std::vector<spire::EpochReadings> warmup,
             const std::string& path, Sut* sut) {
  RemoveArchive(path);
  const double start = NowSeconds();
  sut->path = path;
  // One record per epoch the trace holds, so recording never reallocates.
  sut->epochs.reserve(trace.size() + 1);
  auto writer = spire::ArchiveWriter::Open(path);
  if (!writer.ok()) throw std::runtime_error(writer.status().ToString());
  sut->writer = std::move(writer).value();
  sut->pipeline = std::make_unique<spire::SpirePipeline>(
      &trace.sim->registry(), spire::PipelineOptions{});
  sut->pipeline->SetArchiveSink(sut->writer.get());
  for (std::size_t i = 0; i < warmup.size(); ++i) {
    Process(sut, trace.epochs[i], std::move(warmup[i]));
  }
  return NowSeconds() - start;
}

struct Window {
  std::vector<Chunk> chunks;  ///< ops = raw readings, latency per epoch.
  std::size_t epochs = 0;
  double wall_s = 0.0;
  /// Over the window alone, sampled as it closes.
  double peak_rss_mb = 0.0;
};

/// Feeds epochs from `*next` on, back to back, until `seconds` have passed
/// (or the trace has no whole chunk left). Epochs that ran complete inference are added to
/// `complete` unless it is null.
Window Measure(Trace* trace, std::size_t* next, double seconds,
               Epoch chunk_epochs, Sut* sut, std::set<Epoch>* complete) {
  Window window;
  // Every chunk the rest of the trace can fill, touched before the window
  // opens: the memory the window touches must not grow with its speed.
  window.chunks.resize((trace->size() - *next) /
                       static_cast<std::size_t>(chunk_epochs));
  std::size_t chunks = 0;
  ResetPeakRss();
  const double start = NowSeconds();
  double now = start;
  double chunk_start = start;
  double chunk_cpu = ProcessCpuSeconds();
  double chunk_steal = HostStealSeconds();
  // A chunk the trace can fill is open: the trace holds the epochs.
  while (chunks < window.chunks.size() && now - start < seconds) {
    const std::size_t i = (*next)++;
    spire::EpochReadings input = trace->Load(i);
    const std::size_t readings = input.size();
    const double before = NowSeconds();
    Process(sut, trace->epochs[i], std::move(input));
    now = NowSeconds();
    Chunk& chunk = window.chunks[chunks];
    chunk.latency_us.Add((now - before) * 1e6);
    chunk.ops += readings;
    if (complete != nullptr && sut->pipeline->last_epoch_complete()) {
      complete->insert(trace->epochs[i]);
    }
    if (++window.epochs % static_cast<std::size_t>(chunk_epochs) == 0) {
      const double cpu = ProcessCpuSeconds();
      const double steal = HostStealSeconds();
      chunk.wall_s = now - chunk_start;
      chunk.cpu_s = cpu - chunk_cpu;
      chunk.steal_s = steal - chunk_steal;
      ++chunks;
      chunk_start = now;
      chunk_cpu = cpu;
      chunk_steal = steal;
    }
  }
  window.chunks.resize(chunks);
  window.wall_s = now - start;
  window.peak_rss_mb = PeakRssMb();
  if (chunks < 2) {
    throw std::runtime_error("measured window shorter than two chunks");
  }
  return window;
}

/// Per-layer metrics of the inference stage, split by pass kind.
void ReportInference(const std::vector<Span>& spans,
                     const std::set<Epoch>& complete, Report* report) {
  std::vector<double> partial_us, complete_us;
  std::size_t waves_in_complete = 0;
  for (const Span& span : spans) {
    const bool is_complete = complete.count(span.epoch) > 0;
    if (span.name == "pipeline/inference") {
      (is_complete ? complete_us : partial_us).push_back(span.dur_us);
    } else if (span.name == "inference/wave" && is_complete) {
      ++waves_in_complete;
    }
  }
  report->Set("inference.partial_us_p50", Median(partial_us));
  report->Set("inference.complete_us_p50", Median(complete_us));
  const double complete_passes = static_cast<double>(complete_us.size());
  report->Set("inference.waves_per_complete",
              complete_passes > 0 ? waves_in_complete / complete_passes : 0.0);
}

/// The correctness gates, outside every timed region: the archive read
/// back holds, epoch by epoch, exactly what ProcessEpoch emitted (the
/// events Finish() closed with count as one more epoch), and the stream is
/// well-formed. Returns the stream read back.
spire::EventStream CheckOutput(const Sut& sut, Report* report) {
  report->attempted += sut.epochs.size();
  auto reader = spire::ArchiveReader::Open(sut.path);
  if (!reader.ok()) {
    report->Fail(sut.epochs.size(),
                 "archive open: " + reader.status().ToString());
    return {};
  }
  auto archived = reader.value().ScanAll();
  if (!archived.ok()) {
    report->Fail(sut.epochs.size(),
                 "archive scan: " + archived.status().ToString());
    return {};
  }
  spire::EventStream back = std::move(archived).value();
  std::size_t begin = 0, mismatched = 0;
  for (const EpochOutput& epoch : sut.epochs) {
    if (begin + epoch.events > back.size() ||
        HashEvents(back.data() + begin, epoch.events) != epoch.hash) {
      ++mismatched;
    }
    begin += epoch.events;
  }
  if (back.size() != sut.events) ++mismatched;  // Events never emitted.
  if (mismatched > 0) {
    report->Fail(mismatched, std::to_string(mismatched) +
                                 " epochs read back from the archive differ "
                                 "from what the pipeline emitted");
  }
  const spire::Status well_formed = spire::ValidateWellFormed(back);
  if (!well_formed.ok()) {
    report->Fail(1, "output stream: " + well_formed.ToString());
  }
  return back;
}

/// Event F-measure of the decompressed, entry-stripped output against the
/// ground truth recorded through the last of the `processed` epochs.
double EventF1(const Trace& trace, const spire::EventStream& output_stream,
               std::size_t processed) {
  const spire::LocationId door = trace.sim->layout().entry_door;
  const spire::EventStream& all_truth = trace.sim->truth_events();
  const spire::EventStream truth_prefix(
      all_truth.begin(),
      all_truth.begin() +
          static_cast<std::ptrdiff_t>(trace.truth_size[processed - 1]));
  const spire::EventStream output = spire::StripLocationEvents(
      spire::Decompressor::DecompressAll(output_stream), door);
  const spire::EventStream truth =
      spire::StripLocationEvents(truth_prefix, door);
  return spire::CompareEventStreams(output, truth, spire::EventClass::kAll)
      .FMeasure();
}

Report RunIngest(const Args& args, const Shape& shape) {
  Report report;
  Trace trace =
      Generate(shape, args.seed, args.seconds, args.tmp_dir + "/trace.bin");
  const std::size_t warmup = static_cast<std::size_t>(shape.warmup_epochs);

  // Set up several times and keep the last system.
  std::vector<SetupTime> setups;
  Sut sut;
  for (int k = 0; k < shape.setups; ++k) {
    std::vector<spire::EpochReadings> input;
    for (std::size_t i = 0; i < warmup; ++i) input.push_back(trace.Load(i));
    Sut candidate;
    const double steal = HostStealSeconds();
    const double wall = Setup(trace, std::move(input),
                              args.tmp_dir + "/ingest.sparc", &candidate);
    setups.push_back(SetupTime{wall, HostStealSeconds() - steal});
    if (k + 1 == shape.setups) sut = std::move(candidate);
  }

  std::size_t next = warmup;
  Window window;
  if (!args.trace) {
    window = Measure(&trace, &next, args.seconds, shape.chunk_epochs, &sut,
                     nullptr);
  } else {
    // Untraced half, then traced half: their throughput ratio is the
    // tracing overhead.
    const Window plain = Measure(&trace, &next, args.seconds / 2,
                                 shape.chunk_epochs, &sut, nullptr);
    TraceSession session(args.tmp_dir + "/trace.json");
    session.Start();
    const std::size_t events_before = sut.events;
    const std::size_t readings_before = sut.raw_readings;
    std::set<Epoch> complete;
    window = Measure(&trace, &next, args.seconds / 2, shape.chunk_epochs, &sut,
                     &complete);
    const std::vector<Span> spans = session.Finish();
    ReportStages(PipelineLedger(spans), /*check_ledger=*/true, &report);
    ReportInference(spans, complete, &report);
    report.Set("graph.live_nodes",
               static_cast<double>(sut.pipeline->graph().NumNodes()));
    report.Set("graph.edges",
               static_cast<double>(sut.pipeline->graph().NumEdges()));
    report.Set("compress.events_per_reading",
               static_cast<double>(sut.events - events_before) /
                   static_cast<double>(sut.raw_readings - readings_before));
    report.Set("obs.trace_overhead_ratio",
               Summarize(window.chunks, shape.tail_percentile).ops_per_s /
                   Summarize(plain.chunks, shape.tail_percentile).ops_per_s);
  }

  const Epoch last_epoch = trace.epochs[next - 1];
  sut.pipeline->Finish(last_epoch + 1, &sut.out);
  sut.Collect();
  if (!sut.pipeline->archive_status().ok()) {
    report.Fail(1, "archive sink: " +
                       sut.pipeline->archive_status().ToString());
  }
  const spire::Status closed = sut.writer->Close();
  if (!closed.ok()) report.Fail(1, "archive close: " + closed.ToString());
  const spire::EventStream archived = CheckOutput(sut, &report);
  const double archive_bytes =
      static_cast<double>(ArchiveBytes(sut.path));
  if (args.trace) {
    report.Set("store.bytes_per_event",
               archive_bytes / static_cast<double>(sut.events));
  } else {
    const WindowStats stats = Summarize(window.chunks, shape.tail_percentile);
    report.Set("setup_s", SetupSeconds(setups));
    report.Set("throughput_per_s", stats.ops_per_s);
    report.Set("latency_p50_us", stats.latency_p50_us);
    report.Set("latency_tail_us", stats.tail.value);
    report.Set("cpu_us_per_op", stats.cpu_us_per_op);
    report.Set("peak_rss_mb", window.peak_rss_mb);
    report.Set("archive_bytes_per_reading",
               archive_bytes / static_cast<double>(sut.raw_readings));
    report.Set("event_f1", EventF1(trace, archived, next));
    report.Stamp("latency_tail", TailStamp(stats.tail, "epochs"));
  }
  report.Stamp("threads", "1 feeder");
  report.Stamp("window_s", std::to_string(window.wall_s));
  report.Stamp("window_epochs", std::to_string(window.epochs));
  report.Stamp("chunks",
               KeptStamp(Summarize(window.chunks, shape.tail_percentile),
                         "chunks of " + std::to_string(shape.chunk_epochs) +
                             " epochs"));
  report.Stamp("live_objects",
               std::to_string(sut.pipeline->graph().NumNodes()));
  RemoveArchive(sut.path);
  trace.file.close();
  std::error_code ec;
  std::filesystem::remove(trace.path, ec);
  return report;
}

}  // namespace

Report RunIngestLarge(const Args& args) {
  // About 10k live objects on a large, stationary graph: complete passes
  // (every 60 epochs) cost >10x a partial epoch — the superlinear spike.
  Shape shape;
  shape.sim.pallet_interval = 16;
  shape.sim.belt_dwell = 1;
  shape.sim.transit_time = 1;
  shape.sim.min_cases_per_pallet = 5;
  shape.sim.max_cases_per_pallet = 8;
  shape.sim.items_per_case = 20;
  shape.sim.num_shelves = 64;
  shape.sim.shelf_period = 60;
  shape.sim.mean_shelf_stay = 1200;
  shape.warmup_epochs = 1900;
  shape.chunk_epochs = 60;
  shape.max_epochs_per_second = 550;
  shape.tail_percentile = 99;  // Complete passes: ~1.7% of epochs.
  return RunIngest(args, shape);
}

Report RunIngestChurn(const Args& args) {
  // expt12's churny shape: ~250 live objects on fast shelves, a complete
  // pass every other epoch — where incremental inference stops paying.
  // BENCHMARK.json does not gate it: its cache-resident work runs at
  // whatever clock the host grants, which swings its timings past any
  // bound the benchmark may set (README.md). It stays runnable by hand.
  Shape shape;
  shape.sim.pallet_interval = 4;
  shape.sim.belt_dwell = 1;
  shape.sim.transit_time = 1;
  shape.sim.min_cases_per_pallet = 2;
  shape.sim.max_cases_per_pallet = 4;
  shape.sim.items_per_case = 5;
  shape.sim.num_shelves = 16;
  shape.sim.shelf_period = 2;
  shape.sim.mean_shelf_stay = 8;
  shape.warmup_epochs = 300;
  shape.chunk_epochs = 120;
  shape.max_epochs_per_second = 2200;
  // Above ~p90 only host jitter is left: half the epochs run a complete
  // pass, and the slowest tenth of those is still work.
  shape.tail_percentile = 90;
  // A set-up lasts ~0.15 s, and the host's speed drifts by tens of percent
  // within seconds: the median of 7 or 15 set-ups still spread ~24% over
  // ten seeds. 40 set-ups sample ~6 s.
  shape.setups = 40;
  return RunIngest(args, shape);
}

}  // namespace perfbench
