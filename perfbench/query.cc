// query_hot: segment-direct historical queries (SegmentLog + BlockCache)
// over an archive the load generator builds, from 2 client threads in a
// closed loop, both on one vCPU (PinToOneCpu). Only the store read path
// and the query layer run here; every ingest layer is idle.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "compress/decompress.h"
#include "eval/event_accuracy.h"
#include "obs/registry.h"
#include "obs/trace.h"
#include "query/block_cache.h"
#include "query/event_log.h"
#include "query/segment_log.h"
#include "requests.h"
#include "sim/simulator.h"
#include "spire/pipeline.h"
#include "store/archive_reader.h"
#include "workloads.h"

namespace perfbench {

namespace {

constexpr int kClientThreads = 2;
constexpr int kSetups = 7;
constexpr std::size_t kBlockEvents = 256;
/// The cache holds this share of the archive's decoded bytes, so hits,
/// misses and evictions all occur.
constexpr double kCacheShare = 0.25;
/// Requests answered by the single-threaded warm-up pass of setup.
constexpr std::size_t kWarmupRequests = 20000;
constexpr std::size_t kRequests = 400000;
/// Throughput and CPU per request are medians over slices of this length.
constexpr double kSliceSeconds = 0.25;
/// p95: the objects_at folds (a sixth of the requests) set it. Above ~p98
/// the two clients' preemption of each other on their one vCPU sets it.
constexpr double kTailPercentile = 95;

/// The load generator's output: an archived warehouse trace plus what the
/// gates and the exact metrics need from it.
struct Archive {
  std::string path;
  std::uint64_t num_events = 0;
  std::size_t raw_readings = 0;
  double event_f1 = 0.0;
  RequestUniverse universe;
};

Archive BuildArchive(std::uint64_t seed, const std::string& path) {
  spire::SimConfig config;
  config.pallet_interval = 16;
  config.belt_dwell = 1;
  config.transit_time = 1;
  config.min_cases_per_pallet = 5;
  config.max_cases_per_pallet = 8;
  config.items_per_case = 20;
  config.num_shelves = 64;
  config.shelf_period = 60;
  config.mean_shelf_stay = 600;
  config.duration_epochs = 1500;
  config.seed = seed;
  auto sim = spire::WarehouseSimulator::Create(config);
  if (!sim.ok()) throw std::runtime_error(sim.status().ToString());
  spire::WarehouseSimulator& s = *sim.value();
  spire::SpirePipeline pipeline(&s.registry(), spire::PipelineOptions{});
  spire::EventStream events;
  while (!s.Done()) {
    spire::EpochReadings readings = s.Step();
    pipeline.ProcessEpoch(s.current_epoch(), std::move(readings), &events);
  }
  pipeline.Finish(s.current_epoch() + 1, &events);
  s.FinishTruth();

  Archive archive;
  archive.path = path;
  archive.num_events = events.size();
  archive.raw_readings = s.total_readings();
  const spire::LocationId door = s.layout().entry_door;
  archive.event_f1 =
      spire::CompareEventStreams(
          spire::StripLocationEvents(
              spire::Decompressor::DecompressAll(events), door),
          spire::StripLocationEvents(s.truth_events(), door),
          spire::EventClass::kAll)
          .FMeasure();

  spire::ArchiveOptions options;
  options.block_events = kBlockEvents;
  WriteArchive(events, path, options);

  // The request universe: every key the archive can answer for.
  std::set<spire::ObjectId> objects, containers;
  std::set<spire::LocationId> locations;
  RequestUniverse& u = archive.universe;
  u.lo = spire::kInfiniteEpoch;
  for (const spire::Event& event : events) {
    objects.insert(event.object);
    if (event.container != spire::kNoObject) containers.insert(event.container);
    if (event.location != spire::kUnknownLocation) {
      locations.insert(event.location);
    }
    u.lo = std::min(u.lo, event.start);
    u.hi = std::max(u.hi, event.start);
  }
  u.objects.assign(objects.begin(), objects.end());
  u.containers.assign(containers.begin(), containers.end());
  u.locations.assign(locations.begin(), locations.end());
  if (u.objects.empty() || u.containers.empty() || u.locations.empty()) {
    throw std::runtime_error("archive holds nothing to query");
  }
  return archive;
}

// --- Answers, hashed so the clients can check each one as they go ------

std::uint64_t HashOf(std::uint64_t value) {
  return FnvMix(kFnvOffset, value);
}
std::uint64_t HashOf(const std::vector<spire::ObjectId>& ids) {
  std::uint64_t hash = HashOf(ids.size());
  for (spire::ObjectId id : ids) hash = FnvMix(hash, id);
  return hash;
}
std::uint64_t HashOf(const std::vector<spire::Stay>& stays) {
  std::uint64_t hash = HashOf(stays.size());
  for (const spire::Stay& stay : stays) {
    hash = FnvMix(hash, static_cast<std::uint64_t>(stay.start));
    hash = FnvMix(hash, static_cast<std::uint64_t>(stay.end));
    hash = FnvMix(hash, stay.location);
  }
  return hash;
}

template <typename T>
std::optional<std::uint64_t> HashResult(const spire::Result<T>& result) {
  if (!result.ok()) return std::nullopt;
  return HashOf(result.value());
}

/// Answers through the system under test, inside a benchmark-side span
/// named after the kind (names must be literals).
std::optional<std::uint64_t> Answer(const spire::SegmentLog& log,
                                    const Request& r) {
  switch (r.kind) {
    case QueryKind::kLocationAt: {
      spire::obs::ScopedSpan span("bench", "location_at");
      return HashResult(log.LocationAt(r.id, r.epoch));
    }
    case QueryKind::kContainerAt: {
      spire::obs::ScopedSpan span("bench", "container_at");
      return HashResult(log.ContainerAt(r.id, r.epoch));
    }
    case QueryKind::kContentsAt: {
      spire::obs::ScopedSpan span("bench", "contents_at");
      return HashResult(log.ContentsAt(r.id, r.epoch));
    }
    case QueryKind::kObjectsAt: {
      spire::obs::ScopedSpan span("bench", "objects_at");
      return HashResult(
          log.ObjectsAt(static_cast<spire::LocationId>(r.id), r.epoch));
    }
    case QueryKind::kTrajectoryOf: {
      spire::obs::ScopedSpan span("bench", "trajectory_of");
      return HashResult(log.TrajectoryOf(r.id));
    }
    case QueryKind::kIsMissingAt: {
      spire::obs::ScopedSpan span("bench", "is_missing_at");
      return HashResult(log.IsMissingAt(r.id, r.epoch));
    }
  }
  return std::nullopt;
}

/// The reference answer from the materialized EventLog.
std::uint64_t Expected(const spire::EventLog& log, const Request& r) {
  switch (r.kind) {
    case QueryKind::kLocationAt: return HashOf(log.LocationAt(r.id, r.epoch));
    case QueryKind::kContainerAt: return HashOf(log.ContainerAt(r.id, r.epoch));
    case QueryKind::kContentsAt: return HashOf(log.ContentsAt(r.id, r.epoch));
    case QueryKind::kObjectsAt:
      return HashOf(
          log.ObjectsAt(static_cast<spire::LocationId>(r.id), r.epoch));
    case QueryKind::kTrajectoryOf: return HashOf(log.TrajectoryOf(r.id));
    case QueryKind::kIsMissingAt: return HashOf(log.IsMissingAt(r.id, r.epoch));
  }
  return 0;
}

/// The system under test: one SegmentLog over a shared BlockCache.
struct Sut {
  std::shared_ptr<spire::BlockCache> cache;
  std::unique_ptr<spire::SegmentLog> log;
};

/// The expected answer to every request, from the materialized EventLog,
/// computed before anything is timed so the clients can check each answer
/// as it comes and keep no record of it.
std::vector<std::uint64_t> ExpectedAnswers(
    const Archive& archive, const std::vector<Request>& requests) {
  auto reader = spire::ArchiveReader::Open(archive.path);
  if (!reader.ok()) throw std::runtime_error(reader.status().ToString());
  auto reference = spire::EventLog::FromArchive(reader.value(), 0,
                                                spire::kInfiniteEpoch, false);
  if (!reference.ok()) throw std::runtime_error(reference.status().ToString());
  std::vector<std::uint64_t> expected;
  expected.reserve(requests.size());
  for (const Request& request : requests) {
    expected.push_back(Expected(reference.value(), request));
  }
  return expected;
}

/// What one client records: fixed-size, allocated before the window
/// opens, so the memory a window touches does not grow with its
/// throughput.
struct ClientRecord {
  explicit ClientRecord(std::size_t slices) : slices(slices) {}
  /// Latencies by the slice they finished in; the last entry holds the
  /// requests that finished after the last slice boundary.
  std::vector<LatencyHistogram> slices;
  LatencyHistogram kinds[kNumQueryKinds];
  std::uint64_t answered = 0;
  std::uint64_t wrong = 0;  ///< Answers that differ from the expected one.
  std::size_t next = 0;
};

struct Window {
  std::vector<Chunk> slices;  ///< ops = requests, latency per request.
  LatencyHistogram kinds[kNumQueryKinds];
  std::uint64_t answered = 0;
  std::uint64_t wrong = 0;
  /// Over the window alone, sampled as the clients stop.
  double peak_rss_mb = 0.0;
  double wall_s = 0.0;
};

/// Runs the closed loop for `seconds`; request indexes continue from
/// `*next` (thread t takes next + t, next + t + threads, ...). The main
/// thread samples the clocks at every slice boundary and then opens the
/// next slice; each client files a request under the slice open when it
/// finishes.
Window Serve(const Sut& sut, const std::vector<Request>& requests,
             const std::vector<std::uint64_t>& expected, std::size_t* next,
             double seconds) {
  const std::size_t num_slices =
      static_cast<std::size_t>(std::floor(seconds / kSliceSeconds));
  std::vector<ClientRecord> records(kClientThreads,
                                    ClientRecord(num_slices + 1));
  std::vector<double> bound_s, bound_cpu, bound_steal;
  bound_s.reserve(num_slices + 1);
  bound_cpu.reserve(num_slices + 1);
  bound_steal.reserve(num_slices + 1);
  std::atomic<std::size_t> slice{0};
  std::atomic<bool> stop{false};
  const std::size_t first = *next;

  ResetPeakRss();
  const double start = NowSeconds();
  bound_s.push_back(start);
  bound_cpu.push_back(ProcessCpuSeconds());
  bound_steal.push_back(HostStealSeconds());
  std::vector<std::thread> clients;
  for (int t = 0; t < kClientThreads; ++t) {
    clients.emplace_back([&, t] {
      ClientRecord& record = records[static_cast<std::size_t>(t)];
      std::size_t i = first + static_cast<std::size_t>(t);
      while (!stop.load(std::memory_order_relaxed)) {
        const std::size_t index = i % requests.size();
        const Request& request = requests[index];
        const double before = NowSeconds();
        const std::optional<std::uint64_t> hash = Answer(*sut.log, request);
        const double us = (NowSeconds() - before) * 1e6;
        record.slices[slice.load(std::memory_order_relaxed)].Add(us);
        record.kinds[static_cast<int>(request.kind)].Add(us);
        ++record.answered;
        if (hash != expected[index]) ++record.wrong;
        i += kClientThreads;
      }
      record.next = i;
    });
  }
  for (std::size_t k = 1; k <= num_slices; ++k) {
    std::this_thread::sleep_for(std::chrono::duration<double>(
        start + static_cast<double>(k) * kSliceSeconds - NowSeconds()));
    bound_s.push_back(NowSeconds());
    bound_cpu.push_back(ProcessCpuSeconds());
    bound_steal.push_back(HostStealSeconds());
    slice.store(k, std::memory_order_relaxed);
  }
  stop.store(true);
  for (std::thread& client : clients) client.join();

  Window window;
  window.peak_rss_mb = PeakRssMb();
  window.wall_s = NowSeconds() - start;
  window.slices.resize(num_slices);
  for (std::size_t k = 0; k < num_slices; ++k) {
    Chunk& chunk = window.slices[k];
    chunk.wall_s = bound_s[k + 1] - bound_s[k];
    chunk.cpu_s = bound_cpu[k + 1] - bound_cpu[k];
    chunk.steal_s = bound_steal[k + 1] - bound_steal[k];
  }
  for (const ClientRecord& record : records) {
    for (std::size_t k = 0; k < num_slices; ++k) {
      window.slices[k].latency_us.Merge(record.slices[k]);
    }
    for (int kind = 0; kind < kNumQueryKinds; ++kind) {
      window.kinds[kind].Merge(record.kinds[kind]);
    }
    window.answered += record.answered;
    window.wrong += record.wrong;
    *next = std::max(*next, record.next);
  }
  for (Chunk& chunk : window.slices) chunk.ops = chunk.latency_us.count();
  return window;
}

/// Opens the log over a fresh cache and runs the warm-up pass; returns
/// the seconds that took and the Open() time in `*open_ms`.
double Setup(const Archive& archive, const std::vector<Request>& requests,
             const std::vector<std::uint64_t>& expected, Sut* sut,
             double* open_ms, Report* report) {
  const std::uint64_t decoded_bytes =
      archive.num_events * sizeof(spire::Event) +
      (archive.num_events / kBlockEvents + 1) *
          spire::BlockCache::kEntryOverheadBytes;
  const double start = NowSeconds();
  sut->cache = std::make_shared<spire::BlockCache>(
      static_cast<std::uint64_t>(decoded_bytes * kCacheShare));
  auto log = spire::SegmentLog::Open(archive.path, {}, sut->cache);
  if (!log.ok()) throw std::runtime_error(log.status().ToString());
  sut->log = std::move(log).value();
  *open_ms = (NowSeconds() - start) * 1e3;
  std::uint64_t wrong = 0;
  for (std::size_t i = 0; i < kWarmupRequests; ++i) {
    if (Answer(*sut->log, requests[i]) != expected[i]) ++wrong;
  }
  const double seconds = NowSeconds() - start;
  report->attempted += kWarmupRequests;
  if (wrong > 0) {
    report->Fail(wrong, std::to_string(wrong) + " warm-up answers differ "
                                                "from EventLog::FromArchive's");
  }
  return seconds;
}

/// The gates: every answer equalled EventLog::FromArchive's (the clients
/// checked each against ExpectedAnswers), and the cache counters reconcile.
void CheckAnswers(const Window& window, const Sut& sut, Report* report) {
  report->attempted += window.answered;
  if (window.wrong > 0) {
    report->Fail(window.wrong,
                 std::to_string(window.wrong) +
                     " answers differ from EventLog::FromArchive's");
  }
  const spire::BlockCache::Stats stats = sut.cache->GetStats();
  if (stats.hits + stats.misses != stats.lookups) {
    report->Fail(1, "cache counters: hits + misses != lookups");
  }
  if (sut.log->blocks_decoded() > stats.misses) {
    report->Fail(1, "cache counters: blocks decoded exceed misses");
  }
}

/// Per-layer metrics of the traced half. Per-kind latencies come from the
/// clients' own clock readings around each call (the same interval as the
/// kind's span, without the span's whole-microsecond truncation).
void ReportLayers(const Window& traced, const Archive& archive, const Sut& sut,
                  Report* report) {
  double total_us = 0.0;
  for (const LatencyHistogram& kind : traced.kinds) total_us += kind.sum_us();
  std::ostringstream shares;
  shares.precision(3);
  shares << "query time by kind:";
  for (int k = 0; k < kNumQueryKinds; ++k) {
    const char* kind = QueryKindName(static_cast<QueryKind>(k));
    report->Set(std::string("query.") + kind + "_us_p50",
                traced.kinds[k].Quantile(0.5));
    shares << " " << kind << " " << 100.0 * traced.kinds[k].sum_us() / total_us
           << "%";
  }
  report->notes.push_back(shares.str());
  spire::obs::Registry& registry = spire::obs::Registry::Global();
  const double hits = registry.GetCounter("query", "cache_hits")->value();
  const double misses = registry.GetCounter("query", "cache_misses")->value();
  const double queries = registry.GetCounter("query", "queries")->value();
  const double decoded =
      registry.GetCounter("query", "blocks_decoded")->value();
  report->Set("query.cache_hit_ratio",
              hits + misses > 0 ? hits / (hits + misses) : 0.0);
  report->Set("query.blocks_decoded_per_query",
              queries > 0 ? decoded / queries : 0.0);

  // The codec's cost in isolation: every block decoded once, three times.
  const spire::ArchiveReader& reader = sut.log->reader();
  std::vector<double> pass_us;
  for (int pass = 0; pass < 3; ++pass) {
    const double start = NowSeconds();
    for (std::uint32_t b = 0; b < reader.num_blocks(); ++b) {
      if (!reader.DecodeOneBlock(b).ok()) {
        report->Fail(1, "block decode failed");
      }
    }
    pass_us.push_back((NowSeconds() - start) * 1e6 /
                      static_cast<double>(reader.num_blocks()));
  }
  report->Set("store.decode_us_per_block", Median(pass_us));
  report->Set("store.bytes_per_event",
              static_cast<double>(ArchiveBytes(archive.path)) /
                  static_cast<double>(archive.num_events));
}

}  // namespace

Report RunQueryHot(const Args& args) {
  Report report;
  const int cpu = PinToOneCpu();
  // The load generator: the archive, the requests and their answers.
  const Archive archive =
      BuildArchive(args.seed, args.tmp_dir + "/query.sparc");
  const std::vector<Request> requests =
      GenerateRequests(archive.universe, kRequests, args.seed);
  const std::vector<std::uint64_t> expected =
      ExpectedAnswers(archive, requests);

  std::vector<SetupTime> setups;
  std::vector<double> open_ms;
  Sut sut;
  for (int k = 0; k < kSetups; ++k) {
    Sut candidate;
    double open = 0.0;
    const double steal = HostStealSeconds();
    const double wall =
        Setup(archive, requests, expected, &candidate, &open, &report);
    setups.push_back(SetupTime{wall, HostStealSeconds() - steal});
    open_ms.push_back(open);
    sut = std::move(candidate);
  }

  std::size_t next = kWarmupRequests;
  Window window;
  if (!args.trace) {
    window = Serve(sut, requests, expected, &next, args.seconds);
    CheckAnswers(window, sut, &report);
  } else {
    const Window plain =
        Serve(sut, requests, expected, &next, args.seconds / 2);
    CheckAnswers(plain, sut, &report);
    TraceSession session(args.tmp_dir + "/trace.json");
    session.Start();
    window = Serve(sut, requests, expected, &next, args.seconds / 2);
    const std::vector<Span> spans = session.Finish();
    CheckAnswers(window, sut, &report);
    ReportStages(PipelineLedger(spans), /*check_ledger=*/false, &report);
    ReportLayers(window, archive, sut, &report);
    report.Set("store.open_ms", Median(open_ms));
    report.Set("obs.trace_overhead_ratio",
               Summarize(window.slices, kTailPercentile).ops_per_s /
                   Summarize(plain.slices, kTailPercentile).ops_per_s);
  }

  if (!args.trace) {
    const WindowStats stats = Summarize(window.slices, kTailPercentile);
    report.Set("setup_s", SetupSeconds(setups));
    report.Set("throughput_per_s", stats.ops_per_s);
    report.Set("latency_p50_us", stats.latency_p50_us);
    report.Set("latency_tail_us", stats.tail.value);
    report.Set("cpu_us_per_op", stats.cpu_us_per_op);
    report.Set("peak_rss_mb", window.peak_rss_mb);
    report.Set("archive_bytes_per_reading",
               static_cast<double>(ArchiveBytes(archive.path)) /
                   static_cast<double>(archive.raw_readings));
    report.Set("event_f1", archive.event_f1);
    report.Stamp("latency_tail", TailStamp(stats.tail, "requests"));
  }
  const spire::BlockCache::Stats stats = sut.cache->GetStats();
  report.Stamp("threads", std::to_string(kClientThreads) +
                              " clients, pinned to cpu " + std::to_string(cpu));
  report.Stamp("window_s", std::to_string(window.wall_s));
  report.Stamp("window_requests", std::to_string(window.answered));
  report.Stamp("slices", KeptStamp(Summarize(window.slices, kTailPercentile),
                                   "slices of " +
                                       std::to_string(kSliceSeconds) + " s"));
  report.Stamp("archive", std::to_string(archive.num_events) + " events in " +
                              std::to_string(sut.log->reader().num_blocks()) +
                              " blocks");
  report.Stamp("cache", std::to_string(stats.capacity_bytes >> 10) + " KiB, " +
                            std::to_string(stats.hits) + " hits of " +
                            std::to_string(stats.lookups) + " lookups");
  sut = Sut{};
  RemoveArchive(archive.path);
  return report;
}

}  // namespace perfbench
