// Expt 15 (beyond the paper): segment-direct historical query serving
// (src/query/segment_log) versus materializing the archive per request.
//
// The workload is the natural one for an RFID archive sitting behind a
// tracking API: many independent point queries ("where was pallet X at
// noon?") arriving over time, each too small to justify decoding and
// folding the whole segment. The baseline is what the repo could do before
// this subsystem — EventLog::FromArchive per request; the contender is
// SegmentLog, which folds each key's `.spix` posting blocks once into a
// stay entry of its BlockCache and answers every later query on that key
// from the entry.
//
// Reports, for a level-2 warehouse trace archived with the bitpack codec:
//   - per-request rate of the FromArchive-per-request baseline (sampled —
//     it is far too slow to run the full workload);
//   - cold-cache segment-direct rate (every candidate block decoded once);
//   - warm-cache rates at 1 / 2 / 4 threads over one shared SegmentLog and
//     cache (its sharded locks under one budget are the scaling claim
//     under test), each the best of two passes that repeat the requests
//     for at least kMinWarmPassSeconds;
//   - the warm-cache speedup over the baseline — must be
//     >= kWarmSpeedupFloor x, asserted hard, and written to
//     BENCH_query.json for tools/bench_compare.py to track.
//
// Answers are not assumed correct: every mixed-kind request is evaluated
// through BOTH paths and byte-compared (exit 1 on any divergence), the
// timed runs fold every answer into a checksum that must agree across
// thread counts and passes, and the cache counters must reconcile
// (hits + misses == lookups, blocks decoded <= misses).
//
//   ./expt15_query [full=true] [block_events=N] [requests=N] [cache_mb=M]
//                  [<SimConfig key>=value ...]
//
// An unknown, malformed or out-of-range key fails by name.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "common/random.h"
#include "eval/table.h"
#include "query/event_log.h"
#include "query/segment_log.h"
#include "sim/simulator.h"
#include "store/archive_reader.h"
#include "store/archive_writer.h"

using namespace spire;
using namespace spire::bench;

namespace {

/// Hard floor on warm-cache segment-direct point-query rate versus the
/// EventLog::FromArchive-per-request baseline.
constexpr double kWarmSpeedupFloor = 5.0;

/// Each warm pass repeats its requests until it has run this long, so
/// thread start-up does not set the 2- and 4-thread rates.
constexpr double kMinWarmPassSeconds = 0.5;

/// FromArchive is O(segment) per request; sample this many requests and
/// extrapolate the per-request rate.
constexpr std::size_t kBaselineSample = 24;

double Seconds(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// Runs the pipeline over the trace and returns its output stream.
EventStream GenerateTrace(const SimConfig& config) {
  auto sim = WarehouseSimulator::Create(config);
  if (!sim.ok()) {
    std::fprintf(stderr, "simulator: %s\n", sim.status().ToString().c_str());
    std::exit(1);
  }
  WarehouseSimulator& s = *sim.value();
  PipelineOptions options;
  options.level = CompressionLevel::kLevel2;
  SpirePipeline pipeline(&s.registry(), options);
  EventStream events;
  while (!s.Done()) {
    EpochReadings readings = s.Step();
    pipeline.ProcessEpoch(s.current_epoch(), std::move(readings), &events);
  }
  pipeline.Finish(s.current_epoch() + 1, &events);
  return events;
}

void Check(const Status& status, const char* what) {
  if (!status.ok()) {
    std::fprintf(stderr, "%s: %s\n", what, status.ToString().c_str());
    std::exit(1);
  }
}

// --- Requests ---------------------------------------------------------------

enum class Kind {
  kLocationAt,
  kContainerAt,
  kContentsAt,
  kObjectsAt,
  kTrajectoryOf,
  kIsMissingAt,
};

struct Request {
  Kind kind = Kind::kLocationAt;
  std::uint64_t id = 0;  ///< ObjectId, or LocationId for kObjectsAt.
  Epoch epoch = 0;
};

/// The archived universe a workload draws from.
struct Universe {
  std::vector<ObjectId> objects;
  std::vector<LocationId> locations;
  Epoch lo = 0;
  Epoch hi = 0;
};

Universe UniverseOf(const ArchiveReader& reader) {
  Universe u;
  for (const auto& [object, postings] : reader.object_postings()) {
    (void)postings;
    u.objects.push_back(object);
  }
  for (const auto& [location, postings] : reader.location_postings()) {
    (void)postings;
    u.locations.push_back(location);
  }
  u.lo = kInfiniteEpoch;
  for (const BlockMeta& block : reader.blocks()) {
    u.lo = std::min(u.lo, block.min_epoch);
    u.hi = std::max(u.hi, block.max_epoch);
  }
  if (u.objects.empty() || u.lo > u.hi) {
    std::fprintf(stderr, "archive has no queryable objects\n");
    std::exit(1);
  }
  return u;
}

Request RandomRequest(const Universe& u, Kind kind, Pcg32& rng) {
  Request request;
  request.kind = kind;
  request.epoch = rng.NextInRange(u.lo, u.hi);
  if (kind == Kind::kObjectsAt) {
    request.id = u.locations[rng.NextBounded(
        static_cast<std::uint32_t>(u.locations.size()))];
  } else {
    request.id = u.objects[rng.NextBounded(
        static_cast<std::uint32_t>(u.objects.size()))];
  }
  return request;
}

/// `count` pure point lookups — the request mix the speedup floor gates.
std::vector<Request> PointWorkload(const Universe& u, std::size_t count,
                                   std::uint64_t seed) {
  static constexpr Kind kPointKinds[] = {Kind::kLocationAt, Kind::kContainerAt,
                                         Kind::kIsMissingAt};
  Pcg32 rng(seed);
  std::vector<Request> requests;
  requests.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    requests.push_back(RandomRequest(u, kPointKinds[rng.NextBounded(3)], rng));
  }
  return requests;
}

/// `count` requests over all six kinds — the answer-identity workload.
std::vector<Request> MixedWorkload(const Universe& u, std::size_t count,
                                   std::uint64_t seed) {
  Pcg32 rng(seed);
  std::vector<Request> requests;
  requests.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    Kind kind = static_cast<Kind>(rng.NextBounded(6));
    if (kind == Kind::kObjectsAt && u.locations.empty()) {
      kind = Kind::kLocationAt;
    }
    requests.push_back(RandomRequest(u, kind, rng));
  }
  return requests;
}

// --- Canonical answers ------------------------------------------------------

std::string IdList(const std::vector<ObjectId>& ids) {
  std::string out = "[";
  for (std::size_t i = 0; i < ids.size(); ++i) {
    if (i > 0) out += ",";
    out += std::to_string(ids[i]);
  }
  return out + "]";
}

std::string StayList(const std::vector<Stay>& stays) {
  std::string out = "[";
  for (std::size_t i = 0; i < stays.size(); ++i) {
    if (i > 0) out += ",";
    out += std::to_string(stays[i].start) + ":" +
           std::to_string(stays[i].end) + "@" +
           std::to_string(stays[i].location);
  }
  return out + "]";
}

std::string AnswerSegment(const SegmentLog& log, const Request& r) {
  switch (r.kind) {
    case Kind::kLocationAt: {
      auto a = log.LocationAt(r.id, r.epoch);
      Check(a.status(), "LocationAt");
      return std::to_string(a.value());
    }
    case Kind::kContainerAt: {
      auto a = log.ContainerAt(r.id, r.epoch);
      Check(a.status(), "ContainerAt");
      return std::to_string(a.value());
    }
    case Kind::kContentsAt: {
      auto a = log.ContentsAt(r.id, r.epoch);
      Check(a.status(), "ContentsAt");
      return IdList(a.value());
    }
    case Kind::kObjectsAt: {
      auto a = log.ObjectsAt(static_cast<LocationId>(r.id), r.epoch);
      Check(a.status(), "ObjectsAt");
      return IdList(a.value());
    }
    case Kind::kTrajectoryOf: {
      auto a = log.TrajectoryOf(r.id);
      Check(a.status(), "TrajectoryOf");
      return StayList(a.value());
    }
    case Kind::kIsMissingAt: {
      auto a = log.IsMissingAt(r.id, r.epoch);
      Check(a.status(), "IsMissingAt");
      return std::string(a.value() ? "true" : "false");
    }
  }
  return "";
}

std::string AnswerMaterialized(const EventLog& log, const Request& r) {
  switch (r.kind) {
    case Kind::kLocationAt:
      return std::to_string(log.LocationAt(r.id, r.epoch));
    case Kind::kContainerAt:
      return std::to_string(log.ContainerAt(r.id, r.epoch));
    case Kind::kContentsAt:
      return IdList(log.ContentsAt(r.id, r.epoch));
    case Kind::kObjectsAt:
      return IdList(log.ObjectsAt(static_cast<LocationId>(r.id), r.epoch));
    case Kind::kTrajectoryOf:
      return StayList(log.TrajectoryOf(r.id));
    case Kind::kIsMissingAt:
      return std::string(log.IsMissingAt(r.id, r.epoch) ? "true" : "false");
  }
  return "";
}

const char* KindName(Kind kind) {
  switch (kind) {
    case Kind::kLocationAt: return "location_at";
    case Kind::kContainerAt: return "container_at";
    case Kind::kContentsAt: return "contents_at";
    case Kind::kObjectsAt: return "objects_at";
    case Kind::kTrajectoryOf: return "trajectory_of";
    case Kind::kIsMissingAt: return "is_missing_at";
  }
  return "?";
}

// --- Timed runs -------------------------------------------------------------

/// One timed serving pass: its wall time and the queries it answered.
struct Pass {
  double seconds = 0.0;
  std::size_t queries = 0;

  double qps() const { return static_cast<double>(queries) / seconds; }
};

/// Serves the workload on `threads` striding threads over one shared log,
/// each thread repeating its share until `min_seconds` have passed (0:
/// once). `*checksum` is a thread-count-invariant hash of one round of
/// answers (also defeats dead-code elimination); a later round that
/// hashes differently fails the run.
Pass ServeWorkload(const SegmentLog& log, const std::vector<Request>& requests,
                   int threads, double min_seconds, std::uint64_t* checksum) {
  std::vector<std::uint64_t> partial(static_cast<std::size_t>(threads), 0);
  std::vector<std::size_t> answered(static_cast<std::size_t>(threads), 0);
  std::vector<int> diverged(static_cast<std::size_t>(threads), 0);
  auto t0 = std::chrono::steady_clock::now();
  std::vector<std::thread> workers;
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      const auto slot = static_cast<std::size_t>(t);
      for (bool first = true; first || Seconds(t0) < min_seconds;
           first = false) {
        std::uint64_t sum = 0;
        for (std::size_t i = slot; i < requests.size();
             i += static_cast<std::size_t>(threads)) {
          sum += std::hash<std::string>{}(AnswerSegment(log, requests[i]));
          ++answered[slot];
        }
        if (first) partial[slot] = sum;
        if (sum != partial[slot]) diverged[slot] = 1;
      }
    });
  }
  for (std::thread& worker : workers) worker.join();
  Pass pass;
  pass.seconds = Seconds(t0);
  *checksum = 0;
  for (std::size_t t = 0; t < partial.size(); ++t) {
    if (diverged[t] != 0) {
      std::fprintf(stderr, "FAIL: a repeated round's answers diverged\n");
      std::exit(1);
    }
    *checksum += partial[t];
    pass.queries += answered[t];
  }
  return pass;
}

}  // namespace

int main(int argc, char** argv) {
  // requests= defaults to 20000, or 40000 with full=true.
  const Options args = ParseSimArgs(
      argc, argv,
      {BoolOption("full", false), IntOption("block_events", 1024, /*min=*/1),
       IntOption("requests", 20000, /*min=*/1),
       IntOption("cache_mb", 64, /*min=*/1)});
  const bool full = args.Bool("full");
  const SimConfig base = ApplySimOverrides(args, PaperOutputConfig(full));
  const std::size_t block_events =
      static_cast<std::size_t>(args.Int("block_events"));
  const std::size_t num_requests = static_cast<std::size_t>(
      full && !args.Has("requests") ? 40000 : args.Int("requests"));
  const std::uint64_t cache_mb =
      static_cast<std::uint64_t>(args.Int("cache_mb"));

  PrintHeader("Expt 15: segment-direct query serving vs per-request "
              "materialization",
              "beyond the paper; query/segment_log + block cache");

  const EventStream events = GenerateTrace(base);
  const std::string path =
      std::filesystem::temp_directory_path().string() + "/expt15.sparc";
  std::error_code ec;
  std::filesystem::remove(path, ec);
  std::filesystem::remove(IndexPathFor(path), ec);
  ArchiveOptions archive_options;
  archive_options.block_events = block_events;
  archive_options.codec = BlockCodec::kBitpack;
  auto writer = ArchiveWriter::Open(path, archive_options);
  Check(writer.status(), "archive open");
  Check(writer.value()->Append(events), "archive append");
  Check(writer.value()->Close(), "archive close");

  auto reader = ArchiveReader::Open(path);
  Check(reader.status(), "archive reader open");
  std::printf("trace: %zu events in %zu blocks of <= %zu\n", events.size(),
              reader.value().num_blocks(), block_events);

  const Universe universe = UniverseOf(reader.value());
  const std::vector<Request> point =
      PointWorkload(universe, num_requests, /*seed=*/0x15151);
  const std::vector<Request> mixed =
      MixedWorkload(universe, std::max<std::size_t>(num_requests / 10, 500),
                    /*seed=*/0x15152);
  std::printf("workload: %zu point requests (timed), %zu mixed requests "
              "(identity-checked), %zu objects, %zu locations, epochs "
              "[%lld, %lld]\n\n",
              point.size(), mixed.size(), universe.objects.size(),
              universe.locations.size(), static_cast<long long>(universe.lo),
              static_cast<long long>(universe.hi));

  auto cache = std::make_shared<BlockCache>(cache_mb << 20);
  auto log = SegmentLog::Open(path, ReaderOptions{}, cache);
  Check(log.status(), "segment log open");

  // --- Answer identity: every mixed request through both paths -------------
  auto materialized = EventLog::FromArchive(reader.value(), 0, kInfiniteEpoch,
                                            /*decompress=*/false);
  Check(materialized.status(), "materialized build");
  for (const Request& r : mixed) {
    const std::string direct = AnswerSegment(*log.value(), r);
    const std::string expect = AnswerMaterialized(materialized.value(), r);
    if (direct != expect) {
      std::fprintf(stderr,
                   "FAIL: %s(%llu, %lld) diverged: segment-direct %s, "
                   "materialized %s\n",
                   KindName(r.kind), static_cast<unsigned long long>(r.id),
                   static_cast<long long>(r.epoch), direct.c_str(),
                   expect.c_str());
      return 1;
    }
  }
  std::printf("identity: %zu mixed answers equal the materialized "
              "EventLog's\n",
              mixed.size());

  // --- Baseline: EventLog::FromArchive per request (sampled) ---------------
  const std::size_t sample = std::min(kBaselineSample, point.size());
  auto t0 = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < sample; ++i) {
    auto per_request = EventLog::FromArchive(reader.value(), 0,
                                             kInfiniteEpoch, false);
    Check(per_request.status(), "baseline build");
    const std::string got = AnswerMaterialized(per_request.value(), point[i]);
    const std::string expect = AnswerSegment(*log.value(), point[i]);
    if (got != expect) {
      std::fprintf(stderr, "FAIL: baseline sample %zu diverged\n", i);
      return 1;
    }
  }
  const double baseline_s = Seconds(t0);
  const double baseline_qps = static_cast<double>(sample) / baseline_s;

  // --- Segment-direct: cold, then warm at 1/2/4 threads --------------------
  // The identity and baseline checks above already touched blocks, so the
  // cold pass gets its own log and cache.
  auto cold_cache = std::make_shared<BlockCache>(cache_mb << 20);
  auto cold_log = SegmentLog::Open(path, ReaderOptions{}, cold_cache);
  Check(cold_log.status(), "cold segment log open");
  std::uint64_t cold_sum = 0;
  const Pass cold = ServeWorkload(*cold_log.value(), point, 1, 0.0, &cold_sum);
  const double cold_qps = cold.qps();

  struct WarmRun {
    int threads = 1;
    Pass best;
  };
  std::vector<WarmRun> warm;
  for (int threads : {1, 2, 4}) {
    WarmRun run;
    run.threads = threads;
    for (int pass = 0; pass < 2; ++pass) {
      std::uint64_t sum = 0;
      const Pass timed = ServeWorkload(*cold_log.value(), point, threads,
                                       kMinWarmPassSeconds, &sum);
      if (sum != cold_sum) {
        std::fprintf(stderr,
                     "FAIL: warm pass (%d threads) answer checksum diverged "
                     "from the cold pass\n",
                     threads);
        return 1;
      }
      if (pass == 0 || timed.qps() > run.best.qps()) run.best = timed;
    }
    warm.push_back(run);
  }
  const double warm_qps_1t = warm[0].best.qps();

  // --- Counter reconciliation ----------------------------------------------
  const BlockCache::Stats stats = cold_cache->GetStats();
  if (stats.hits + stats.misses != stats.lookups) {
    std::fprintf(stderr, "FAIL: cache counters do not reconcile: %llu hits + "
                 "%llu misses != %llu lookups\n",
                 static_cast<unsigned long long>(stats.hits),
                 static_cast<unsigned long long>(stats.misses),
                 static_cast<unsigned long long>(stats.lookups));
    return 1;
  }
  if (cold_log.value()->blocks_decoded() > stats.misses) {
    std::fprintf(stderr, "FAIL: %llu blocks decoded exceeds %llu cache "
                 "misses\n",
                 static_cast<unsigned long long>(
                     cold_log.value()->blocks_decoded()),
                 static_cast<unsigned long long>(stats.misses));
    return 1;
  }
  std::printf("cache: %llu lookups, %llu hits (%llu stay, %llu block), "
              "%llu misses (%llu stay, %llu block), %llu evictions, "
              "%llu blocks decoded (counters reconcile)\n",
              static_cast<unsigned long long>(stats.lookups),
              static_cast<unsigned long long>(stats.hits),
              static_cast<unsigned long long>(stats.stay_hits),
              static_cast<unsigned long long>(stats.block_hits),
              static_cast<unsigned long long>(stats.misses),
              static_cast<unsigned long long>(stats.stay_misses),
              static_cast<unsigned long long>(stats.block_misses),
              static_cast<unsigned long long>(stats.evictions),
              static_cast<unsigned long long>(
                  cold_log.value()->blocks_decoded()));
  const auto ratio = [](std::uint64_t hits, std::uint64_t misses) {
    return hits + misses == 0 ? 0.0
                              : static_cast<double>(hits) /
                                    static_cast<double>(hits + misses);
  };
  std::printf("stay hit ratio by key kind: object %.3f (%llu lookups), "
              "container %.3f (%llu), location %.3f (%llu)\n\n",
              ratio(stats.object_hits, stats.object_misses),
              static_cast<unsigned long long>(stats.object_hits +
                                              stats.object_misses),
              ratio(stats.container_hits, stats.container_misses),
              static_cast<unsigned long long>(stats.container_hits +
                                              stats.container_misses),
              ratio(stats.location_hits, stats.location_misses),
              static_cast<unsigned long long>(stats.location_hits +
                                              stats.location_misses));

  TextTable table({"mode", "threads", "requests", "seconds", "queries/s",
                   "vs baseline"});
  table.AddRow({"FromArchive per request", "1", std::to_string(sample),
                TextTable::Num(baseline_s, 3), TextTable::Num(baseline_qps, 1),
                "1.00"});
  table.AddRow({"segment-direct cold", "1", std::to_string(cold.queries),
                TextTable::Num(cold.seconds, 3), TextTable::Num(cold_qps, 1),
                TextTable::Num(cold_qps / baseline_qps, 1)});
  for (const WarmRun& run : warm) {
    table.AddRow({"segment-direct warm", std::to_string(run.threads),
                  std::to_string(run.best.queries),
                  TextTable::Num(run.best.seconds, 3),
                  TextTable::Num(run.best.qps(), 1),
                  TextTable::Num(run.best.qps() / baseline_qps, 1)});
  }
  table.Print();

  const double speedup = warm_qps_1t / baseline_qps;
  std::printf("\nwarm-cache point-query speedup: %.1fx vs "
              "FromArchive-per-request (floor %.0fx)\n",
              speedup, kWarmSpeedupFloor);
  if (speedup < kWarmSpeedupFloor) {
    std::fprintf(stderr,
                 "FAIL: warm segment-direct serving is %.2fx the "
                 "per-request baseline, below the %.0fx floor\n",
                 speedup, kWarmSpeedupFloor);
    return 1;
  }

  BenchReport report("query");
  report.Add("events", static_cast<double>(events.size()));
  report.Add("point_requests", static_cast<double>(point.size()));
  report.Add("baseline_query_us", 1e6 / baseline_qps);
  report.Add("cold_query_us", 1e6 / cold_qps);
  report.Add("warm_query_us", 1e6 / warm_qps_1t);
  report.Add("cold_query_speedup", cold_qps / baseline_qps);
  report.Add("warm_query_speedup", speedup);
  for (const WarmRun& run : warm) {
    report.Add("warm_qps_" + std::to_string(run.threads) + "_threads",
               run.best.qps());
  }
  Check(report.Write(), "report write");

  std::filesystem::remove(path, ec);
  std::filesystem::remove(IndexPathFor(path), ec);
  return 0;
}
