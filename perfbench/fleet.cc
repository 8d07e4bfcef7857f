// sites_fleet: the distributed runtime (src/dist) replaying a 4-site
// truck-transfer trace over loopback connections — a coordinator plus 2
// node threads, each node hosting 2 sites — once per round, back to back.
// The only workload that runs wire frames, epoch barriers and handoffs.
//
// All three threads share one vCPU (PinToOneCpu): the workload measures the
// runtime's cost per reading with its frames, barriers and handoffs, not
// its parallel speedup.
#include <cmath>
#include <stdexcept>
#include <string>
#include <vector>

#include "compress/decompress.h"
#include "dist/runner.h"
#include "eval/event_accuracy.h"
#include "obs/registry.h"
#include "obs/trace.h"
#include "sim/transfer.h"
#include "workloads.h"

namespace perfbench {

namespace {

constexpr int kSites = 4;
constexpr int kNodes = 2;
/// ToWorkload takes ~0.3 ms: many set-ups, so their median samples more
/// than a moment of the host's drifting speed.
constexpr int kSetups = 2000;
constexpr int kReferenceRuns = 3;
/// p75 of the replay times: a run keeps half or more of its ~150 replays,
/// and p75 has ten beyond it from 40 kept replays on.
constexpr double kTailPercentile = 75;
/// Well above the ~15 replays a second completed here.
constexpr double kMaxReplaysPerSecond = 60;

spire::TransferTrace BuildTrace(std::uint64_t seed) {
  spire::SimConfig config;
  config.duration_epochs = 180;
  config.pallet_interval = 16;
  config.belt_dwell = 1;
  config.transit_time = 1;
  config.min_cases_per_pallet = 4;
  config.max_cases_per_pallet = 6;
  config.items_per_case = 10;
  config.num_shelves = 16;
  config.shelf_period = 30;
  config.mean_shelf_stay = 240;
  config.transfer_sites = kSites;
  config.transfer_interval = 25;
  config.transfer_round_trips = 2;
  config.seed = seed;
  auto trace = spire::BuildTransferTrace(config);
  if (!trace.ok()) throw std::runtime_error(trace.status().ToString());
  return std::move(trace).value();
}

struct Rounds {
  std::vector<Chunk> replays;  ///< ops = raw readings, latency per replay.
  std::size_t handoff_objects = 0;
  double wall_s = 0.0;
  /// Over the window alone, sampled as it closes.
  double peak_rss_mb = 0.0;
  spire::EventStream last_events;
};

/// Replays the fleet round after round until `seconds` have passed. Each
/// round's output is compared with the serial reference outside its timing.
Rounds Replay(const spire::serve::Workload& workload,
              const std::vector<spire::TransferHop>& hops,
              const spire::EventStream& reference, std::size_t readings,
              double seconds, Report* report) {
  spire::dist::DistOptions options;
  options.num_nodes = kNodes;
  Rounds rounds;
  // Records touched before the window opens, so the memory the window
  // touches does not grow with the replays it completes.
  rounds.replays.resize(static_cast<std::size_t>(
      std::ceil(seconds * kMaxReplaysPerSecond)));
  std::size_t done = 0;
  ResetPeakRss();
  const double start = NowSeconds();
  while (NowSeconds() - start < seconds) {
    const double cpu_before = ProcessCpuSeconds();
    const double steal_before = HostStealSeconds();
    const double before = NowSeconds();
    spire::dist::DistResult result = [&] {
      spire::obs::ScopedSpan span("bench", "dist_replay");
      return spire::dist::RunDistLoopback(workload, hops, options);
    }();
    const double wall = NowSeconds() - before;
    const double cpu = ProcessCpuSeconds() - cpu_before;
    const double steal = HostStealSeconds() - steal_before;
    ++report->attempted;
    if (!result.status.ok()) {
      report->Fail(1, "loopback run: " + result.status.ToString());
      continue;
    }
    if (result.events != reference) {
      report->Fail(1, "loopback output differs from RunDistReference");
    }
    if (done == rounds.replays.size()) rounds.replays.emplace_back();
    Chunk& replay = rounds.replays[done++];
    replay.wall_s = wall;
    replay.cpu_s = cpu;
    replay.steal_s = steal;
    replay.ops = readings;
    replay.latency_us.Add(wall * 1e6);
    rounds.handoff_objects = result.handoff_objects;
    rounds.last_events = std::move(result.events);
  }
  rounds.peak_rss_mb = PeakRssMb();
  rounds.replays.resize(done);
  rounds.wall_s = NowSeconds() - start;
  if (done < 2) {
    throw std::runtime_error("fewer than two replays completed");
  }
  return rounds;
}

}  // namespace

Report RunSitesFleet(const Args& args) {
  Report report;
  const int cpu = PinToOneCpu();
  const spire::TransferTrace trace = BuildTrace(args.seed);
  std::size_t readings = 0;
  for (const spire::SiteTrace& site : trace.sites) {
    readings += site.total_readings;
  }

  std::vector<SetupTime> setups;
  spire::serve::Workload workload;
  for (int k = 0; k < kSetups; ++k) {
    const double steal = HostStealSeconds();
    const double before = NowSeconds();
    auto built = spire::dist::ToWorkload(trace);
    const double wall = NowSeconds() - before;
    setups.push_back(SetupTime{wall, HostStealSeconds() - steal});
    if (!built.ok()) throw std::runtime_error(built.status().ToString());
    workload = std::move(built).value();
  }
  const spire::EventStream reference = spire::dist::RunDistReference(
      workload, trace.hops, spire::PipelineOptions{});

  Rounds rounds;
  if (!args.trace) {
    rounds = Replay(workload, trace.hops, reference, readings, args.seconds,
                    &report);
  } else {
    const Rounds plain = Replay(workload, trace.hops, reference, readings,
                                args.seconds / 2, &report);
    TraceSession session(args.tmp_dir + "/trace.json");
    session.Start();
    rounds = Replay(workload, trace.hops, reference, readings,
                    args.seconds / 2, &report);
    spire::obs::Registry& registry = spire::obs::Registry::Global();
    const double epochs = static_cast<double>(rounds.replays.size()) *
                          static_cast<double>(workload.num_epochs);
    const double frames = registry.GetCounter("dist", "frames")->value();
    const double bytes = registry.GetCounter("dist", "bytes")->value();
    const double waits = registry.GetCounter("dist", "barrier_waits")->value();
    const std::vector<Span> spans = session.Finish();
    ReportStages(PipelineLedger(spans), /*check_ledger=*/false, &report);
    report.Set("dist.frames_per_epoch", frames / epochs);
    report.Set("dist.bytes_per_epoch", bytes / epochs);
    report.Set("dist.barrier_waits_per_epoch", waits / epochs);
    report.Set("dist.handoff_objects",
               static_cast<double>(rounds.handoff_objects));
    const WindowStats plain_stats = Summarize(plain.replays, kTailPercentile);
    report.Set("obs.trace_overhead_ratio",
               Summarize(rounds.replays, kTailPercentile).ops_per_s /
                   plain_stats.ops_per_s);
    std::vector<double> reference_us;
    for (int r = 0; r < kReferenceRuns; ++r) {
      const double before = NowSeconds();
      const spire::EventStream again = spire::dist::RunDistReference(
          workload, trace.hops, spire::PipelineOptions{});
      reference_us.push_back((NowSeconds() - before) * 1e6);
      if (again != reference) report.Fail(1, "RunDistReference is not stable");
    }
    report.Set("dist.speedup_vs_reference",
               Median(reference_us) / plain_stats.latency_p50_us);
  }

  if (!args.trace) {
    const WindowStats stats = Summarize(rounds.replays, kTailPercentile);
    report.Set("setup_s", SetupSeconds(setups));
    report.Set("throughput_per_s", stats.ops_per_s);
    report.Set("latency_p50_us", stats.latency_p50_us);
    report.Set("latency_tail_us", stats.tail.value);
    report.Set("cpu_us_per_op", stats.cpu_us_per_op);
    report.Set("peak_rss_mb", rounds.peak_rss_mb);
    const std::string path = args.tmp_dir + "/fleet.sparc";
    WriteArchive(rounds.last_events, path);
    const double archive_bytes = static_cast<double>(ArchiveBytes(path));
    RemoveArchive(path);
    report.Set("archive_bytes_per_reading",
               archive_bytes / static_cast<double>(readings));
    // The transfer trace carries no ground truth: the distributed output
    // is scored against the serial reference (1 when they agree).
    report.Set("event_f1",
               spire::CompareEventStreams(
                   spire::Decompressor::DecompressAll(rounds.last_events),
                   spire::Decompressor::DecompressAll(reference),
                   spire::EventClass::kAll)
                   .FMeasure());
    report.Stamp("latency_tail", TailStamp(stats.tail, "fleet replays"));
  }
  report.Stamp("threads", "coordinator + " + std::to_string(kNodes) +
                              " node threads, " + std::to_string(kSites) +
                              " sites, pinned to cpu " + std::to_string(cpu));
  report.Stamp("window_s", std::to_string(rounds.wall_s));
  report.Stamp("replays",
               KeptStamp(Summarize(rounds.replays, kTailPercentile),
                         "replays of " + std::to_string(workload.num_epochs) +
                             " epochs, " + std::to_string(readings) +
                             " readings each,"));
  return report;
}

}  // namespace perfbench
