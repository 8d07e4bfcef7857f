// Expt 11: overhead of the observability layer (DESIGN.md §9).
//
// The obs contract is that a disabled build costs one branch on a pointer
// per instrumented site. This bench runs the same simulated trace through
// the full pipeline three ways — instruments off, instruments on, and
// instruments on with an active trace session plus explain channel — and
// reports wall seconds for each, interleaving the configurations A/B/A/B
// across repetitions so drift hits all arms equally. The number to watch is
// `enabled_over_disabled`: metrics alone should be within noise of off
// (single-digit percent), and full tracing low multiples of that.
//
// The dist leg (dist=true, on by default) repeats the comparison for the
// fleet machinery: a 2-node loopback transfer run with per-epoch
// StatsReport frames, ClockSync, and cross-node handoff spans against the
// same run with everything off. Its ratios are reported, not gated: CI
// gates the traced dist overhead through perfbench's steal-filtered
// sites_fleet `obs.trace_overhead_ratio` (tools/ci.sh).
//
//   ./expt11_obs [full=true] [reps=N] [dist=false] [key=value ...]
#include <algorithm>
#include <climits>
#include <cstdio>
#include <filesystem>
#include <vector>

#include "bench/bench_util.h"
#include "dist/runner.h"
#include "eval/table.h"
#include "obs/explain.h"
#include "obs/registry.h"
#include "obs/trace.h"
#include "sim/simulator.h"
#include "sim/transfer.h"

using namespace spire;
using namespace spire::bench;

namespace {

struct Arm {
  const char* name;
  bool enabled = false;
  bool traced = false;
  std::vector<double> seconds;
};

/// One full pipeline run; returns wall seconds of the processing loop.
double RunOnce(const SimConfig& sim_config, bool enabled, bool traced,
               const std::string& trace_path) {
  obs::SetEnabled(enabled);
  if (traced) {
    Status status = obs::Tracer::Global().Start(trace_path);
    if (!status.ok()) {
      std::fprintf(stderr, "%s\n", status.ToString().c_str());
      std::exit(1);
    }
  }
  auto sim = WarehouseSimulator::Create(sim_config);
  if (!sim.ok()) {
    std::fprintf(stderr, "%s\n", sim.status().ToString().c_str());
    std::exit(1);
  }
  WarehouseSimulator& s = *sim.value();
  SpirePipeline pipeline(&s.registry(), PipelineOptions{});
  obs::ExplainLog explain;
  if (traced) pipeline.SetExplainSink(&explain);

  EventStream sink;
  const auto start = std::chrono::steady_clock::now();
  while (!s.Done()) {
    EpochReadings readings = s.Step();
    pipeline.ProcessEpoch(s.current_epoch(), std::move(readings), &sink);
  }
  pipeline.Finish(s.current_epoch() + 1, &sink);
  const auto end = std::chrono::steady_clock::now();

  if (traced) {
    Status status = obs::Tracer::Global().Stop();
    if (!status.ok()) {
      std::fprintf(stderr, "%s\n", status.ToString().c_str());
      std::exit(1);
    }
  }
  obs::SetEnabled(false);
  return std::chrono::duration<double>(end - start).count();
}

double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return values[values.size() / 2];
}

/// One 2-node loopback run over `workload`; with `traced` the full fleet
/// observability stack is live: metrics, per-epoch StatsReport frames,
/// and an active trace session collecting cross-node handoff spans.
double RunDistOnce(const serve::Workload& workload,
                   const std::vector<TransferHop>& hops, bool traced,
                   const std::string& trace_path, EventStream* events) {
  if (traced) {
    obs::SetEnabled(true);
    obs::Registry::Global().Reset();
    Status status = obs::Tracer::Global().Start(trace_path);
    if (!status.ok()) {
      std::fprintf(stderr, "%s\n", status.ToString().c_str());
      std::exit(1);
    }
  }
  dist::DistOptions options;
  options.num_nodes = 2;
  // The statusz default cadence (spire_cli dist stats_every): the oracle
  // leg covers the pathological per-epoch case; this arm measures what a
  // monitored fleet actually pays.
  if (traced) options.stats_interval_epochs = 16;
  const auto start = std::chrono::steady_clock::now();
  dist::DistResult result = dist::RunDistLoopback(workload, hops, options);
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  if (traced) {
    Status status = obs::Tracer::Global().Stop();
    if (!status.ok()) {
      std::fprintf(stderr, "%s\n", status.ToString().c_str());
      std::exit(1);
    }
    obs::SetEnabled(false);
  }
  if (!result.status.ok()) {
    std::fprintf(stderr, "dist leg: %s\n", result.status.ToString().c_str());
    std::exit(1);
  }
  *events = std::move(result.events);
  return wall;
}

}  // namespace

int main(int argc, char** argv) {
  // reps= defaults to 5, or 7 with full=true.
  const Options args = ParseSimArgs(
      argc, argv,
      {BoolOption("full", false), IntOption("reps", 5, 1, INT_MAX),
       BoolOption("dist", true)});
  const bool full = args.Bool("full");
  const int reps =
      full && !args.Has("reps") ? 7 : static_cast<int>(args.Int("reps"));

  const SimConfig sim_config = ApplySimOverrides(args, SweepConfig(full));

  const std::string trace_path =
      (std::filesystem::temp_directory_path() / "expt11_obs_trace.json")
          .string();

  PrintHeader("Expt 11: observability overhead",
              "DESIGN.md §9 (disabled = one branch on a pointer)");

  Arm arms[] = {{"obs off", false, false, {}},
                {"metrics on", true, false, {}},
                {"metrics+trace+explain", true, true, {}}};
  // Warm-up run (page cache, allocator) discarded.
  RunOnce(sim_config, false, false, trace_path);
  for (int rep = 0; rep < reps; ++rep) {
    for (Arm& arm : arms) {
      arm.seconds.push_back(
          RunOnce(sim_config, arm.enabled, arm.traced, trace_path));
    }
  }
  std::error_code ec;
  std::filesystem::remove(trace_path, ec);

  const double off = Median(arms[0].seconds);
  TextTable table({"configuration", "median (s)", "vs off"});
  BenchReport report("obs");
  for (const Arm& arm : arms) {
    const double median = Median(arm.seconds);
    table.AddRow({arm.name, TextTable::Num(median, 4),
                  TextTable::Num(off > 0.0 ? median / off : 0.0, 3)});
  }
  table.Print();

  report.Add("reps", reps);
  report.Add("disabled_s", off);
  report.Add("enabled_s", Median(arms[1].seconds));
  report.Add("traced_s", Median(arms[2].seconds));
  report.Add("enabled_over_disabled",
             off > 0.0 ? Median(arms[1].seconds) / off : 0.0);
  report.Add("traced_over_disabled",
             off > 0.0 ? Median(arms[2].seconds) / off : 0.0);

  if (args.Bool("dist")) {
    // Fleet leg: the same overhead question for the distributed runtime,
    // with the stats cadence at its maximum (a StatsReport per node per
    // epoch) and the tracer collecting cross-node handoff spans.
    SimConfig dist_config = sim_config;
    dist_config.transfer_sites = 3;
    dist_config.transfer_interval = 90;
    dist_config.transfer_dwell = 4;
    dist_config.transfer_transit = 6;
    dist_config.transfer_round_trips = 2;
    auto transfer = BuildTransferTrace(dist_config);
    if (!transfer.ok()) {
      std::fprintf(stderr, "%s\n", transfer.status().ToString().c_str());
      return 1;
    }
    auto workload = dist::ToWorkload(transfer.value());
    if (!workload.ok()) {
      std::fprintf(stderr, "%s\n", workload.status().ToString().c_str());
      return 1;
    }
    const std::vector<TransferHop>& hops = transfer.value().hops;

    EventStream baseline_events;
    EventStream traced_events;
    std::vector<double> dist_off;
    std::vector<double> dist_traced;
    RunDistOnce(workload.value(), hops, false, trace_path,
                &baseline_events);  // Warm-up, discarded.
    for (int rep = 0; rep < reps; ++rep) {
      dist_off.push_back(RunDistOnce(workload.value(), hops, false,
                                     trace_path, &baseline_events));
      dist_traced.push_back(RunDistOnce(workload.value(), hops, true,
                                        trace_path, &traced_events));
    }
    std::filesystem::remove(trace_path, ec);
    if (traced_events != baseline_events) {
      std::fprintf(stderr,
                   "dist leg: stats+tracing changed the merged stream\n");
      return 1;
    }

    const double dist_disabled_s = Median(dist_off);
    const double dist_traced_s = Median(dist_traced);
    const double over =
        dist_disabled_s > 0.0 ? dist_traced_s / dist_disabled_s : 0.0;
    TextTable dist_table({"configuration", "median (s)", "vs off"});
    dist_table.AddRow({"dist 2-node, obs off",
                       TextTable::Num(dist_disabled_s, 4), "1.000"});
    dist_table.AddRow({"dist 2-node, stats+trace",
                       TextTable::Num(dist_traced_s, 4),
                       TextTable::Num(over, 3)});
    std::printf("\n");
    dist_table.Print();
    report.Add("dist_disabled_s", dist_disabled_s);
    report.Add("dist_traced_s", dist_traced_s);
    report.Add("dist_traced_over_disabled", over);
  }

  Status status = report.Write();
  if (!status.ok()) {
    std::fprintf(stderr, "%s\n", status.ToString().c_str());
    return 1;
  }
  return 0;
}
