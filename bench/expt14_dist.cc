// Distributed serving throughput (beyond the paper): epochs/s of the
// src/dist coordinator + node runtime over a multi-site truck-transfer
// trace, at 1, 2, and 4 nodes, against the serial reference. Every run
// must reproduce the reference stream byte for byte (the
// distributed_equivalence oracle); the bench hard-fails on divergence.
// Loopback runs (node threads in-process) carry the handoff-latency
// histogram — in spawn mode the nodes' obs registries live in the child
// processes, invisible here — and one forked multi-process run measures
// the cross-process wire path. A second leg runs the `spire_cli serve`
// shape: four independent warehouse sites, no hops, loopback at 1, 2 and 4
// nodes (keys `serve.*`). Results land in BENCH_dist.json. Ideal scaling
// is min(nodes, sites, hardware threads); on a 1-thread machine expect
// ~1.0x, the byte-identity columns are the point.
//
//   ./expt14_dist [sites=3] [duration=600] [full=true] [key=value ...]
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "dist/coordinator.h"
#include "dist/runner.h"
#include "eval/table.h"
#include "obs/registry.h"
#include "serve/workload.h"
#include "sim/simulator.h"
#include "sim/transfer.h"

using namespace spire;
using namespace spire::bench;

namespace {

double Seconds(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// Simulates one independent warehouse site.
serve::SiteWorkload SimulateSite(SimConfig config, int site) {
  config.seed = config.seed + static_cast<std::uint64_t>(site);
  auto sim = WarehouseSimulator::Create(config);
  if (!sim.ok()) {
    std::fprintf(stderr, "simulator: %s\n", sim.status().ToString().c_str());
    std::exit(1);
  }
  WarehouseSimulator& s = *sim.value();
  serve::SiteWorkload workload;
  workload.name = "site-" + std::to_string(site);
  while (!s.Done()) {
    EpochReadings readings = s.Step();
    const auto epoch = static_cast<std::size_t>(s.current_epoch());
    if (epoch >= workload.epochs.size()) workload.epochs.resize(epoch + 1);
    workload.epochs[epoch] = std::move(readings);
  }
  workload.registry = s.registry();
  return workload;
}

/// The no-hop leg: four independent sites, normalized as `spire_cli serve`
/// does, run loopback at 1, 2 and 4 nodes. Fails unless every run is
/// byte-identical to the serial reference.
bool RunServeLeg(const Options& args, bool full, BenchReport* report) {
  constexpr int kSites = 4;
  SimConfig sim_config = SweepConfig(full);
  sim_config.duration_epochs = full ? 5400 : 1200;
  sim_config = ApplySimOverrides(args, sim_config);

  serve::Workload workload;
  for (int site = 0; site < kSites; ++site) {
    workload.sites.push_back(SimulateSite(sim_config, site));
  }
  Status status = serve::NormalizeWorkload(&workload);
  if (!status.ok()) {
    std::fprintf(stderr, "%s\n", status.ToString().c_str());
    return false;
  }
  std::printf("\nserve shape: %d independent site(s), %lld epochs, no hops\n",
              kSites, static_cast<long long>(workload.num_epochs));

  const auto ref_start = std::chrono::steady_clock::now();
  const EventStream reference =
      dist::RunDistReference(workload, {}, PipelineOptions{});
  const double ref_seconds = Seconds(ref_start);
  const double epochs = static_cast<double>(workload.num_epochs);
  const double ref_eps = ref_seconds > 0.0 ? epochs / ref_seconds : 0.0;
  report->Add("serve.sites", kSites);
  report->Add("serve.epochs", epochs);
  report->Add("serve.reference_epochs_per_sec", ref_eps);

  TextTable table({"config", "wall (s)", "epochs/s", "events", "identical"});
  table.AddRow({"serial reference", TextTable::Num(ref_seconds, 3),
                TextTable::Num(ref_eps, 1), std::to_string(reference.size()),
                "-"});
  for (int nodes : {1, 2, 4}) {
    dist::DistOptions options;
    options.num_nodes = nodes;
    const auto start = std::chrono::steady_clock::now();
    dist::DistResult result = dist::RunDistLoopback(workload, {}, options);
    const double wall = Seconds(start);
    if (!result.status.ok()) {
      std::fprintf(stderr, "serve loopback(%d): %s\n", nodes,
                   result.status.ToString().c_str());
      return false;
    }
    const double eps = wall > 0.0 ? epochs / wall : 0.0;
    const bool identical = result.events == reference;
    table.AddRow({std::to_string(nodes) + " node(s) no-hop loopback",
                  TextTable::Num(wall, 3), TextTable::Num(eps, 1),
                  std::to_string(result.events.size()),
                  identical ? "yes" : "NO"});
    const std::string prefix = "serve.nodes_" + std::to_string(nodes) + ".";
    report->Add(prefix + "wall_seconds", wall);
    report->Add(prefix + "epochs_per_sec", eps);
    report->Add(prefix + "identical_to_reference", identical ? 1.0 : 0.0);
    if (!identical) {
      std::fprintf(stderr,
                   "serve loopback(%d nodes) diverged from the serial "
                   "reference\n",
                   nodes);
      return false;
    }
  }
  table.Print();
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  // duration= defaults to 600, or 2400 with full=true.
  const Options args = ParseSimArgs(
      argc, argv,
      {BoolOption("full", false), IntOptionOf("sites", 3),
       IntOption("duration", 600)});
  const bool full = args.Bool("full");
  const int sites = static_cast<int>(args.Int("sites"));
  const Epoch duration =
      full && !args.Has("duration") ? 2400 : args.Int("duration");

  SimConfig sim_config = SweepConfig(full);
  sim_config.duration_epochs = duration;
  // Trucks shuttle often enough that every node-count run routes handoffs.
  sim_config.transfer_sites = sites;
  sim_config.transfer_interval = full ? 240 : 90;
  sim_config.transfer_round_trips = 2;
  sim_config = ApplySimOverrides(args, sim_config);

  PrintHeader("Expt 14: distributed serving throughput",
              "beyond the paper (src/dist scaling + handoffs)");
  std::printf("%d site(s), %lld epochs, %u hardware thread(s)\n\n",
              sim_config.transfer_sites,
              static_cast<long long>(sim_config.duration_epochs),
              std::thread::hardware_concurrency());

  auto trace = BuildTransferTrace(sim_config);
  if (!trace.ok()) {
    std::fprintf(stderr, "trace: %s\n", trace.status().ToString().c_str());
    return 1;
  }
  auto workload = dist::ToWorkload(trace.value());
  if (!workload.ok()) {
    std::fprintf(stderr, "workload: %s\n",
                 workload.status().ToString().c_str());
    return 1;
  }
  const std::vector<TransferHop>& hops = trace.value().hops;

  // Serial reference first: the stream every distributed run reproduces.
  const auto ref_start = std::chrono::steady_clock::now();
  EventStream reference =
      dist::RunDistReference(workload.value(), hops, PipelineOptions{});
  const double ref_seconds = Seconds(ref_start);
  const double ref_eps =
      ref_seconds > 0.0
          ? static_cast<double>(workload.value().num_epochs) / ref_seconds
          : 0.0;

  BenchReport report("dist");
  report.Add("sites", sim_config.transfer_sites);
  report.Add("epochs", static_cast<double>(workload.value().num_epochs));
  report.Add("transfer_hops", static_cast<double>(hops.size()));
  report.Add("reference_epochs_per_sec", ref_eps);

  TextTable table({"config", "wall (s)", "epochs/s", "speedup vs 1 node",
                   "events", "handoffs", "identical"});
  table.AddRow({"serial reference", TextTable::Num(ref_seconds, 3),
                TextTable::Num(ref_eps, 1), "-",
                std::to_string(reference.size()), "-", "-"});

  obs::SetEnabled(true);
  double one_node_eps = 0.0;
  for (int nodes : {1, 2, 4}) {
    obs::Registry::Global().Reset();
    dist::DistOptions options;
    options.num_nodes = nodes;
    const auto start = std::chrono::steady_clock::now();
    dist::DistResult result =
        dist::RunDistLoopback(workload.value(), hops, options);
    const double wall = Seconds(start);
    if (!result.status.ok()) {
      std::fprintf(stderr, "loopback(%d): %s\n", nodes,
                   result.status.ToString().c_str());
      return 1;
    }
    const double eps =
        wall > 0.0 ? static_cast<double>(workload.value().num_epochs) / wall
                   : 0.0;
    if (nodes == 1) one_node_eps = eps;
    const bool identical = result.events == reference;
    const obs::Histogram* latency =
        obs::Registry::Global().GetHistogram("dist", "handoff_latency_us");
    table.AddRow({std::to_string(nodes) + " node(s) loopback",
                  TextTable::Num(wall, 3), TextTable::Num(eps, 1),
                  TextTable::Num(one_node_eps > 0.0 ? eps / one_node_eps
                                                    : 0.0,
                                 2),
                  std::to_string(result.events.size()),
                  std::to_string(result.handoff_objects),
                  identical ? "yes" : "NO"});
    const std::string prefix = "nodes_" + std::to_string(nodes) + ".";
    report.Add(prefix + "wall_seconds", wall);
    report.Add(prefix + "epochs_per_sec", eps);
    report.Add(prefix + "speedup_vs_1_node",
               one_node_eps > 0.0 ? eps / one_node_eps : 0.0);
    report.Add(prefix + "events", static_cast<double>(result.events.size()));
    report.Add(prefix + "handoff_objects",
               static_cast<double>(result.handoff_objects));
    report.Add(prefix + "identical_to_reference", identical ? 1.0 : 0.0);
    report.Add(prefix + "p50_handoff_us", latency->Quantile(0.50));
    report.Add(prefix + "p95_handoff_us", latency->Quantile(0.95));
    report.Add(prefix + "p99_handoff_us", latency->Quantile(0.99));
    if (!identical) {
      std::fprintf(stderr,
                   "loopback(%d nodes) diverged from the serial reference\n",
                   nodes);
      return 1;
    }
  }
  obs::Registry::Global().Reset();
  obs::SetEnabled(false);

  // One forked multi-process run: the same protocol over real socketpairs
  // with each node in its own process — the deployment shape spire_cli
  // dist mode=spawn uses.
  {
    dist::DistOptions options;
    options.num_nodes = 2;
    const auto start = std::chrono::steady_clock::now();
    dist::DistResult result =
        dist::RunDistProcesses(workload.value(), hops, options);
    const double wall = Seconds(start);
    if (!result.status.ok()) {
      std::fprintf(stderr, "processes(2): %s\n",
                   result.status.ToString().c_str());
      return 1;
    }
    const double eps =
        wall > 0.0 ? static_cast<double>(workload.value().num_epochs) / wall
                   : 0.0;
    const bool identical = result.events == reference;
    table.AddRow({"2 process(es)", TextTable::Num(wall, 3),
                  TextTable::Num(eps, 1),
                  TextTable::Num(one_node_eps > 0.0 ? eps / one_node_eps
                                                    : 0.0,
                                 2),
                  std::to_string(result.events.size()),
                  std::to_string(result.handoff_objects),
                  identical ? "yes" : "NO"});
    report.Add("process_2.wall_seconds", wall);
    report.Add("process_2.epochs_per_sec", eps);
    report.Add("process_2.speedup_vs_1_node",
               one_node_eps > 0.0 ? eps / one_node_eps : 0.0);
    report.Add("process_2.identical_to_reference", identical ? 1.0 : 0.0);
    if (!identical) {
      std::fprintf(stderr,
                   "processes(2) diverged from the serial reference\n");
      return 1;
    }
    // The scaling target (1.5x at 2 nodes) only means anything with real
    // parallelism available; on fewer threads the run still proves the
    // wire path, so report and move on.
    if (std::thread::hardware_concurrency() >= 4 &&
        one_node_eps > 0.0 && eps / one_node_eps < 1.5) {
      std::fprintf(stderr,
                   "warning: multi-process speedup %.2fx below the 1.5x "
                   "target despite %u hardware threads\n",
                   eps / one_node_eps, std::thread::hardware_concurrency());
    }
  }
  table.Print();
  if (!RunServeLeg(args, full, &report)) return 1;

  Status status = report.Write();
  if (!status.ok()) {
    std::fprintf(stderr, "%s\n", status.ToString().c_str());
    return 1;
  }
  return 0;
}
