// Expt 12: delta-driven inference (DESIGN.md §10) vs full recomputation.
//
// Two pipelines consume identical readings under
// InferenceMode::kAlwaysComplete (a complete pass every epoch — the setting
// where the scheduler matters most); one runs with
// InferenceParams::incremental on, the other recomputes the whole graph
// each pass. Their event streams are required to be byte-identical — the
// run aborts otherwise — so the numbers compare equal outputs.
//
// Two workloads bound the win:
//  * stationary — the expt5 shape: pallets park on shelves and stay, so an
//    epoch's dirty set is a thin slice of a large graph. This is where
//    delta-driven inference pays (target: >= 3x complete-pass throughput).
//  * churny — short shelf stays and fast injection keep most of the graph
//    moving; there is little to skip and the question is how much the
//    bookkeeping costs (target: within ~10% of full recomputation).
//
//   ./expt12_incremental [full=true] [key=value ...]
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "eval/table.h"
#include "sim/simulator.h"

using namespace spire;
using namespace spire::bench;

namespace {

struct ModeCosts {
  double update_s = 0.0;
  double inference_s = 0.0;
  double total() const { return update_s + inference_s; }
};

struct WorkloadResult {
  std::size_t objects = 0;
  std::size_t edges = 0;
  Epoch epochs = 0;
  ModeCosts full;
  ModeCosts incremental;
  bool identical = false;
};

/// Runs one workload through both modes, feeding byte-identical readings,
/// and checks the output streams agree event for event.
Status RunWorkload(const SimConfig& sim_config, Epoch warmup, Epoch measure,
                   WorkloadResult* result) {
  auto sim = WarehouseSimulator::Create(sim_config);
  if (!sim.ok()) return sim.status();
  WarehouseSimulator& s = *sim.value();

  PipelineOptions base;
  base.inference_mode = InferenceMode::kAlwaysComplete;
  PipelineOptions full_options = base;
  full_options.inference.incremental = false;
  PipelineOptions incremental_options = base;
  incremental_options.inference.incremental = true;

  SpirePipeline full(&s.registry(), full_options);
  SpirePipeline incremental(&s.registry(), incremental_options);
  EventStream full_out, incremental_out;

  for (Epoch e = 0; e < warmup + measure && !s.Done(); ++e) {
    EpochReadings readings = s.Step();
    EpochReadings copy = readings;  // Same bytes into both pipelines.
    const Epoch epoch = s.current_epoch();
    full.ProcessEpoch(epoch, std::move(readings), &full_out);
    incremental.ProcessEpoch(epoch, std::move(copy), &incremental_out);
    if (full_out != incremental_out) {
      return Status::Internal(
          "incremental output diverged from full recomputation at epoch " +
          std::to_string(epoch));
    }
    full_out.clear();
    incremental_out.clear();
    if (e >= warmup) {
      result->full.update_s += full.last_costs().update_seconds;
      result->full.inference_s += full.last_costs().inference_seconds;
      result->incremental.update_s += incremental.last_costs().update_seconds;
      result->incremental.inference_s +=
          incremental.last_costs().inference_seconds;
      ++result->epochs;
    }
  }
  result->objects = full.graph().NumNodes();
  result->edges = full.graph().NumEdges();
  result->identical = true;
  return Status::OK();
}

}  // namespace

int main(int argc, char** argv) {
  const Options args = ParseSimArgs(argc, argv, {BoolOption("full", false)});
  const bool full_mode = args.Bool("full");

  // Stationary: the expt5 shape — the graph grows and parks.
  SimConfig stationary;
  stationary.pallet_interval = 8;
  stationary.belt_dwell = 1;
  stationary.transit_time = 1;
  stationary.min_cases_per_pallet = 5;
  stationary.max_cases_per_pallet = 8;
  stationary.items_per_case = 20;
  stationary.num_shelves = 64;
  stationary.shelf_period = 60;
  stationary.mean_shelf_stay = 1000000;  // Park: the graph only grows.
  stationary.duration_epochs = 1000000;

  // Churny: everything keeps moving, so most components are dirty.
  SimConfig churny;
  churny.pallet_interval = 4;
  churny.belt_dwell = 1;
  churny.transit_time = 1;
  churny.min_cases_per_pallet = 2;
  churny.max_cases_per_pallet = 4;
  churny.items_per_case = 5;
  churny.num_shelves = 16;
  churny.shelf_period = 2;  // Fast shelves: colors arrive constantly.
  churny.mean_shelf_stay = 8;
  churny.duration_epochs = 1000000;

  const Epoch warmup = full_mode ? 800 : 250;
  const Epoch measure = full_mode ? 800 : 250;

  PrintHeader("Expt 12: delta-driven vs full complete inference",
              "DESIGN.md §10");

  BenchReport report("incremental");
  TextTable table({"workload", "objects", "edges", "full (s/epoch)",
                   "incremental (s/epoch)", "speedup"});
  bool ok = true;
  for (auto& [name, config] :
       std::vector<std::pair<std::string, SimConfig>>{
           {"stationary", stationary}, {"churny", churny}}) {
    config = ApplySimOverrides(args, config);
    WorkloadResult result;
    Status status = RunWorkload(config, warmup, measure, &result);
    if (!status.ok()) {
      std::fprintf(stderr, "%s: %s\n", name.c_str(),
                   status.ToString().c_str());
      return 1;
    }
    const double full_epoch = result.full.total() / result.epochs;
    const double inc_epoch = result.incremental.total() / result.epochs;
    const double speedup = inc_epoch > 0.0 ? full_epoch / inc_epoch : 0.0;
    table.AddRow({name, std::to_string(result.objects),
                  std::to_string(result.edges),
                  TextTable::Num(full_epoch, 6), TextTable::Num(inc_epoch, 6),
                  TextTable::Num(speedup, 2)});
    report.Add(name + ".full_s_per_epoch", full_epoch);
    report.Add(name + ".incremental_s_per_epoch", inc_epoch);
    report.Add(name + ".full_epochs_per_sec",
               full_epoch > 0.0 ? 1.0 / full_epoch : 0.0);
    report.Add(name + ".incremental_epochs_per_sec",
               inc_epoch > 0.0 ? 1.0 / inc_epoch : 0.0);
    report.Add(name + ".speedup", speedup);
    // Update cost is mode-independent; the inference-only ratio isolates
    // what the scheduler actually changed.
    const double full_inf = result.full.inference_s / result.epochs;
    const double inc_inf = result.incremental.inference_s / result.epochs;
    report.Add(name + ".full_inference_s_per_epoch", full_inf);
    report.Add(name + ".incremental_inference_s_per_epoch", inc_inf);
    report.Add(name + ".inference_speedup",
               inc_inf > 0.0 ? full_inf / inc_inf : 0.0);
    ok = ok && result.identical;
  }
  table.Print();
  if (!ok) return 1;
  Status status = report.Write();
  if (!status.ok()) {
    std::fprintf(stderr, "%s\n", status.ToString().c_str());
    return 1;
  }
  return 0;
}
