// Expt 5 (Table III): per-epoch costs of graph update and inference for
// graphs of increasing size. Pallets are injected at a high rate and parked
// on shelves so the graph keeps growing; at each node-count checkpoint the
// costs are averaged over a measurement window.
//
// Absolute seconds differ from the paper's (Java on a 2.33 GHz Xeon); the
// shape to check is sub-second epochs with inference dominating update and
// both growing roughly linearly in the object count.
//
//   ./expt5_throughput [full=true] [key=value ...]
#include <cstdio>
#include <vector>

#include "bench/bench_util.h"
#include "eval/table.h"
#include "sim/simulator.h"

using namespace spire;
using namespace spire::bench;

int main(int argc, char** argv) {
  const Options args = ParseSimArgs(argc, argv, {BoolOption("full", false)});
  const bool full = args.Bool("full");

  SimConfig sim_config;
  // High-rate injection (paper: up to one pallet per 4 s) tuned so the
  // receiving belt keeps up; objects accumulate on many shelves.
  sim_config.pallet_interval = 8;
  sim_config.belt_dwell = 1;
  sim_config.transit_time = 1;
  sim_config.min_cases_per_pallet = 5;
  sim_config.max_cases_per_pallet = 8;
  sim_config.items_per_case = 20;
  sim_config.num_shelves = 64;
  sim_config.shelf_period = 60;
  sim_config.mean_shelf_stay = 1000000;  // Park: the graph only grows.
  sim_config.duration_epochs = 1000000;  // Bounded by the target list below.
  sim_config = ApplySimOverrides(args, sim_config);

  std::vector<std::size_t> targets =
      full ? std::vector<std::size_t>{25000, 55000, 75000, 95000, 135000,
                                      155000, 175000}
           : std::vector<std::size_t>{5000, 15000, 25000, 40000};
  constexpr Epoch kWindow = 120;  // Two complete-inference passes.

  PrintHeader("Expt 5: processing cost vs graph size", "Table III");

  auto sim = WarehouseSimulator::Create(sim_config);
  if (!sim.ok()) {
    std::fprintf(stderr, "%s\n", sim.status().ToString().c_str());
    return 1;
  }
  WarehouseSimulator& s = *sim.value();
  SpirePipeline pipeline(&s.registry(), PipelineOptions{});
  EventStream sink;

  TextTable table({"objects", "edges", "update (s/epoch)",
                   "inference (s/epoch)", "complete inf (s)", "total (s/epoch)"});
  BenchReport report("throughput");
  std::size_t next_target = 0;
  while (next_target < targets.size() && !s.Done()) {
    EpochReadings readings = s.Step();
    pipeline.ProcessEpoch(s.current_epoch(), std::move(readings), &sink);
    sink.clear();
    if (s.objects_alive() < targets[next_target]) continue;

    // Measurement window at this size.
    double update = 0.0, inference = 0.0, complete = 0.0;
    int complete_count = 0;
    for (Epoch i = 0; i < kWindow; ++i) {
      EpochReadings window_readings = s.Step();
      pipeline.ProcessEpoch(s.current_epoch(), std::move(window_readings),
                            &sink);
      sink.clear();
      update += pipeline.last_costs().update_seconds;
      inference += pipeline.last_costs().inference_seconds;
      if (pipeline.last_epoch_complete()) {
        complete += pipeline.last_costs().inference_seconds;
        ++complete_count;
      }
    }
    double per_epoch_update = update / kWindow;
    double per_epoch_inference = inference / kWindow;
    table.AddRow({std::to_string(pipeline.graph().NumNodes()),
                  std::to_string(pipeline.graph().NumEdges()),
                  TextTable::Num(per_epoch_update, 6),
                  TextTable::Num(per_epoch_inference, 6),
                  TextTable::Num(complete_count > 0
                                     ? complete / complete_count
                                     : 0.0,
                                 6),
                  TextTable::Num(per_epoch_update + per_epoch_inference, 6)});
    const double total = per_epoch_update + per_epoch_inference;
    const std::string prefix =
        "objects_" + std::to_string(targets[next_target]) + ".";
    report.Add(prefix + "update_s_per_epoch", per_epoch_update);
    report.Add(prefix + "inference_s_per_epoch", per_epoch_inference);
    report.Add(prefix + "epochs_per_sec", total > 0.0 ? 1.0 / total : 0.0);
    ++next_target;
  }
  table.Print();
  Status status = report.Write();
  if (!status.ok()) {
    std::fprintf(stderr, "%s\n", status.ToString().c_str());
    return 1;
  }
  return 0;
}
