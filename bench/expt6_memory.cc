// Expt 6 (Fig. 10): graph memory usage versus node count for several edge-
// pruning thresholds, plus the accuracy cost of pruning.
//
// The paper measured JVM heap; we use the graph's deterministic byte
// accounting. The shape to check: without pruning memory grows super-
// linearly (candidate-edge accumulation), while thresholds 0.5/0.75 keep
// growth linear; pruning barely hurts location accuracy but costs a few
// points of containment accuracy.
//
//   ./expt6_memory [full=true] [key=value ...]
#include <cstdio>
#include <map>
#include <vector>

#include "bench/bench_util.h"
#include "eval/table.h"
#include "sim/simulator.h"

using namespace spire;
using namespace spire::bench;

namespace {

/// Grows a graph with the given pruning threshold and samples memory at
/// each node-count checkpoint.
std::map<std::size_t, std::size_t> MemoryProfile(
    const SimConfig& sim_config, double threshold,
    const std::vector<std::size_t>& checkpoints) {
  auto sim = WarehouseSimulator::Create(sim_config);
  WarehouseSimulator& s = *sim.value();
  PipelineOptions options;
  options.inference.prune_threshold = threshold;
  SpirePipeline pipeline(&s.registry(), options);
  EventStream sink;
  std::map<std::size_t, std::size_t> profile;
  std::size_t next = 0;
  while (next < checkpoints.size() && !s.Done()) {
    EpochReadings readings = s.Step();
    pipeline.ProcessEpoch(s.current_epoch(), std::move(readings), &sink);
    sink.clear();
    if (pipeline.graph().NumNodes() >= checkpoints[next]) {
      profile[checkpoints[next]] = pipeline.graph().MemoryUsage();
      ++next;
    }
  }
  return profile;
}

}  // namespace

int main(int argc, char** argv) {
  const Options args = ParseSimArgs(argc, argv, {BoolOption("full", false)});
  const bool full = args.Bool("full");

  SimConfig sim_config;
  sim_config.pallet_interval = 8;
  sim_config.belt_dwell = 1;
  sim_config.transit_time = 1;
  sim_config.min_cases_per_pallet = 5;
  sim_config.max_cases_per_pallet = 8;
  sim_config.items_per_case = 20;
  sim_config.num_shelves = 64;
  sim_config.shelf_period = 60;
  sim_config.mean_shelf_stay = 1000000;
  sim_config.duration_epochs = 1000000;
  sim_config = ApplySimOverrides(args, sim_config);

  std::vector<std::size_t> checkpoints =
      full ? std::vector<std::size_t>{25000, 50000, 75000, 100000, 125000,
                                      150000, 175000}
           : std::vector<std::size_t>{5000, 10000, 20000, 30000};
  const std::vector<double> thresholds{0.0, 0.25, 0.5, 0.75};

  PrintHeader("Expt 6: graph memory vs node count and pruning threshold",
              "Fig. 10");

  std::map<double, std::map<std::size_t, std::size_t>> profiles;
  for (double threshold : thresholds) {
    profiles[threshold] = MemoryProfile(sim_config, threshold, checkpoints);
  }

  TextTable table([&] {
    std::vector<std::string> header{"nodes"};
    for (double threshold : thresholds) {
      header.push_back("MB @ prune=" + TextTable::Num(threshold, 2));
    }
    return header;
  }());
  for (std::size_t checkpoint : checkpoints) {
    std::vector<std::string> row{std::to_string(checkpoint)};
    for (double threshold : thresholds) {
      auto it = profiles[threshold].find(checkpoint);
      row.push_back(it == profiles[threshold].end()
                        ? "-"
                        : TextTable::Num(it->second / (1024.0 * 1024.0), 1));
    }
    table.AddRow(row);
  }
  table.Print();

  // Accuracy cost of pruning (paper: <1% location, up to 8.2% containment).
  // Run at a reduced read rate: with strong confirmations pruning is free,
  // the cost shows when containment rests on co-location history.
  std::printf("\naccuracy cost of pruning (sweep workload, read rate 0.6):\n");
  TextTable accuracy_table(
      {"prune", "location error", "containment error"});
  for (double threshold : {0.0, 0.25, 0.5, 0.75}) {
    RunOptions options;
    options.sim = SweepConfig(full);
    options.sim.read_rate = 0.6;
    options.pipeline.inference.prune_threshold = threshold;
    RunMetrics metrics = RunSpireTrace(options);
    accuracy_table.AddRow(
        {TextTable::Num(threshold, 2),
         TextTable::Num(metrics.accuracy.LocationErrorRate(), 4),
         TextTable::Num(metrics.accuracy.ContainmentErrorRate(), 4)});
  }
  accuracy_table.Print();
  return 0;
}
