// Mobile-reader extension study (the paper's future work, Section VIII):
// adds a patrolling reader cycling the shelves and measures what the extra
// mobile observations buy across read rates — location/containment error,
// output event accuracy, and theft-detection delay.
//
//   ./mobile_reader [full=true] [key=value ...]
#include <cstdio>
#include <vector>

#include "bench/bench_util.h"
#include "eval/table.h"

using namespace spire;
using namespace spire::bench;

int main(int argc, char** argv) {
  const Options args = ParseSimArgs(argc, argv, {BoolOption("full", false)});
  SimConfig base = SweepConfig(args.Bool("full"));
  base.theft_interval = 200;
  base.patrol_dwell = 8;
  base = ApplySimOverrides(args, base);

  PrintHeader("Extension: a patrolling mobile reader over the shelves",
              "future work of Section VIII (mix of mobile and static readers)");

  TextTable table({"read rate", "loc err", "loc err+patrol", "delay (s)",
                   "delay+patrol", "loc F", "loc F+patrol"});
  for (double read_rate : {0.5, 0.7, 0.85, 1.0}) {
    RunMetrics metrics[2];
    for (int patrol = 0; patrol < 2; ++patrol) {
      RunOptions options;
      options.sim = base;
      options.sim.read_rate = read_rate;
      options.sim.patrol_reader = patrol == 1;
      metrics[patrol] = RunSpireTrace(options);
    }
    table.AddRow({TextTable::Num(read_rate, 2),
                  TextTable::Num(metrics[0].accuracy.LocationErrorRate(), 4),
                  TextTable::Num(metrics[1].accuracy.LocationErrorRate(), 4),
                  TextTable::Num(metrics[0].delay.mean_delay, 0),
                  TextTable::Num(metrics[1].delay.mean_delay, 0),
                  TextTable::Num(metrics[0].f_location.FMeasure(), 4),
                  TextTable::Num(metrics[1].f_location.FMeasure(), 4)});
  }
  table.Print();
  std::printf("\n(patrol dwell %lld epochs per shelf; thefts every %llds)\n",
              static_cast<long long>(base.patrol_dwell),
              static_cast<long long>(base.theft_interval));
  return 0;
}
