// Expt 3 (Fig. 9(d)): sensitivity of location and containment inference to
// the read rate, varied uniformly for all readers (shelf readers at one
// reading per minute, the paper's default).
//
//   ./expt3_read_rate [full=true] [key=value ...]
#include <cstdio>
#include <vector>

#include "bench/bench_util.h"
#include "eval/table.h"

using namespace spire;
using namespace spire::bench;

int main(int argc, char** argv) {
  const Options args = ParseSimArgs(argc, argv, {BoolOption("full", false)});
  SimConfig base = ApplySimOverrides(args, SweepConfig(args.Bool("full")));

  PrintHeader("Expt 3: inference error vs read rate", "Fig. 9(d)");

  TextTable table({"read rate", "location error", "containment error"});
  for (double read_rate : {0.5, 0.6, 0.7, 0.8, 0.9, 1.0}) {
    RunOptions options;
    options.sim = base;
    options.sim.read_rate = read_rate;
    RunMetrics metrics = RunSpireTrace(options);
    table.AddRow({TextTable::Num(read_rate, 2),
                  TextTable::Num(metrics.accuracy.LocationErrorRate(), 4),
                  TextTable::Num(metrics.accuracy.ContainmentErrorRate(), 4)});
  }
  table.Print();
  return 0;
}
