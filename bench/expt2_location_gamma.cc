// Expt 2 (Fig. 9(b)): location inference error versus gamma — the weight of
// colors propagated through containment edges against an object's own
// fading color — for several shelf-reader frequencies.
//
//   ./expt2_location_gamma [full=true] [key=value ...]
#include <cstdio>
#include <vector>

#include "bench/bench_util.h"
#include "eval/table.h"

using namespace spire;
using namespace spire::bench;

int main(int argc, char** argv) {
  const Options args = ParseSimArgs(argc, argv, {BoolOption("full", false)});
  SimConfig base = ApplySimOverrides(args, SweepConfig(args.Bool("full")));

  PrintHeader("Expt 2: location inference vs gamma", "Fig. 9(b)");

  const std::vector<Epoch> shelf_periods{1, 10, 30, 60};
  const std::vector<double> gammas{0.0, 0.05, 0.15, 0.3, 0.45,
                                   0.6, 0.75, 0.9,  1.0};

  TextTable table([&] {
    std::vector<std::string> header{"gamma"};
    for (Epoch period : shelf_periods) {
      header.push_back("shelf 1/" + std::to_string(period) + "s");
    }
    return header;
  }());
  for (double gamma : gammas) {
    std::vector<std::string> row{TextTable::Num(gamma, 2)};
    for (Epoch period : shelf_periods) {
      RunOptions options;
      options.sim = base;
      options.sim.shelf_period = period;
      options.pipeline.inference.gamma = gamma;
      row.push_back(TextTable::Num(
          RunSpireTrace(options).accuracy.LocationErrorRate(), 4));
    }
    table.AddRow(row);
  }
  std::printf("location error rate vs gamma:\n");
  table.Print();
  return 0;
}
