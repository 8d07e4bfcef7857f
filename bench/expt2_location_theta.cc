// Expt 2 (Fig. 9(c)): location inference error versus theta — the fading
// exponent on the belief in an object's continued presence at its last
// observed location — for several shelf-reader frequencies.
//
//   ./expt2_location_theta [full=true] [key=value ...]
#include <cstdio>
#include <vector>

#include "bench/bench_util.h"
#include "eval/table.h"

using namespace spire;
using namespace spire::bench;

int main(int argc, char** argv) {
  const Options args = ParseSimArgs(argc, argv, {BoolOption("full", false)});
  SimConfig base = ApplySimOverrides(args, SweepConfig(args.Bool("full")));

  PrintHeader("Expt 2: location inference vs theta", "Fig. 9(c)");

  const std::vector<Epoch> shelf_periods{1, 10, 30, 60};
  const std::vector<double> thetas{0.05, 0.15, 0.35, 0.75, 1.0,
                                   1.25, 1.5,  2.0,  3.0,  4.0};

  // Two read rates: at the default 0.85 conflict resolution rescues most
  // over-eager "unknown" verdicts, so the high-theta penalty of Fig. 9(c)
  // shows most clearly at a lower read rate.
  for (double read_rate : {base.read_rate, 0.6}) {
    TextTable table([&] {
      std::vector<std::string> header{"theta"};
      for (Epoch period : shelf_periods) {
        header.push_back("shelf 1/" + std::to_string(period) + "s");
      }
      return header;
    }());
    for (double theta : thetas) {
      std::vector<std::string> row{TextTable::Num(theta, 2)};
      for (Epoch period : shelf_periods) {
        RunOptions options;
        options.sim = base;
        options.sim.read_rate = read_rate;
        options.sim.shelf_period = period;
        options.pipeline.inference.theta = theta;
        row.push_back(TextTable::Num(
            RunSpireTrace(options).accuracy.LocationErrorRate(), 4));
      }
      table.AddRow(row);
    }
    std::printf("location error rate vs theta (read rate %.2f):\n",
                read_rate);
    table.Print();
    std::printf("\n");
  }
  return 0;
}
