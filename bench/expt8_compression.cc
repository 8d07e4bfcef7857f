// Expt 8 (Fig. 11(b) and 11(c)): compression ratios versus read rate.
//
// Fig. 11(b): location events only — SMURF vs level-1 vs level-2.
// Fig. 11(c): full output (location + containment) for level-1 and level-2,
// with the location-only ratios as a reference.
//
// Shape to check: SMURF comparable to level-1 at high read rates but much
// worse below ~0.7; level-2 beats level-1 above a crossover near 0.65 and
// loses below it; at high read rates level-2 reaches a few percent of the
// raw input size.
//
//   ./expt8_compression [full=true] [key=value ...]
#include <cstdio>
#include <vector>

#include "bench/bench_util.h"
#include "eval/table.h"

using namespace spire;
using namespace spire::bench;

int main(int argc, char** argv) {
  const Options args = ParseSimArgs(argc, argv, {BoolOption("full", false)});
  SimConfig base = ApplySimOverrides(args, PaperOutputConfig(args.Bool("full")));

  PrintHeader("Expt 8: compression ratio vs read rate",
              "Fig. 11(b) location only; Fig. 11(c) with containment");

  TextTable location_table(
      {"read rate", "SMURF", "level-1 (loc)", "level-2 (loc)"});
  TextTable full_table({"read rate", "level-1 (all)", "level-2 (all)",
                        "level-1 (loc)", "level-2 (loc)"});

  for (double read_rate : {0.5, 0.6, 0.65, 0.7, 0.8, 0.9, 1.0}) {
    SimConfig sim = base;
    sim.read_rate = read_rate;

    RunOptions level1;
    level1.sim = sim;
    level1.pipeline.level = CompressionLevel::kLevel1;
    RunMetrics m1 = RunSpireTrace(level1);

    RunOptions level2;
    level2.sim = sim;
    level2.pipeline.level = CompressionLevel::kLevel2;
    RunMetrics m2 = RunSpireTrace(level2);

    RunMetrics smurf = RunSmurfTrace(sim);

    location_table.AddRow({TextTable::Num(read_rate, 2),
                           TextTable::Num(smurf.location_ratio, 4),
                           TextTable::Num(m1.location_ratio, 4),
                           TextTable::Num(m2.location_ratio, 4)});
    full_table.AddRow({TextTable::Num(read_rate, 2),
                       TextTable::Num(m1.ratio, 4),
                       TextTable::Num(m2.ratio, 4),
                       TextTable::Num(m1.location_ratio, 4),
                       TextTable::Num(m2.location_ratio, 4)});
  }
  std::printf("Fig. 11(b): location events only\n");
  location_table.Print();
  std::printf("\nFig. 11(c): location + containment output\n");
  full_table.Print();
  return 0;
}
