// Expt 7 (Fig. 11(a)): accuracy of the output event stream — F-measure of
// SPIRE versus the SMURF baseline across read rates. Only object location
// events are compared (SMURF has no containment notion); SPIRE's
// containment-event accuracy is reported separately for reference.
//
//   ./expt7_fmeasure [full=true] [key=value ...]
#include <cstdio>
#include <vector>

#include "bench/bench_util.h"
#include "eval/table.h"

using namespace spire;
using namespace spire::bench;

int main(int argc, char** argv) {
  const Options args = ParseSimArgs(argc, argv, {BoolOption("full", false)});
  SimConfig base = ApplySimOverrides(args, PaperOutputConfig(args.Bool("full")));

  PrintHeader("Expt 7: output event accuracy, SPIRE vs SMURF", "Fig. 11(a)");

  TextTable table({"read rate", "SPIRE F", "SPIRE P", "SPIRE R", "SMURF F",
                   "SMURF P", "SMURF R", "SPIRE cont. F"});
  for (double read_rate : {0.5, 0.6, 0.7, 0.8, 0.9, 1.0}) {
    SimConfig sim = base;
    sim.read_rate = read_rate;

    RunOptions spire_options;
    spire_options.sim = sim;
    spire_options.pipeline.level = CompressionLevel::kLevel1;
    RunMetrics spire_metrics = RunSpireTrace(spire_options);
    RunMetrics smurf_metrics = RunSmurfTrace(sim);

    table.AddRow({TextTable::Num(read_rate, 2),
                  TextTable::Num(spire_metrics.f_location.FMeasure(), 4),
                  TextTable::Num(spire_metrics.f_location.Precision(), 4),
                  TextTable::Num(spire_metrics.f_location.Recall(), 4),
                  TextTable::Num(smurf_metrics.f_location.FMeasure(), 4),
                  TextTable::Num(smurf_metrics.f_location.Precision(), 4),
                  TextTable::Num(smurf_metrics.f_location.Recall(), 4),
                  TextTable::Num(spire_metrics.f_all.FMeasure(), 4)});
  }
  table.Print();
  std::printf("\n(location events only for the SPIRE/SMURF columns; the last"
              " column is SPIRE's all-event F-measure)\n");
  return 0;
}
