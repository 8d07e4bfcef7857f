// Side-by-side comparison of SPIRE against the SMURF smoothing baseline on
// the same trace (the Section VI-D methodology in miniature): event
// accuracy, output volume, and what SMURF structurally cannot provide —
// containment.
//
//   ./baseline_comparison [key=value ...]    e.g. read_rate=0.6
#include <cstdio>

#include "compress/decompress.h"
#include "eval/event_accuracy.h"
#include "eval/size_accounting.h"
#include "sim/simulator.h"
#include "smurf/smurf_pipeline.h"
#include "spire/pipeline.h"

using namespace spire;

namespace {

SimConfig ScenarioConfig(const Options& args) {
  SimConfig config;
  config.duration_epochs = 3600;
  config.pallet_interval = 400;
  config.items_per_case = 10;
  config.mean_shelf_stay = 1200;
  config.shelf_period = 60;
  config.read_rate = 0.7;
  return ApplySimOverrides(args, config);
}

}  // namespace

int main(int argc, char** argv) {
  SimConfig sim_config = ScenarioConfig(ParseSimArgs(argc, argv));

  // Identical traces for both systems (same seed).
  auto spire_sim = WarehouseSimulator::Create(sim_config);
  auto smurf_sim = WarehouseSimulator::Create(sim_config);
  WarehouseSimulator& sa = *spire_sim.value();
  WarehouseSimulator& sb = *smurf_sim.value();

  PipelineOptions options;
  options.level = CompressionLevel::kLevel2;
  SpirePipeline spire_pipeline(&sa.registry(), options);
  SmurfPipeline smurf_pipeline(&sb.registry());

  EventStream spire_out, smurf_out;
  while (!sa.Done()) {
    EpochReadings ra = sa.Step();
    spire_pipeline.ProcessEpoch(sa.current_epoch(), std::move(ra), &spire_out);
    EpochReadings rb = sb.Step();
    smurf_pipeline.ProcessEpoch(sb.current_epoch(), std::move(rb), &smurf_out);
  }
  spire_pipeline.Finish(sa.current_epoch() + 1, &spire_out);
  smurf_pipeline.Finish(sb.current_epoch() + 1, &smurf_out);
  sa.FinishTruth();
  sb.FinishTruth();

  LocationId entry = sa.layout().entry_door;
  EventStream truth = StripLocationEvents(sa.truth_events(), entry);
  EventStream spire_cmp =
      StripLocationEvents(Decompressor::DecompressAll(spire_out), entry);
  EventStream smurf_cmp = StripLocationEvents(smurf_out, entry);

  EventAccuracy spire_f =
      CompareEventStreams(spire_cmp, truth, EventClass::kLocationOnly);
  EventAccuracy smurf_f =
      CompareEventStreams(smurf_cmp, truth, EventClass::kLocationOnly);
  EventAccuracy spire_cont =
      CompareEventStreams(spire_cmp, truth, EventClass::kContainmentOnly);

  std::printf("trace: read rate %.2f, %zu raw readings\n", sim_config.read_rate,
              sa.total_readings());
  std::printf("\n                         SPIRE      SMURF\n");
  std::printf("location F-measure       %.4f     %.4f\n", spire_f.FMeasure(),
              smurf_f.FMeasure());
  std::printf("location precision       %.4f     %.4f\n", spire_f.Precision(),
              smurf_f.Precision());
  std::printf("location recall          %.4f     %.4f\n", spire_f.Recall(),
              smurf_f.Recall());
  std::printf("output events            %zu       %zu\n", spire_out.size(),
              smurf_out.size());
  std::printf("compression ratio        %.4f     %.4f\n",
              CompressionRatio(spire_out, sa.total_readings()),
              CompressionRatio(smurf_out, sb.total_readings()));
  std::printf("containment F-measure    %.4f     (not supported)\n",
              spire_cont.FMeasure());
  return 0;
}
