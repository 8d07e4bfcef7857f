// Quickstart: generate a small warehouse trace, run the SPIRE interpretation
// and compression substrate over it, and inspect the output event stream.
//
//   ./quickstart [key=value ...]     e.g. ./quickstart read_rate=0.7
#include <cstdio>

#include "compress/decompress.h"
#include "compress/well_formed.h"
#include "eval/accuracy.h"
#include "eval/event_accuracy.h"
#include "eval/size_accounting.h"
#include "sim/simulator.h"
#include "spire/pipeline.h"

using namespace spire;

int main(int argc, char** argv) {
  // A 30-minute trace: one pallet (5 cases x 20 items) every 5 minutes,
  // 10-minute shelf stays, shelf readers once every 30 s, read rate 0.85.
  SimConfig sim_config;
  sim_config.duration_epochs = 1800;
  sim_config.pallet_interval = 300;
  sim_config.mean_shelf_stay = 600;
  sim_config.shelf_period = 30;
  sim_config = ApplySimOverrides(ParseSimArgs(argc, argv), sim_config);

  auto sim = WarehouseSimulator::Create(sim_config);
  if (!sim.ok()) {
    std::fprintf(stderr, "%s\n", sim.status().ToString().c_str());
    return 1;
  }
  WarehouseSimulator& simulator = *sim.value();

  // A SPIRE pipeline with level-2 compression and default inference knobs.
  PipelineOptions options;
  options.level = CompressionLevel::kLevel2;
  SpirePipeline pipeline(&simulator.registry(), options);

  EventStream output;
  AccuracyStats accuracy;
  while (!simulator.Done()) {
    EpochReadings readings = simulator.Step();
    pipeline.ProcessEpoch(simulator.current_epoch(), std::move(readings),
                          &output);
    if (pipeline.last_epoch_complete()) {
      accuracy += EvaluateEstimates(pipeline.last_result(), simulator.world(),
                                    simulator.layout().entry_door);
    }
  }
  Epoch end = simulator.current_epoch() + 1;
  pipeline.Finish(end, &output);
  simulator.FinishTruth();

  Status well_formed = ValidateWellFormed(output);
  // Level-2 compression suppresses contained objects' location events, so
  // accuracy is scored on the (lossless) decompressed level-1 view; the
  // warm-up (entry door) area, for which SPIRE emits no output, is stripped
  // from both streams.
  EventStream decompressed = StripLocationEvents(
      Decompressor::DecompressAll(output), simulator.layout().entry_door);
  EventStream truth = StripLocationEvents(simulator.truth_events(),
                                          simulator.layout().entry_door);
  EventAccuracy f = CompareEventStreams(decompressed, truth, EventClass::kAll);
  EventAccuracy f_loc =
      CompareEventStreams(decompressed, truth, EventClass::kLocationOnly);
  EventAccuracy f_cont =
      CompareEventStreams(decompressed, truth, EventClass::kContainmentOnly);

  std::printf("trace: %lld epochs, %zu objects created, %zu raw readings\n",
              static_cast<long long>(sim_config.duration_epochs),
              simulator.objects_created(), simulator.total_readings());
  std::printf("output: %zu events (%zu location, %zu containment), "
              "well-formed: %s\n",
              output.size(), CountLocationMessages(output),
              CountContainmentMessages(output),
              well_formed.ok() ? "yes" : well_formed.ToString().c_str());
  std::printf("compression ratio: %.4f (output bytes / raw bytes)\n",
              CompressionRatio(output, simulator.total_readings()));
  std::printf("location error rate:    %.4f\n", accuracy.LocationErrorRate());
  std::printf("containment error rate: %.4f\n",
              accuracy.ContainmentErrorRate());
  std::printf("event F-measure vs ground truth: %.4f (P=%.4f R=%.4f)\n",
              f.FMeasure(), f.Precision(), f.Recall());
  std::printf("  location events:    F=%.4f (P=%.4f R=%.4f, out=%zu truth=%zu)\n",
              f_loc.FMeasure(), f_loc.Precision(), f_loc.Recall(),
              f_loc.output_events, f_loc.truth_events);
  std::printf("  containment events: F=%.4f (P=%.4f R=%.4f, out=%zu truth=%zu)\n",
              f_cont.FMeasure(), f_cont.Precision(), f_cont.Recall(),
              f_cont.output_events, f_cont.truth_events);

  std::printf("\nfirst 12 output events:\n");
  for (std::size_t i = 0; i < output.size() && i < 12; ++i) {
    std::printf("  %s\n", output[i].ToString().c_str());
  }
  return 0;
}
