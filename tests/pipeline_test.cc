// End-to-end integration tests: simulator -> SPIRE pipeline -> compressed
// event stream, checked against the ground truth.
#include <gtest/gtest.h>

#include "common/epc.h"
#include "compress/decompress.h"
#include "compress/well_formed.h"
#include "eval/accuracy.h"
#include "eval/event_accuracy.h"
#include "eval/delay.h"
#include "eval/size_accounting.h"
#include "sim/simulator.h"
#include "spire/pipeline.h"

namespace spire {
namespace {

SimConfig SmallConfig() {
  SimConfig config;
  config.duration_epochs = 1500;
  config.pallet_interval = 250;
  config.min_cases_per_pallet = 2;
  config.max_cases_per_pallet = 3;
  config.items_per_case = 5;
  config.mean_shelf_stay = 400;
  config.shelf_period = 20;
  config.num_shelves = 3;
  return config;
}

struct RunResult {
  EventStream output;
  EventStream truth;
  AccuracyStats accuracy;
  std::size_t raw_readings = 0;
  std::vector<Theft> thefts;
  LocationId entry_door = kUnknownLocation;
};

RunResult RunPipeline(const SimConfig& config, const PipelineOptions& options) {
  auto sim = WarehouseSimulator::Create(config);
  EXPECT_TRUE(sim.ok());
  WarehouseSimulator& s = *sim.value();
  SpirePipeline pipeline(&s.registry(), options);
  RunResult run;
  while (!s.Done()) {
    EpochReadings readings = s.Step();
    pipeline.ProcessEpoch(s.current_epoch(), std::move(readings), &run.output);
    if (pipeline.last_epoch_complete()) {
      run.accuracy += EvaluateEstimates(pipeline.last_result(), s.world(),
                                        s.layout().entry_door);
    }
  }
  Epoch end = s.current_epoch() + 1;
  pipeline.Finish(end, &run.output);
  s.FinishTruth();
  run.truth = s.truth_events();
  run.raw_readings = s.total_readings();
  run.thefts = s.thefts();
  run.entry_door = s.layout().entry_door;
  return run;
}

TEST(PipelineTest, OutputAlwaysWellFormed) {
  for (CompressionLevel level :
       {CompressionLevel::kLevel1, CompressionLevel::kLevel2}) {
    PipelineOptions options;
    options.level = level;
    RunResult run = RunPipeline(SmallConfig(), options);
    EXPECT_TRUE(ValidateWellFormed(run.output).ok())
        << "level " << static_cast<int>(level);
    EXPECT_FALSE(run.output.empty());
  }
}

TEST(PipelineTest, HighReadRateIsAccurate) {
  SimConfig config = SmallConfig();
  config.read_rate = 0.95;
  RunResult run = RunPipeline(config, PipelineOptions{});
  EXPECT_LT(run.accuracy.LocationErrorRate(), 0.05);
  EXPECT_LT(run.accuracy.ContainmentErrorRate(), 0.05);
}

TEST(PipelineTest, AccuracyDegradesGracefullyAtLowReadRate) {
  SimConfig config = SmallConfig();
  config.read_rate = 0.5;
  RunResult run = RunPipeline(config, PipelineOptions{});
  // Degraded but far from random.
  EXPECT_LT(run.accuracy.LocationErrorRate(), 0.35);
  EXPECT_GT(run.accuracy.location_total, 0u);
}

TEST(PipelineTest, Level2NoLargerThanLevel1) {
  SimConfig config = SmallConfig();
  PipelineOptions level1;
  level1.level = CompressionLevel::kLevel1;
  PipelineOptions level2;
  level2.level = CompressionLevel::kLevel2;
  RunResult run1 = RunPipeline(config, level1);
  RunResult run2 = RunPipeline(config, level2);
  EXPECT_LE(run2.output.size(), run1.output.size());
  // And both far below the raw stream size.
  EXPECT_LT(CompressionRatio(run1.output, run1.raw_readings), 0.25);
}

TEST(PipelineTest, Level2DecompressesToHighFidelityStream) {
  PipelineOptions options;
  options.level = CompressionLevel::kLevel2;
  RunResult run = RunPipeline(SmallConfig(), options);
  EventStream decompressed = StripLocationEvents(
      Decompressor::DecompressAll(run.output), run.entry_door);
  EXPECT_TRUE(ValidateWellFormed(decompressed, true).ok());
  EventStream truth = StripLocationEvents(run.truth, run.entry_door);
  EventAccuracy f = CompareEventStreams(decompressed, truth, EventClass::kAll);
  EXPECT_GT(f.FMeasure(), 0.9);
}

TEST(PipelineTest, Level1AndLevel2AgreeAfterDecompression) {
  // Level-2 is lossless: its decompressed location facts must cover what
  // level-1 reported (same trace, same inference).
  SimConfig config = SmallConfig();
  PipelineOptions level1;
  level1.level = CompressionLevel::kLevel1;
  PipelineOptions level2;
  level2.level = CompressionLevel::kLevel2;
  RunResult run1 = RunPipeline(config, level1);
  RunResult run2 = RunPipeline(config, level2);
  EventStream decompressed = Decompressor::DecompressAll(run2.output);
  EventAccuracy agree = CompareEventStreams(decompressed, run1.output,
                                            EventClass::kLocationOnly,
                                            /*start_tolerance=*/5);
  EXPECT_GT(agree.FMeasure(), 0.93);
}

TEST(PipelineTest, DetectsThefts) {
  SimConfig config = SmallConfig();
  config.theft_interval = 300;
  config.duration_epochs = 2400;
  RunResult run = RunPipeline(config, PipelineOptions{});
  ASSERT_FALSE(run.thefts.empty());
  DelayStats delay = EvaluateDetectionDelay(run.thefts, run.output,
                                            /*horizon=*/1200);
  EXPECT_GT(delay.DetectionRate(), 0.5);
  EXPECT_GT(delay.detected, 0u);
}

TEST(PipelineTest, NoOutputForWarmupArea) {
  PipelineOptions options;
  RunResult run = RunPipeline(SmallConfig(), options);
  for (const Event& event : run.output) {
    if (!IsContainmentEvent(event.type) &&
        event.type != EventType::kMissing) {
      EXPECT_NE(event.location, run.entry_door);
    }
  }
}

TEST(PipelineTest, ExitReportHonorsWarmupSuppression) {
  // Regression: the exit path reported the exiting object's estimate to the
  // compressor without the warm-up filter. With an exit reader co-located
  // with an entry door (a shared dock door), the final sighting leaked
  // dock-area location events into the output despite
  // suppress_warmup_output keeping every other report quiet there.
  ReaderRegistry registry;
  LocationId dock = registry.AddLocation("dock");
  ReaderInfo r0;
  r0.id = 0;
  r0.location = dock;
  r0.type = ReaderType::kEntryDoor;
  ASSERT_TRUE(registry.AddReader(r0).ok());
  ReaderInfo r1;
  r1.id = 1;
  r1.location = dock;
  r1.type = ReaderType::kExitDoor;
  ASSERT_TRUE(registry.AddReader(r1).ok());
  EpcFields fields;
  fields.level = PackagingLevel::kItem;
  fields.serial = 7;
  const ObjectId tag = EncodeEpcUnchecked(fields);
  auto read = [&](ReaderId reader, Epoch epoch) {
    RfidReading r;
    r.tag = tag;
    r.reader = reader;
    r.epoch = epoch;
    return r;
  };
  SpirePipeline pipeline(&registry, PipelineOptions{});
  EventStream out;
  for (Epoch e = 1; e <= 3; ++e) {
    pipeline.ProcessEpoch(e, {read(0, e)}, &out);
  }
  pipeline.ProcessEpoch(4, {read(1, 4)}, &out);  // Exit read at the dock.
  pipeline.Finish(5, &out);
  for (const Event& event : out) {
    if (!IsContainmentEvent(event.type)) {
      EXPECT_NE(event.location, dock) << event.ToString();
    }
  }
}

TEST(PipelineTest, WarmupSuppressionCanBeDisabled) {
  PipelineOptions options;
  options.suppress_warmup_output = false;
  RunResult run = RunPipeline(SmallConfig(), options);
  bool entry_seen = false;
  for (const Event& event : run.output) {
    entry_seen |= event.type == EventType::kStartLocation &&
                  event.location == run.entry_door;
  }
  EXPECT_TRUE(entry_seen);
}

TEST(PipelineTest, LocationOnlyOutputOption) {
  PipelineOptions options;
  options.compressor.emit_containment = false;
  RunResult run = RunPipeline(SmallConfig(), options);
  for (const Event& event : run.output) {
    EXPECT_FALSE(IsContainmentEvent(event.type));
  }
  EXPECT_FALSE(run.output.empty());
}

TEST(PipelineTest, CostsAreTracked) {
  auto sim = WarehouseSimulator::Create(SmallConfig());
  WarehouseSimulator& s = *sim.value();
  SpirePipeline pipeline(&s.registry(), PipelineOptions{});
  EventStream out;
  for (int i = 0; i < 100 && !s.Done(); ++i) {
    EpochReadings readings = s.Step();
    pipeline.ProcessEpoch(s.current_epoch(), std::move(readings), &out);
  }
  EXPECT_EQ(pipeline.epochs_processed(), 100u);
  EXPECT_GT(pipeline.total_costs().total_seconds(), 0.0);
}

TEST(PipelineTest, GraphDrainsAfterTrafficStops) {
  // All injected objects eventually exit and their nodes are retired.
  SimConfig config = SmallConfig();
  config.duration_epochs = 2500;
  config.pallet_interval = 3000;  // A single pallet (injected at epoch 0).
  config.mean_shelf_stay = 200;
  auto sim = WarehouseSimulator::Create(config);
  WarehouseSimulator& s = *sim.value();
  SpirePipeline pipeline(&s.registry(), PipelineOptions{});
  EventStream out;
  std::size_t peak_nodes = 0;
  while (!s.Done()) {
    EpochReadings readings = s.Step();
    pipeline.ProcessEpoch(s.current_epoch(), std::move(readings), &out);
    peak_nodes = std::max(peak_nodes, pipeline.graph().NumNodes());
  }
  EXPECT_GT(peak_nodes, 10u);
  // Everything exited; at most the odd object missed at the exit remains.
  EXPECT_LT(pipeline.graph().NumNodes(), 5u);
}

TEST(PipelineTest, AblationModesStayWellFormed) {
  for (InferenceMode mode : {InferenceMode::kAlwaysComplete,
                             InferenceMode::kCompleteOnly}) {
    PipelineOptions options;
    options.inference_mode = mode;
    RunResult run = RunPipeline(SmallConfig(), options);
    EXPECT_TRUE(ValidateWellFormed(run.output).ok())
        << "mode " << static_cast<int>(mode);
    EXPECT_FALSE(run.output.empty());
  }
  PipelineOptions no_conflicts;
  no_conflicts.resolve_conflicts = false;
  RunResult run = RunPipeline(SmallConfig(), no_conflicts);
  EXPECT_TRUE(ValidateWellFormed(run.output).ok());
}

TEST(PipelineTest, AlwaysCompleteCostsMore) {
  SimConfig config = SmallConfig();
  config.duration_epochs = 600;
  // Cost as a deterministic count, not wall clock: the BFS waves every
  // inference pass of the run took.
  auto run_cost = [&](InferenceMode mode) {
    auto sim = WarehouseSimulator::Create(config);
    WarehouseSimulator& s = *sim.value();
    PipelineOptions options;
    options.inference_mode = mode;
    SpirePipeline pipeline(&s.registry(), options);
    EventStream out;
    std::size_t waves = 0;
    while (!s.Done()) {
      EpochReadings readings = s.Step();
      pipeline.ProcessEpoch(s.current_epoch(), std::move(readings), &out);
      waves += pipeline.last_result().waves;
    }
    return waves;
  };
  EXPECT_GT(run_cost(InferenceMode::kAlwaysComplete),
            run_cost(InferenceMode::kScheduled));
}

TEST(PipelineTest, DeterministicAcrossRuns) {
  PipelineOptions options;
  RunResult a = RunPipeline(SmallConfig(), options);
  RunResult b = RunPipeline(SmallConfig(), options);
  EXPECT_EQ(a.output, b.output);
}

TEST(PipelineTest, PerfectReadRateNearPerfectEvents) {
  SimConfig config = SmallConfig();
  config.read_rate = 1.0;
  PipelineOptions options;
  options.level = CompressionLevel::kLevel1;
  RunResult run = RunPipeline(config, options);
  // Even at a perfect read rate, an object that just departed is briefly
  // still believed present (the theta tradeoff of Section IV-B), and a case
  // waiting in the packaging area is briefly attributed to a co-located
  // pallet, so small residual errors remain.
  EXPECT_LT(run.accuracy.LocationErrorRate(), 0.05);
  EXPECT_LT(run.accuracy.ContainmentErrorRate(), 0.01);
  EventStream output = StripLocationEvents(run.output, run.entry_door);
  EventStream truth = StripLocationEvents(run.truth, run.entry_door);
  EventAccuracy f = CompareEventStreams(output, truth, EventClass::kAll);
  EXPECT_GT(f.FMeasure(), 0.94);
}

}  // namespace
}  // namespace spire
