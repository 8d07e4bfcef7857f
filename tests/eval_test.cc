// Unit tests for src/eval: accuracy scoring, event folding and matching,
// compression accounting, detection delay, and the table printer.
#include <gtest/gtest.h>

#include "common/epc.h"
#include "eval/accuracy.h"
#include "eval/delay.h"
#include "eval/event_accuracy.h"
#include "eval/size_accounting.h"
#include "eval/table.h"

namespace spire {
namespace {

ObjectId Obj(PackagingLevel level, std::uint32_t serial) {
  EpcFields fields;
  fields.level = level;
  fields.serial = serial;
  return EncodeEpcUnchecked(fields);
}

const ObjectId kItem = Obj(PackagingLevel::kItem, 1);
const ObjectId kCase = Obj(PackagingLevel::kCase, 2);

// -------------------------------------------------------------- Accuracy --

TEST(AccuracyTest, CountsLocationAndContainmentErrors) {
  PhysicalWorld world;
  ASSERT_TRUE(world.AddObject(kCase, 3).ok());
  ASSERT_TRUE(world.AddObject(kItem, 3).ok());
  ASSERT_TRUE(world.SetContainment(kItem, kCase).ok());

  InferenceResult result;
  ObjectEstimate item;
  item.object = kItem;
  item.location = 5;          // Wrong (truth 3).
  item.container = kCase;     // Right.
  result.Put(0, item, kNoNode);
  ObjectEstimate case_est;
  case_est.object = kCase;
  case_est.location = 3;      // Right.
  case_est.container = kItem; // Wrong (truth none).
  result.Put(1, case_est, kNoNode);

  AccuracyStats stats = EvaluateEstimates(result, world, kUnknownLocation);
  EXPECT_EQ(stats.location_total, 2u);
  EXPECT_EQ(stats.location_errors, 1u);
  EXPECT_EQ(stats.containment_total, 2u);
  EXPECT_EQ(stats.containment_errors, 1u);
  EXPECT_DOUBLE_EQ(stats.LocationErrorRate(), 0.5);
  EXPECT_DOUBLE_EQ(stats.ContainmentErrorRate(), 0.5);
}

TEST(AccuracyTest, ExcludesWarmupLocation) {
  PhysicalWorld world;
  ASSERT_TRUE(world.AddObject(kItem, 0).ok());  // At the entry door.
  InferenceResult result;
  ObjectEstimate item;
  item.object = kItem;
  item.location = 9;
  result.Put(0, item, kNoNode);
  AccuracyStats stats = EvaluateEstimates(result, world, /*exclude=*/0);
  EXPECT_EQ(stats.location_total, 0u);
  EXPECT_EQ(stats.containment_total, 0u);
}

TEST(AccuracyTest, RetiredEstimatesNotScored) {
  // An object retired after the pass leaves a tombstone in the result.
  PhysicalWorld world;
  ASSERT_TRUE(world.AddObject(kItem, 3).ok());
  InferenceResult result;
  ObjectEstimate item;
  item.object = kItem;
  item.location = 5;
  result.Put(0, item, kNoNode);
  ASSERT_NE(result.Retire(0, kItem), nullptr);
  AccuracyStats stats = EvaluateEstimates(result, world, kUnknownLocation);
  EXPECT_EQ(stats.location_total, 0u);
  EXPECT_EQ(stats.containment_total, 0u);
}

TEST(AccuracyTest, WithheldLocationsNotScored) {
  PhysicalWorld world;
  ASSERT_TRUE(world.AddObject(kItem, 3).ok());
  InferenceResult result;
  ObjectEstimate item;
  item.object = kItem;
  item.location = kUnknownLocation;
  item.withheld = true;
  result.Put(0, item, kNoNode);
  AccuracyStats stats = EvaluateEstimates(result, world, kUnknownLocation);
  EXPECT_EQ(stats.location_total, 0u);
  EXPECT_EQ(stats.containment_total, 1u);  // Containment still scored.
}

TEST(AccuracyTest, ExitedObjectsSkipped) {
  PhysicalWorld world;  // Empty: the object already left.
  InferenceResult result;
  ObjectEstimate item;
  item.object = kItem;
  item.location = 4;
  result.Put(0, item, kNoNode);
  AccuracyStats stats = EvaluateEstimates(result, world, kUnknownLocation);
  EXPECT_EQ(stats.location_total, 0u);
}

TEST(AccuracyTest, UnknownMatchingUnknownIsCorrect) {
  PhysicalWorld world;
  ASSERT_TRUE(world.AddObject(kItem, 3).ok());
  ASSERT_TRUE(world.Steal(kItem).ok());
  InferenceResult result;
  ObjectEstimate item;
  item.object = kItem;
  item.location = kUnknownLocation;
  result.Put(0, item, kNoNode);
  AccuracyStats stats = EvaluateEstimates(result, world, kUnknownLocation);
  EXPECT_EQ(stats.location_total, 1u);
  EXPECT_EQ(stats.location_errors, 0u);
}

TEST(AccuracyTest, Accumulates) {
  AccuracyStats a;
  a.location_total = 10;
  a.location_errors = 1;
  AccuracyStats b;
  b.location_total = 10;
  b.location_errors = 3;
  a += b;
  EXPECT_EQ(a.location_total, 20u);
  EXPECT_DOUBLE_EQ(a.LocationErrorRate(), 0.2);
}

// ------------------------------------------------------------ FoldEvents --

TEST(FoldEventsTest, PairsBecomeIntervals) {
  EventStream stream{
      Event::StartLocation(kItem, 4, 10),
      Event::EndLocation(kItem, 4, 10, 20),
      Event::StartLocation(kItem, 5, 25),
  };
  auto folded = FoldEvents(stream);
  ASSERT_EQ(folded.size(), 2u);
  EXPECT_EQ(folded[0].start, 10);
  EXPECT_EQ(folded[0].end, 20);
  EXPECT_EQ(folded[1].start, 25);
  EXPECT_EQ(folded[1].end, kInfiniteEpoch);  // Still open.
}

TEST(FoldEventsTest, LocationAndContainmentFoldIndependently) {
  EventStream stream{
      Event::StartContainment(kItem, kCase, 5),
      Event::StartLocation(kItem, 4, 10),
      Event::EndLocation(kItem, 4, 10, 20),
      Event::EndContainment(kItem, kCase, 5, 30),
  };
  auto folded = FoldEvents(stream);
  ASSERT_EQ(folded.size(), 2u);
  EXPECT_EQ(folded[0].type, EventType::kStartContainment);
  EXPECT_EQ(folded[0].end, 30);
  EXPECT_EQ(folded[1].type, EventType::kStartLocation);
  EXPECT_EQ(folded[1].end, 20);
}

TEST(FoldEventsTest, MissingStaysPointEvent) {
  auto folded = FoldEvents({Event::Missing(kItem, 4, 9)});
  ASSERT_EQ(folded.size(), 1u);
  EXPECT_EQ(folded[0].type, EventType::kMissing);
  EXPECT_EQ(folded[0].start, 9);
  EXPECT_EQ(folded[0].end, 9);
}

// --------------------------------------------------- CompareEventStreams --

TEST(CompareTest, PerfectMatch) {
  EventStream truth{
      Event::StartLocation(kItem, 4, 10),
      Event::EndLocation(kItem, 4, 10, 20),
  };
  EventAccuracy accuracy =
      CompareEventStreams(truth, truth, EventClass::kAll);
  EXPECT_DOUBLE_EQ(accuracy.Precision(), 1.0);
  EXPECT_DOUBLE_EQ(accuracy.Recall(), 1.0);
  EXPECT_DOUBLE_EQ(accuracy.FMeasure(), 1.0);
}

TEST(CompareTest, ToleranceOnStartSkew) {
  EventStream truth{Event::StartLocation(kItem, 4, 100)};
  EventStream late{Event::StartLocation(kItem, 4, 150)};
  EXPECT_EQ(CompareEventStreams(late, truth, EventClass::kAll, 60)
                .matched_output,
            1u);
  EXPECT_EQ(CompareEventStreams(late, truth, EventClass::kAll, 30)
                .matched_output,
            0u);
}

TEST(CompareTest, WrongLocationNeverMatches) {
  EventStream truth{Event::StartLocation(kItem, 4, 100)};
  EventStream wrong{Event::StartLocation(kItem, 5, 100)};
  EventAccuracy accuracy =
      CompareEventStreams(wrong, truth, EventClass::kAll);
  EXPECT_EQ(accuracy.matched_output, 0u);
}

TEST(CompareTest, OneToOneMatching) {
  EventStream truth{Event::StartLocation(kItem, 4, 100)};
  EventStream doubled{
      Event::StartLocation(kItem, 4, 100),
      Event::EndLocation(kItem, 4, 100, 110),
      Event::StartLocation(kItem, 4, 120),  // Spurious flap.
  };
  EventAccuracy accuracy =
      CompareEventStreams(doubled, truth, EventClass::kAll);
  EXPECT_EQ(accuracy.output_events, 2u);
  EXPECT_EQ(accuracy.matched_output, 1u);
}

TEST(CompareTest, MissingMatchesTrueAbsenceGap) {
  EventStream truth{
      Event::StartLocation(kItem, 4, 0),
      Event::EndLocation(kItem, 4, 0, 50),    // Gap [50, 80].
      Event::StartLocation(kItem, 5, 80),
      Event::EndLocation(kItem, 5, 80, 100),
  };
  EventStream output{
      Event::StartLocation(kItem, 4, 0),
      Event::EndLocation(kItem, 4, 0, 60),
      Event::Missing(kItem, 4, 60),           // Inside the gap.
      Event::StartLocation(kItem, 5, 80),
      Event::EndLocation(kItem, 5, 80, 100),
  };
  EventAccuracy accuracy =
      CompareEventStreams(output, truth, EventClass::kAll, 10);
  EXPECT_EQ(accuracy.output_events, 3u);
  EXPECT_EQ(accuracy.matched_output, 3u);  // Both stays + the Missing.
  EXPECT_DOUBLE_EQ(accuracy.Precision(), 1.0);
}

TEST(CompareTest, MissingOutsideAnyGapIsFalsePositive) {
  EventStream truth{
      Event::StartLocation(kItem, 4, 0),
      Event::EndLocation(kItem, 4, 0, 100),
      Event::StartLocation(kItem, 5, 100),  // No gap at all.
      Event::EndLocation(kItem, 5, 100, 200),
  };
  EventStream output{Event::Missing(kItem, 4, 50)};
  EventAccuracy accuracy =
      CompareEventStreams(output, truth, EventClass::kAll, 10);
  EXPECT_EQ(accuracy.matched_output, 0u);
}

TEST(CompareTest, TheftRecalledByLaterMissing) {
  EventStream truth{
      Event::StartLocation(kItem, 4, 0),
      Event::EndLocation(kItem, 4, 0, 50),
      Event::Missing(kItem, 4, 50),  // Theft at 50.
  };
  EventStream detected{
      Event::StartLocation(kItem, 4, 0),
      Event::EndLocation(kItem, 4, 0, 300),
      Event::Missing(kItem, 4, 300),  // Detected much later.
  };
  EventAccuracy accuracy =
      CompareEventStreams(detected, truth, EventClass::kAll, 10);
  EXPECT_EQ(accuracy.truth_events, 2u);
  EXPECT_EQ(accuracy.matched_truth, 2u);  // Stay + the theft.

  EventStream blind{
      Event::StartLocation(kItem, 4, 0),
      Event::EndLocation(kItem, 4, 0, 300),
  };
  accuracy = CompareEventStreams(blind, truth, EventClass::kAll, 10);
  EXPECT_EQ(accuracy.matched_truth, 1u);  // The theft went undetected.
}

TEST(CompareTest, EventClassFilters) {
  EventStream truth{
      Event::StartLocation(kItem, 4, 0),
      Event::EndLocation(kItem, 4, 0, 50),
      Event::StartContainment(kItem, kCase, 0),
      Event::EndContainment(kItem, kCase, 0, 50),
  };
  EventAccuracy location =
      CompareEventStreams(truth, truth, EventClass::kLocationOnly);
  EXPECT_EQ(location.truth_events, 1u);
  EventAccuracy containment =
      CompareEventStreams(truth, truth, EventClass::kContainmentOnly);
  EXPECT_EQ(containment.truth_events, 1u);
  EventAccuracy all = CompareEventStreams(truth, truth, EventClass::kAll);
  EXPECT_EQ(all.truth_events, 2u);
}

TEST(CompareTest, StripLocationEventsRemovesOnlyThatLocation) {
  EventStream stream{
      Event::StartLocation(kItem, 0, 0),
      Event::EndLocation(kItem, 0, 0, 10),
      Event::StartLocation(kItem, 4, 10),
      Event::Missing(kItem, 0, 20),
      Event::StartContainment(kItem, kCase, 0),
  };
  EventStream stripped = StripLocationEvents(stream, 0);
  ASSERT_EQ(stripped.size(), 3u);
  EXPECT_EQ(stripped[0].location, 4);
  EXPECT_EQ(stripped[1].type, EventType::kMissing);  // Missing kept.
  EXPECT_EQ(stripped[2].type, EventType::kStartContainment);
}

// --------------------------------------------------------- Size accounting --

TEST(SizeAccountingTest, RatioUsesWireSizes) {
  EXPECT_DOUBLE_EQ(CompressionRatio(std::size_t{10}, std::size_t{100}),
                   10.0 * kEventWireBytes / (100.0 * kReadingWireBytes));
  EXPECT_DOUBLE_EQ(CompressionRatio(std::size_t{0}, std::size_t{100}), 0.0);
  EXPECT_DOUBLE_EQ(CompressionRatio(std::size_t{5}, std::size_t{0}), 0.0);
}

TEST(SizeAccountingTest, MessageClassCounters) {
  EventStream stream{
      Event::StartLocation(kItem, 4, 0),
      Event::Missing(kItem, 4, 9),
      Event::StartContainment(kItem, kCase, 0),
      Event::EndContainment(kItem, kCase, 0, 9),
  };
  EXPECT_EQ(CountLocationMessages(stream), 2u);
  EXPECT_EQ(CountContainmentMessages(stream), 2u);
}

// ------------------------------------------------------------------ Delay --

TEST(DelayTest, ComputesDetectionDelays) {
  std::vector<Theft> thefts{
      {kItem, 100, 4},
      {kCase, 200, 5},
  };
  EventStream output{
      Event::Missing(kItem, 4, 130),   // Delay 30.
      Event::Missing(kCase, 5, 250),   // Delay 50.
  };
  DelayStats stats = EvaluateDetectionDelay(thefts, output);
  EXPECT_EQ(stats.thefts, 2u);
  EXPECT_EQ(stats.detected, 2u);
  EXPECT_DOUBLE_EQ(stats.mean_delay, 40.0);
  EXPECT_EQ(stats.max_delay, 50);
  EXPECT_DOUBLE_EQ(stats.DetectionRate(), 1.0);
}

TEST(DelayTest, MissingBeforeTheftDoesNotCount) {
  std::vector<Theft> thefts{{kItem, 100, 4}};
  EventStream output{Event::Missing(kItem, 4, 50)};
  DelayStats stats = EvaluateDetectionDelay(thefts, output);
  EXPECT_EQ(stats.detected, 0u);
}

TEST(DelayTest, HorizonBoundsSearch) {
  std::vector<Theft> thefts{{kItem, 100, 4}};
  EventStream output{Event::Missing(kItem, 4, 100 + 5000)};
  DelayStats stats = EvaluateDetectionDelay(thefts, output, /*horizon=*/3600);
  EXPECT_EQ(stats.detected, 0u);
}

TEST(DelayTest, EmptyInputs) {
  DelayStats stats = EvaluateDetectionDelay({}, {});
  EXPECT_EQ(stats.thefts, 0u);
  EXPECT_DOUBLE_EQ(stats.DetectionRate(), 0.0);
}

// ------------------------------------------------------------------ Table --

TEST(TextTableTest, AlignsColumns) {
  TextTable table({"name", "value"});
  table.AddRow({"alpha", "1"});
  table.AddRow({"b", "123456"});
  std::string rendered = table.ToString();
  EXPECT_NE(rendered.find("| alpha | 1      |"), std::string::npos);
  EXPECT_NE(rendered.find("| b     | 123456 |"), std::string::npos);
}

TEST(TextTableTest, PadsShortRows) {
  TextTable table({"a", "b", "c"});
  table.AddRow({"1"});
  std::string rendered = table.ToString();
  EXPECT_NE(rendered.find("| 1 |"), std::string::npos);
}

TEST(TextTableTest, NumFormatsFixedPrecision) {
  EXPECT_EQ(TextTable::Num(0.12345, 2), "0.12");
  EXPECT_EQ(TextTable::Num(3.0, 4), "3.0000");
}

}  // namespace
}  // namespace spire
