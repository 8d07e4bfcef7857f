// Unit tests for src/compress: event model, level-1 and level-2 compressors,
// well-formedness validation, and the level-2 -> level-1 decompressor.
#include <gtest/gtest.h>

#include <random>
#include <vector>

#include "common/epc.h"
#include "compress/compressor.h"
#include "compress/decompress.h"
#include "compress/event.h"
#include "compress/well_formed.h"

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
const ObjectId kPallet = Obj(PackagingLevel::kPallet, 3);

ObjectStateEstimate At(ObjectId object, LocationId location,
                       ObjectId container = kNoObject) {
  ObjectStateEstimate state;
  state.object = object;
  state.location = location;
  state.container = container;
  return state;
}

ObjectStateEstimate Away(ObjectId object, bool missing = true) {
  ObjectStateEstimate state;
  state.object = object;
  state.location = kUnknownLocation;
  state.missing = missing;
  return state;
}

// ------------------------------------------------------------- Event model --

TEST(EventTest, ConstructorsFillFields) {
  Event start = Event::StartLocation(kItem, 4, 10);
  EXPECT_EQ(start.type, EventType::kStartLocation);
  EXPECT_EQ(start.end, kInfiniteEpoch);
  Event end = Event::EndLocation(kItem, 4, 10, 20);
  EXPECT_EQ(end.start, 10);
  EXPECT_EQ(end.end, 20);
  Event missing = Event::Missing(kItem, 4, 30);
  EXPECT_EQ(missing.start, missing.end);
  Event sc = Event::StartContainment(kItem, kCase, 5);
  EXPECT_EQ(sc.container, kCase);
  EXPECT_TRUE(IsContainmentEvent(sc.type));
  EXPECT_FALSE(IsContainmentEvent(missing.type));
}

TEST(EventTest, ToStringIsReadable) {
  EXPECT_EQ(Event::StartLocation(kItem, 4, 10).ToString(),
            "StartLocation(item:0.0.1, loc 4, [10, inf))");
  EXPECT_EQ(Event::EndContainment(kItem, kCase, 5, 9).ToString(),
            "EndContainment(item:0.0.1, in case:0.0.2, [5, 9))");
}

TEST(EventTest, WireBytes) {
  EventStream stream{Event::StartLocation(kItem, 4, 10),
                     Event::Missing(kItem, 4, 30)};
  EXPECT_EQ(WireBytes(stream), 2 * kEventWireBytes);
}

// ------------------------------------------------------ Level-1 compressor --

TEST(RangeCompressorTest, FirstReportOpensEvents) {
  RangeCompressor compressor;
  EventStream out;
  compressor.Report(At(kItem, 4, kCase), 10, &out);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0], Event::StartContainment(kItem, kCase, 10));
  EXPECT_EQ(out[1], Event::StartLocation(kItem, 4, 10));
}

TEST(RangeCompressorTest, UnchangedStateIsSilent) {
  RangeCompressor compressor;
  EventStream out;
  compressor.Report(At(kItem, 4, kCase), 10, &out);
  std::size_t base = out.size();
  for (Epoch e = 11; e < 100; ++e) compressor.Report(At(kItem, 4, kCase), e, &out);
  EXPECT_EQ(out.size(), base);  // That is the compression.
}

TEST(RangeCompressorTest, LocationChangeEmitsEndThenStart) {
  RangeCompressor compressor;
  EventStream out;
  compressor.Report(At(kItem, 4), 10, &out);
  out.clear();
  compressor.Report(At(kItem, 7), 25, &out);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0], Event::EndLocation(kItem, 4, 10, 25));
  EXPECT_EQ(out[1], Event::StartLocation(kItem, 7, 25));
}

TEST(RangeCompressorTest, MissingEmitsEndPlusSingleton) {
  RangeCompressor compressor;
  EventStream out;
  compressor.Report(At(kItem, 4), 10, &out);
  out.clear();
  compressor.Report(Away(kItem), 30, &out);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0], Event::EndLocation(kItem, 4, 10, 30));
  EXPECT_EQ(out[1], Event::Missing(kItem, 4, 30));
  // Staying missing adds nothing.
  compressor.Report(Away(kItem), 31, &out);
  EXPECT_EQ(out.size(), 2u);
}

TEST(RangeCompressorTest, TransitWithoutMissingFlagOnlyCloses) {
  RangeCompressor compressor;
  EventStream out;
  compressor.Report(At(kItem, 4), 10, &out);
  out.clear();
  compressor.Report(Away(kItem, /*missing=*/false), 30, &out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].type, EventType::kEndLocation);
}

TEST(RangeCompressorTest, ReappearanceAfterMissing) {
  RangeCompressor compressor;
  EventStream out;
  compressor.Report(At(kItem, 4), 10, &out);
  compressor.Report(Away(kItem), 30, &out);
  out.clear();
  compressor.Report(At(kItem, 4), 50, &out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], Event::StartLocation(kItem, 4, 50));
}

TEST(RangeCompressorTest, ContainmentChangeEmitsEndThenStart) {
  RangeCompressor compressor;
  EventStream out;
  compressor.Report(At(kItem, 4, kCase), 10, &out);
  out.clear();
  compressor.Report(At(kItem, 4, kPallet), 40, &out);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0], Event::EndContainment(kItem, kCase, 10, 40));
  EXPECT_EQ(out[1], Event::StartContainment(kItem, kPallet, 40));
}

TEST(RangeCompressorTest, ContainmentSpansLocationChanges) {
  // A start-end containment pair may span several location pairs
  // (Section V-A nesting).
  RangeCompressor compressor;
  EventStream out;
  compressor.Report(At(kItem, 4, kCase), 10, &out);
  compressor.Report(At(kItem, 5, kCase), 20, &out);
  compressor.Report(At(kItem, 6, kCase), 30, &out);
  compressor.Finish(40, &out);
  int containment_events = 0;
  for (const Event& e : out) {
    if (IsContainmentEvent(e.type)) ++containment_events;
  }
  EXPECT_EQ(containment_events, 2);  // One Start + one End only.
  EXPECT_TRUE(ValidateWellFormed(out).ok());
}

TEST(RangeCompressorTest, RetireClosesEverything) {
  RangeCompressor compressor;
  EventStream out;
  compressor.Report(At(kItem, 4, kCase), 10, &out);
  out.clear();
  compressor.Retire(kItem, 60, &out);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0], Event::EndContainment(kItem, kCase, 10, 60));
  EXPECT_EQ(out[1], Event::EndLocation(kItem, 4, 10, 60));
  EXPECT_EQ(compressor.tracked_objects(), 0u);
  // Retiring an unknown object is a no-op.
  compressor.Retire(kItem, 61, &out);
  EXPECT_EQ(out.size(), 2u);
}

TEST(RangeCompressorTest, FinishClosesAllTrackedObjects) {
  RangeCompressor compressor;
  EventStream out;
  compressor.Report(At(kItem, 4), 10, &out);
  compressor.Report(At(kCase, 5), 10, &out);
  compressor.Finish(99, &out);
  EXPECT_TRUE(ValidateWellFormed(out).ok());
  EXPECT_EQ(compressor.tracked_objects(), 0u);
}

TEST(RangeCompressorTest, EmitFlagsSuppressStreams) {
  CompressorOptions location_only;
  location_only.emit_containment = false;
  RangeCompressor compressor(location_only);
  EventStream out;
  compressor.Report(At(kItem, 4, kCase), 10, &out);
  compressor.Finish(20, &out);
  for (const Event& e : out) EXPECT_FALSE(IsContainmentEvent(e.type));
  EXPECT_FALSE(out.empty());
}

// ------------------------------------------------------ Level-2 compressor --

TEST(ContainmentCompressorTest, SuppressesContainedChildLocations) {
  ContainmentCompressor compressor;
  EventStream out;
  compressor.Report(At(kCase, 4, kPallet), 10, &out);
  compressor.Report(At(kPallet, 4), 10, &out);
  // The first sighting is explicit; the end-of-epoch handover closes it
  // (zero-length tail) and the stay carries on derived from the pallet's.
  compressor.CancelEpochChurn(10, &out, 0);
  std::size_t after_first = out.size();
  // Moving the group (container reported first, as the pipeline orders it):
  // the case's move is implied by the pallet's — no case events at all.
  compressor.Report(At(kPallet, 5), 20, &out);
  compressor.Report(At(kCase, 5, kPallet), 20, &out);
  compressor.CancelEpochChurn(20, &out, after_first);
  for (std::size_t i = after_first; i < out.size(); ++i) {
    EXPECT_NE(out[i].object, kCase) << out[i].ToString();
  }
  int case_location_events = 0;
  for (const Event& e : out) {
    if (!IsContainmentEvent(e.type) && e.object == kCase) {
      ++case_location_events;
    }
  }
  EXPECT_EQ(case_location_events, 2);  // The explicit Start + handover End.
}

TEST(ContainmentCompressorTest, PaperFigure8Sequence) {
  // Reproduces Fig. 8: P with C1, C2 at L1; group moves to L2; C2 splits at
  // T3; C2 then moves alone to L4. Reports arrive in pipeline order
  // (containment enders first, then containers before contents) and the
  // end-of-epoch churn pass runs after each epoch, exactly as the pipeline
  // drives the compressor.
  ObjectId p = kPallet, c1 = kCase, c2 = Obj(PackagingLevel::kCase, 9);
  ContainmentCompressor compressor;
  EventStream out;
  // T1: first sightings are always explicit; the end-of-epoch handover
  // closes both cases' stays (zero-length tails) and hands them to derived
  // tracking, restoring the paper's steady state.
  compressor.Report(At(p, 1), 1, &out);
  compressor.Report(At(c1, 1, p), 1, &out);
  compressor.Report(At(c2, 1, p), 1, &out);
  compressor.CancelEpochChurn(1, &out, 0);
  EXPECT_EQ(out.size(), 7u);
  std::size_t t1 = out.size();
  // T2: group moves to L2 — End + Start for P only.
  compressor.Report(At(p, 2), 2, &out);
  compressor.Report(At(c1, 2, p), 2, &out);
  compressor.Report(At(c2, 2, p), 2, &out);
  compressor.CancelEpochChurn(2, &out, t1);
  ASSERT_EQ(out.size(), t1 + 2);
  EXPECT_EQ(out[t1].object, p);
  EXPECT_EQ(out[t1 + 1].object, p);
  // T3: C2 stays at L2, P and C1 move to L3.
  std::size_t t2 = out.size();
  compressor.Report(At(c2, 2), 3, &out);  // No longer contained.
  compressor.Report(At(p, 3), 3, &out);
  compressor.Report(At(c1, 3, p), 3, &out);
  compressor.CancelEpochChurn(3, &out, t2);
  ASSERT_EQ(out.size(), t2 + 4);
  EXPECT_EQ(out[t2 + 0], Event::EndContainment(c2, p, 1, 3));
  EXPECT_EQ(out[t2 + 1], Event::StartLocation(c2, 2, 3));
  EXPECT_EQ(out[t2 + 2], Event::EndLocation(p, 2, 2, 3));
  EXPECT_EQ(out[t2 + 3], Event::StartLocation(p, 3, 3));
  // T4: C2 moves alone to L4.
  std::size_t t3 = out.size();
  compressor.Report(At(c2, 4), 4, &out);
  compressor.CancelEpochChurn(4, &out, t3);
  ASSERT_EQ(out.size(), t3 + 2);
  EXPECT_EQ(out[t3 + 0], Event::EndLocation(c2, 2, 3, 4));
  EXPECT_EQ(out[t3 + 1], Event::StartLocation(c2, 4, 4));
}

TEST(ContainmentCompressorTest, RootMoveHandsOverUntouchedGrandchild) {
  // pallet -> case -> item. The item's stay is explicit because it
  // disagrees with the chain root; the case is missing, so the pallet's
  // move does not propagate down to the item. In the last epoch the case is
  // reported again without any change and only the pallet's stay changes,
  // yet the item's explicit stay now matches the root and must be handed
  // over.
  ContainmentCompressor compressor;
  EventStream out;
  compressor.Report(At(kPallet, 1), 1, &out);
  compressor.Report(At(kCase, 1, kPallet), 1, &out);
  compressor.Report(At(kItem, 2, kCase), 1, &out);
  compressor.CancelEpochChurn(1, &out, 0);
  EXPECT_TRUE(compressor.PendingHandovers().empty());

  std::size_t first = out.size();
  ObjectStateEstimate case_missing = Away(kCase);
  case_missing.container = kPallet;
  compressor.Report(case_missing, 2, &out);
  compressor.CancelEpochChurn(2, &out, first);
  EXPECT_TRUE(compressor.PendingHandovers().empty());

  first = out.size();
  compressor.Report(case_missing, 3, &out);
  compressor.Report(At(kPallet, 2), 3, &out);
  EXPECT_EQ(compressor.PendingHandovers(), std::vector<ObjectId>{kItem});
  compressor.CancelEpochChurn(3, &out, first);
  EXPECT_TRUE(compressor.PendingHandovers().empty());
  EXPECT_EQ(compressor.touched_objects(), 0u);
  ASSERT_EQ(out.size(), first + 3);
  EXPECT_EQ(out[first + 0], Event::EndLocation(kPallet, 1, 1, 3));
  EXPECT_EQ(out[first + 1], Event::StartLocation(kPallet, 2, 3));
  EXPECT_EQ(out[first + 2], Event::EndLocation(kItem, 2, 1, 3));
}

TEST(ContainmentCompressorTest, TouchedListIsBoundedAndConsumed) {
  // Level 1 never hands over, so it records nothing, however many epochs
  // pass without a CancelEpochChurn (the ground-truth recorder's usage).
  RangeCompressor range;
  // Level 2 records each touched object once per handover, even when an
  // object is retired and reported again in between.
  ContainmentCompressor containment;
  EventStream out;
  for (Epoch epoch = 1; epoch <= 200; ++epoch) {
    const LocationId location = static_cast<LocationId>(epoch % 3);
    for (Compressor* compressor :
         std::initializer_list<Compressor*>{&range, &containment}) {
      compressor->Report(At(kPallet, location), epoch, &out);
      compressor->Report(At(kCase, location, kPallet), epoch, &out);
      compressor->Report(At(kItem, location, kCase), epoch, &out);
      compressor->Retire(kItem, epoch, &out);
      compressor->Report(At(kItem, location, kCase), epoch, &out);
    }
    EXPECT_EQ(range.touched_objects(), 0u);
    EXPECT_LE(containment.touched_objects(), containment.tracked_objects());
  }
  containment.CancelEpochChurn(201, &out, out.size());
  EXPECT_EQ(containment.touched_objects(), 0u);
  EXPECT_TRUE(containment.PendingHandovers().empty());
}

TEST(ContainmentCompressorTest, ContainmentStartClosesChildLocation) {
  ContainmentCompressor compressor;
  EventStream out;
  compressor.Report(At(kPallet, 4), 10, &out);  // Container located first.
  compressor.Report(At(kCase, 4), 10, &out);  // Uncontained: location opens.
  out.clear();
  // Entering a container whose chain root shows the same location closes the
  // explicit stay — the decompressor re-derives it from the pallet's.
  compressor.Report(At(kCase, 4, kPallet), 20, &out);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0], Event::StartContainment(kCase, kPallet, 20));
  EXPECT_EQ(out[1], Event::EndLocation(kCase, 4, 10, 20));
}

TEST(ContainmentCompressorTest, MissingInsideContainment) {
  // Missing does not end containment (Section V-A).
  ContainmentCompressor compressor;
  EventStream out;
  compressor.Report(At(kCase, 4, kPallet), 10, &out);
  ASSERT_EQ(out.size(), 2u);  // StartContainment + explicit first sighting.
  ObjectStateEstimate away = Away(kCase);
  away.container = kPallet;
  compressor.Report(away, 30, &out);
  ASSERT_EQ(out.size(), 4u);
  EXPECT_EQ(out[2], Event::EndLocation(kCase, 4, 10, 30));
  EXPECT_EQ(out[3], Event::Missing(kCase, 4, 30));
  // The containment survives the disappearance.
  for (const Event& e : out) EXPECT_NE(e.type, EventType::kEndContainment);
  compressor.Finish(50, &out);
  EXPECT_TRUE(ValidateWellFormed(out).ok());
}

TEST(ContainmentCompressorTest, NeverLocatedObjectEmitsNoMissing) {
  // Regression: an object only ever known through a containment edge has no
  // location to be missing *from*; emitting Missing(unknown) produced an
  // event the decompressor could not anchor. The singleton is withheld
  // until a first sighting provides a location.
  ContainmentCompressor compressor;
  EventStream out;
  ObjectStateEstimate contained_only = At(kCase, kUnknownLocation, kPallet);
  compressor.Report(contained_only, 10, &out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], Event::StartContainment(kCase, kPallet, 10));
  ObjectStateEstimate away = Away(kCase);
  away.container = kPallet;
  compressor.Report(away, 20, &out);
  for (const Event& e : out) EXPECT_NE(e.type, EventType::kMissing);
  // Once located and then lost, the Missing singleton appears as usual.
  compressor.Report(At(kCase, 4, kPallet), 30, &out);
  compressor.Report(Away(kCase), 40, &out);
  EXPECT_EQ(out.back(), Event::Missing(kCase, 4, 40));
}

// ----------------------------------------------------------- Well-formed ---

TEST(WellFormedTest, EmptyStreamOk) {
  EXPECT_TRUE(ValidateWellFormed({}).ok());
}

TEST(WellFormedTest, MatchedPairsOk) {
  EventStream stream{
      Event::StartLocation(kItem, 4, 10),
      Event::EndLocation(kItem, 4, 10, 20),
      Event::StartContainment(kItem, kCase, 12),
      Event::EndContainment(kItem, kCase, 12, 18),
  };
  EXPECT_TRUE(ValidateWellFormed(stream).ok());
}

TEST(WellFormedTest, NestedStartRejected) {
  EventStream stream{
      Event::StartLocation(kItem, 4, 10),
      Event::StartLocation(kItem, 5, 12),
  };
  EXPECT_FALSE(ValidateWellFormed(stream).ok());
}

TEST(WellFormedTest, EndWithoutStartRejected) {
  EXPECT_FALSE(ValidateWellFormed({Event::EndLocation(kItem, 4, 1, 2)}).ok());
  EXPECT_FALSE(
      ValidateWellFormed({Event::EndContainment(kItem, kCase, 1, 2)}).ok());
}

TEST(WellFormedTest, MismatchedEndRejected) {
  EventStream stream{
      Event::StartLocation(kItem, 4, 10),
      Event::EndLocation(kItem, 5, 10, 20),  // Wrong location.
  };
  EXPECT_FALSE(ValidateWellFormed(stream).ok());
  stream[1] = Event::EndLocation(kItem, 4, 11, 20);  // Wrong V_s.
  EXPECT_FALSE(ValidateWellFormed(stream).ok());
  stream[1] = Event::EndLocation(kItem, 4, 10, 5);  // V_e < V_s.
  EXPECT_FALSE(ValidateWellFormed(stream).ok());
}

TEST(WellFormedTest, MissingInsideLocationPairRejected) {
  EventStream stream{
      Event::StartLocation(kItem, 4, 10),
      Event::Missing(kItem, 4, 15),
      Event::EndLocation(kItem, 4, 10, 20),
  };
  EXPECT_FALSE(ValidateWellFormed(stream).ok());
}

TEST(WellFormedTest, MissingInsideContainmentPairAccepted) {
  EventStream stream{
      Event::StartContainment(kItem, kCase, 10),
      Event::Missing(kItem, 4, 15),
      Event::EndContainment(kItem, kCase, 10, 20),
  };
  EXPECT_TRUE(ValidateWellFormed(stream).ok());
}

TEST(WellFormedTest, OpenAtEndPolicy) {
  EventStream stream{Event::StartLocation(kItem, 4, 10)};
  EXPECT_FALSE(ValidateWellFormed(stream).ok());
  EXPECT_TRUE(ValidateWellFormed(stream, /*allow_open_at_end=*/true).ok());
}

TEST(WellFormedTest, StartAtUnknownLocationRejected) {
  EventStream stream{Event::StartLocation(kItem, kUnknownLocation, 10)};
  EXPECT_FALSE(ValidateWellFormed(stream).ok());
}

// ----------------------------------------------------------- Decompressor --

TEST(DecompressorTest, PassesThroughLevel1Stream) {
  EventStream level1{
      Event::StartLocation(kItem, 4, 10),
      Event::EndLocation(kItem, 4, 10, 20),
  };
  EventStream out = Decompressor::DecompressAll(level1);
  EXPECT_EQ(out, level1);
}

TEST(DecompressorTest, ReconstructsChildLocationFromContainment) {
  // Level-2: the case's first sighting is explicit, the end-of-epoch
  // handover closes it (zero-length tail), and from then on its location is
  // implied by the pallet's.
  EventStream level2{
      Event::StartContainment(kCase, kPallet, 1),
      Event::StartLocation(kCase, 1, 1),
      Event::StartLocation(kPallet, 1, 1),
      Event::EndLocation(kCase, 1, 1, 1),
      Event::EndLocation(kPallet, 1, 1, 5),
      Event::StartLocation(kPallet, 2, 5),
  };
  EventStream out = Decompressor::DecompressAll(level2);
  EXPECT_TRUE(ValidateWellFormed(out, /*allow_open_at_end=*/true).ok());
  // The case must have reconstructed stays at locations 1 and 2.
  bool case_at_1 = false, case_at_2 = false;
  for (const Event& e : out) {
    if (e.type == EventType::kStartLocation && e.object == kCase) {
      if (e.location == 1) case_at_1 = true;
      if (e.location == 2) case_at_2 = true;
    }
  }
  EXPECT_TRUE(case_at_1);
  EXPECT_TRUE(case_at_2);
}

TEST(DecompressorTest, RecursiveDescent) {
  // pallet -> case -> item: a pallet move propagates two levels down. The
  // contained objects' first sightings are explicit and handed over to
  // derived tracking at the end of their first epoch.
  EventStream level2{
      Event::StartContainment(kCase, kPallet, 1),
      Event::StartContainment(kItem, kCase, 1),
      Event::StartLocation(kPallet, 1, 1),
      Event::StartLocation(kCase, 1, 1),
      Event::StartLocation(kItem, 1, 1),
      Event::EndLocation(kCase, 1, 1, 1),
      Event::EndLocation(kItem, 1, 1, 1),
      Event::EndLocation(kPallet, 1, 1, 9),
      Event::StartLocation(kPallet, 3, 9),
  };
  EventStream out = Decompressor::DecompressAll(level2);
  bool item_at_3 = false;
  for (const Event& e : out) {
    if (e.type == EventType::kStartLocation && e.object == kItem &&
        e.location == 3) {
      item_at_3 = true;
    }
  }
  EXPECT_TRUE(item_at_3);
}

TEST(DecompressorTest, SuppressesDuplicateStart) {
  // The paper's T2/T3 example: the stream's StartLocation(C2, L2, T3) is a
  // duplicate of the propagated location and must be removed.
  EventStream level2{
      Event::StartContainment(kCase, kPallet, 1),
      Event::StartLocation(kPallet, 2, 2),
      Event::EndContainment(kCase, kPallet, 1, 3),
      Event::StartLocation(kCase, 2, 3),  // Duplicate: already at 2.
  };
  EventStream out = Decompressor::DecompressAll(level2);
  int case_starts_at_2 = 0;
  for (const Event& e : out) {
    if (e.type == EventType::kStartLocation && e.object == kCase &&
        e.location == 2) {
      ++case_starts_at_2;
    }
  }
  EXPECT_EQ(case_starts_at_2, 1);
}

TEST(DecompressorTest, LateContainmentInheritsCurrentLocation) {
  // Containment starting after the container settled: the child picks up
  // the container's current location immediately.
  EventStream level2{
      Event::StartLocation(kPallet, 5, 1),
      Event::EndLocation(kCase, 5, 1, 10),        // Level-2 closes the child.
      Event::StartContainment(kCase, kPallet, 10),
  };
  // Give the child its own pre-containment stay first.
  EventStream input;
  input.push_back(Event::StartLocation(kCase, 5, 1));
  for (const Event& e : level2) input.push_back(e);
  EventStream out = Decompressor::DecompressAll(input);
  EXPECT_TRUE(ValidateWellFormed(out, true).ok());
  // The churn canceller splices the End/Start at epoch 10 away: the case's
  // stay at 5 is continuous.
  int case_events_at_10 = 0;
  for (const Event& e : out) {
    if (e.object == kCase && !IsContainmentEvent(e.type) &&
        (e.start == 10 || e.end == 10)) {
      ++case_events_at_10;
    }
  }
  EXPECT_EQ(case_events_at_10, 0);
}

TEST(DecompressorTest, MissingClosesReconstructedStay) {
  // The case's stay is derived from the pallet's after the handover; the
  // Missing singleton must still close it so the output stays well-formed.
  EventStream level2{
      Event::StartContainment(kCase, kPallet, 1),
      Event::StartLocation(kCase, 2, 2),
      Event::StartLocation(kPallet, 2, 2),
      Event::EndLocation(kCase, 2, 2, 2),
      Event::Missing(kCase, 2, 7),
  };
  EventStream out = Decompressor::DecompressAll(level2);
  EXPECT_TRUE(ValidateWellFormed(out, true).ok());
  bool closed = false;
  for (const Event& e : out) {
    if (e.type == EventType::kEndLocation && e.object == kCase) closed = true;
  }
  EXPECT_TRUE(closed);
}

TEST(DecompressorTest, StreamingMatchesBatch) {
  EventStream level2{
      Event::StartContainment(kCase, kPallet, 1),
      Event::StartLocation(kPallet, 1, 1),
      Event::EndLocation(kPallet, 1, 1, 5),
      Event::StartLocation(kPallet, 2, 5),
      Event::EndContainment(kCase, kPallet, 1, 8),
      Event::StartLocation(kCase, 2, 8),
  };
  Decompressor streaming;
  EventStream incremental;
  for (const Event& e : level2) streaming.Push(e, &incremental);
  streaming.Finish(&incremental);
  EXPECT_EQ(incremental, Decompressor::DecompressAll(level2));
}

// ------------------------------------------------------- Churn cancellation --

/// CancelLocationChurn as it was before it walked per-object chains: every
/// rule scans forward past other objects' messages, quadratic in the slice.
/// Kept verbatim as the reference the chain walk must agree with.
std::vector<ChurnSplice> ReferenceCancelLocationChurn(EventStream* events,
                                                      std::size_t first) {
  const std::size_t n = events->size();
  std::vector<bool> removed(n - first, false);

  // Pass 1: zero-length stays superseded by another stay at the same epoch.
  for (std::size_t i = first; i < n; ++i) {
    const Event& start_event = (*events)[i];
    if (removed[i - first] || start_event.type != EventType::kStartLocation) {
      continue;
    }
    // The stay's close must be its very next location message...
    std::size_t close = n;
    for (std::size_t j = i + 1; j < n; ++j) {
      const Event& later = (*events)[j];
      if (removed[j - first] || later.object != start_event.object ||
          IsContainmentEvent(later.type)) {
        continue;
      }
      if (later.type == EventType::kEndLocation &&
          later.location == start_event.location &&
          later.start == start_event.start &&
          later.end == start_event.start) {
        close = j;
      }
      break;
    }
    if (close == n) continue;
    // ...and a replacement stay must open at the same epoch afterwards.
    // Without one the zero-length stay is a genuine visit (e.g. an exit
    // sighting) and stays; a Missing in between is a real departure.
    for (std::size_t k = close + 1; k < n; ++k) {
      const Event& later = (*events)[k];
      if (removed[k - first] || later.object != start_event.object ||
          IsContainmentEvent(later.type)) {
        continue;
      }
      if (later.type == EventType::kStartLocation &&
          later.start == start_event.start) {
        removed[i - first] = true;
        removed[close - first] = true;
      }
      break;
    }
  }

  // Pass 2: End immediately re-opened in place — the stay never ended.
  std::vector<ChurnSplice> splices;
  for (std::size_t i = first; i < n; ++i) {
    const Event& end_event = (*events)[i];
    if (removed[i - first] || end_event.type != EventType::kEndLocation) {
      continue;
    }
    for (std::size_t j = i + 1; j < n; ++j) {
      const Event& later = (*events)[j];
      if (removed[j - first] || later.object != end_event.object ||
          IsContainmentEvent(later.type)) {
        continue;
      }
      if (later.type == EventType::kMissing) break;  // Keep a real departure.
      if (later.type == EventType::kStartLocation) {
        if (later.location == end_event.location &&
            later.start == end_event.end) {
          removed[i - first] = true;
          removed[j - first] = true;
          // The reopened stay may itself have ended later in this same
          // epoch; then the splice runs *through* the pair: the surviving
          // End inherits the original start instead of the stay being left
          // open.
          bool closed_later = false;
          for (std::size_t k = j + 1; k < n; ++k) {
            Event& after = (*events)[k];
            if (removed[k - first] || after.object != end_event.object ||
                IsContainmentEvent(after.type)) {
              continue;
            }
            if (after.type == EventType::kEndLocation &&
                after.location == end_event.location &&
                after.start == later.start) {
              after.start = end_event.start;
              closed_later = true;
            }
            break;
          }
          if (!closed_later) {
            splices.push_back(ChurnSplice{end_event.object,
                                          end_event.location,
                                          end_event.start});
          }
        }
        break;  // Only the immediately following stay can cancel the end.
      }
      if (later.type == EventType::kEndLocation) break;
    }
  }

  std::size_t write = first;
  for (std::size_t i = first; i < n; ++i) {
    if (!removed[i - first]) {
      if (write != i) (*events)[write] = (*events)[i];
      ++write;
    }
  }
  events->resize(write);
  return splices;
}

TEST(ChurnTest, ChainWalkAgreesWithTheForwardScanOnRandomSlices) {
  // Single-epoch slices (epoch 50) over three objects and two locations,
  // dense in the shapes the rules look for: zero-length stays, End/Start
  // pairs at one location, Missing singletons and interleaved containment
  // messages, behind a prefix the call must leave alone.
  constexpr Epoch kNow = 50;
  const ObjectId objects[] = {kItem, kCase, kPallet};
  std::mt19937 rng(20240607);
  std::size_t cancelled = 0, spliced = 0;
  for (int trial = 0; trial < 4000; ++trial) {
    EventStream events;
    const std::size_t prefix = rng() % 3;
    for (std::size_t i = 0; i < prefix; ++i) {
      events.push_back(Event::StartLocation(kItem, 1, kNow - 10));
    }
    const int length = 1 + static_cast<int>(rng() % 14);
    for (int i = 0; i < length; ++i) {
      const ObjectId object = objects[rng() % 3];
      const LocationId location = static_cast<LocationId>(1 + rng() % 2);
      const Epoch earlier = kNow - 1 - static_cast<Epoch>(rng() % 3);
      switch (rng() % 6) {
        case 0:
        case 1:
          events.push_back(Event::StartLocation(object, location, kNow));
          break;
        case 2:
          events.push_back(Event::EndLocation(
              object, location, rng() % 2 == 0 ? kNow : earlier, kNow));
          break;
        case 3:
          events.push_back(Event::EndLocation(object, location, earlier,
                                              kNow));
          break;
        case 4:
          events.push_back(Event::Missing(object, location, kNow));
          break;
        default:
          events.push_back(Event::StartContainment(object, kPallet, kNow));
          break;
      }
    }
    EventStream expected = events;
    const std::vector<ChurnSplice> expected_splices =
        ReferenceCancelLocationChurn(&expected, prefix);
    const std::vector<ChurnSplice> splices =
        CancelLocationChurn(&events, prefix);
    ASSERT_EQ(events, expected) << "trial " << trial;
    ASSERT_EQ(splices, expected_splices) << "trial " << trial;
    cancelled += events.size() < static_cast<std::size_t>(length) + prefix;
    spliced += !splices.empty();
  }
  // The slices exercise both rules, not just the pass-through path.
  EXPECT_GT(cancelled, 400u);
  EXPECT_GT(spliced, 100u);
}

}  // namespace
}  // namespace spire
