// Unit tests for the differential checking harness itself (src/check):
// deterministic case expansion, the oracle battery on known-green seeds and
// known-broken streams, repro serialization, and the shrinker contract.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "check/oracles.h"
#include "check/repro.h"
#include "check/shrink.h"
#include "check/trace_gen.h"
#include "common/epc.h"

namespace spire {
namespace {

ObjectId Item(std::uint32_t serial) {
  EpcFields fields;
  fields.level = PackagingLevel::kItem;
  fields.serial = serial;
  return EncodeEpcUnchecked(fields);
}

TEST(TraceGenTest, SameSeedExpandsToIdenticalTrace) {
  const FuzzCase fuzz_case = CaseFromSeed(42);
  auto first = GenerateTrace(fuzz_case);
  auto second = GenerateTrace(fuzz_case);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  const RecordedTrace& a = first.value();
  const RecordedTrace& b = second.value();
  EXPECT_EQ(a.total_readings, b.total_readings);
  ASSERT_EQ(a.epochs.size(), b.epochs.size());
  for (std::size_t e = 0; e < a.epochs.size(); ++e) {
    ASSERT_EQ(a.epochs[e].size(), b.epochs[e].size()) << "epoch " << e;
    for (std::size_t i = 0; i < a.epochs[e].size(); ++i) {
      EXPECT_EQ(a.epochs[e][i].tag, b.epochs[e][i].tag);
      EXPECT_EQ(a.epochs[e][i].reader, b.epochs[e][i].reader);
      EXPECT_EQ(a.epochs[e][i].epoch, b.epochs[e][i].epoch);
      EXPECT_EQ(a.epochs[e][i].tick, b.epochs[e][i].tick);
    }
  }
}

TEST(TraceGenTest, DistinctSeedsVaryTheScenario) {
  // Not a strict requirement seed-by-seed, but across a handful of seeds the
  // generator must not collapse to a single deployment shape.
  std::vector<std::size_t> totals;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    auto trace = GenerateTrace(CaseFromSeed(seed));
    ASSERT_TRUE(trace.ok());
    totals.push_back(trace.value().total_readings);
  }
  std::sort(totals.begin(), totals.end());
  totals.erase(std::unique(totals.begin(), totals.end()), totals.end());
  EXPECT_GT(totals.size(), 1u);
}

TEST(TraceGenTest, ExclusionRemovesEveryReadingOfTheTag) {
  FuzzCase fuzz_case = CaseFromSeed(7);
  auto full = GenerateTrace(fuzz_case);
  ASSERT_TRUE(full.ok());
  const std::vector<ObjectId> tags = TagsInTrace(full.value());
  ASSERT_FALSE(tags.empty());
  fuzz_case.excluded_tags.push_back(tags.front());
  auto filtered = GenerateTrace(fuzz_case);
  ASSERT_TRUE(filtered.ok());
  EXPECT_LT(filtered.value().total_readings, full.value().total_readings);
  for (const EpochReadings& readings : filtered.value().epochs) {
    for (const RfidReading& r : readings) {
      EXPECT_NE(r.tag, tags.front());
    }
  }
}

TEST(OracleTest, KnownSeedsStayGreen) {
  DifferentialChecker checker;
  CheckStats stats;
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    auto failure = checker.Check(CaseFromSeed(seed), &stats);
    EXPECT_FALSE(failure.has_value())
        << "seed " << seed << ": " << failure->oracle << "\n"
        << failure->detail;
  }
  // 2 compression levels + 4 incremental-equivalence re-runs + 2 determinism
  // re-runs + 1 explain-consistency re-run per case.
  EXPECT_EQ(stats.traces_run, 27u);
}

TEST(OracleTest, IncrementalEquivalenceHoldsOnKnownSeeds) {
  for (std::uint64_t seed : {4u, 40u}) {  // 40 caught the pruning-seed bug.
    auto trace = GenerateTrace(CaseFromSeed(seed));
    ASSERT_TRUE(trace.ok());
    EventStream level1 =
        RunPipelineOnTrace(trace.value(), CompressionLevel::kLevel1);
    EventStream level2 =
        RunPipelineOnTrace(trace.value(), CompressionLevel::kLevel2);
    auto failure = DifferentialChecker::CheckIncrementalEquivalence(
        trace.value(), level1, level2);
    EXPECT_FALSE(failure.has_value())
        << "seed " << seed << ": " << failure->detail;
  }
}

TEST(OracleTest, IncrementalEquivalenceCatchesTamperedStream) {
  auto trace = GenerateTrace(CaseFromSeed(4));
  ASSERT_TRUE(trace.ok());
  EventStream level1 =
      RunPipelineOnTrace(trace.value(), CompressionLevel::kLevel1);
  EventStream level2 =
      RunPipelineOnTrace(trace.value(), CompressionLevel::kLevel2);
  ASSERT_FALSE(level1.empty());
  level1.pop_back();  // An incremental run that dropped an event.
  auto failure = DifferentialChecker::CheckIncrementalEquivalence(
      trace.value(), level1, level2);
  ASSERT_TRUE(failure.has_value());
  EXPECT_EQ(failure->oracle, "incremental_equivalence");
}

TEST(OracleTest, WellFormednessCatchesDanglingEnd) {
  EventStream level1;
  level1.push_back(Event::EndLocation(Item(1), 2, 1, 5));  // End, no Start.
  auto failure = DifferentialChecker::CheckWellFormed(level1, {});
  ASSERT_TRUE(failure.has_value());
  EXPECT_EQ(failure->oracle, "well_formed");
}

TEST(OracleTest, RecoveryCatchesDivergingStreams) {
  EventStream level1;
  level1.push_back(Event::StartLocation(Item(1), 2, 1));
  level1.push_back(Event::EndLocation(Item(1), 2, 1, 5));
  auto failure = DifferentialChecker::CheckLevel2Recovery(level1, {});
  ASSERT_TRUE(failure.has_value());
  EXPECT_EQ(failure->oracle, "level2_recovery");
  EXPECT_FALSE(failure->detail.empty());
}

TEST(OracleTest, DiffStreamsEmptyOnEqualModuloIntraEpochOrder) {
  EventStream a;
  a.push_back(Event::StartLocation(Item(1), 2, 3));
  a.push_back(Event::StartLocation(Item(2), 4, 3));
  EventStream b;
  b.push_back(Event::StartLocation(Item(2), 4, 3));
  b.push_back(Event::StartLocation(Item(1), 2, 3));
  EXPECT_EQ(DiffStreams(Canonicalized(a), Canonicalized(b), "a", "b"), "");
}

TEST(ReproTest, SerializeParseRoundTrip) {
  FuzzCase fuzz_case = CaseFromSeed(99);
  fuzz_case.max_epochs = 17;
  fuzz_case.excluded_tags = {Item(3), Item(8)};
  OracleFailure failure;
  failure.oracle = "level2_recovery";
  failure.detail = "first divergence at [4]\nmulti-line detail";
  auto lines = SerializeRepro(fuzz_case, &failure);
  auto parsed = ParseRepro(lines);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value().sim.seed, fuzz_case.sim.seed);
  EXPECT_EQ(parsed.value().max_epochs, 17);
  EXPECT_EQ(parsed.value().excluded_tags, fuzz_case.excluded_tags);
  // The reloaded case expands to the same trace.
  auto a = GenerateTrace(fuzz_case);
  auto b = GenerateTrace(parsed.value());
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a.value().total_readings, b.value().total_readings);
}

void Bump(bool* field) { *field = !*field; }
void Bump(double* field) { *field /= 3; }
template <typename Int>
void Bump(Int* field) {
  *field += 1;
}

TEST(ReproTest, RoundTripsEveryField) {
  FuzzCase fuzz_case = CaseFromSeed(1523);
  fuzz_case.sim.transfer_sites = 2;  // Bumped to 3: transfers on.
#define SPIRE_BUMP(field) Bump(&fuzz_case.sim.field);
  SPIRE_SIM_FIELDS(SPIRE_BUMP)
#undef SPIRE_BUMP
  fuzz_case.sim.seed = INT64_MAX;  // The largest seed a repro file holds.
  fuzz_case.max_epochs = 17;
  fuzz_case.excluded_tags = {Item(3)};
  ASSERT_TRUE(fuzz_case.sim.Validate().ok());
  auto parsed = ParseRepro(SerializeRepro(fuzz_case, nullptr));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
#define SPIRE_EXPECT_FIELD(field) \
  EXPECT_EQ(parsed.value().sim.field, fuzz_case.sim.field) << #field;
  SPIRE_SIM_FIELDS(SPIRE_EXPECT_FIELD)
#undef SPIRE_EXPECT_FIELD
  EXPECT_EQ(parsed.value().max_epochs, 17);
  EXPECT_EQ(parsed.value().excluded_tags, fuzz_case.excluded_tags);
}

TEST(ReproTest, SeedKeyStopsAtInt64Max) {
  FuzzCase fuzz_case = CaseFromSeed(1);
  fuzz_case.sim.seed = static_cast<std::uint64_t>(INT64_MAX) + 1;
  auto parsed = ParseRepro(SerializeRepro(fuzz_case, nullptr));
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().message(),
            "config key 'seed' must be <= 9223372036854775807, got "
            "9223372036854775808");
  EXPECT_EQ(ParseRepro({"seed = 1", "max_epoch = 3"}).status().message(),
            "unknown key 'max_epoch'");
}

TEST(ReproTest, LoadsTheSeedFirstLayout) {
  // A repro file as written before the field list drove the writer: seed
  // first, then every other field in declaration order.
  const std::vector<std::string> lines = {
      "# spire_fuzz repro — replay with: spire_fuzz --replay <this file>",
      "# oracle: level2_recovery", "#   first divergence", "#   line two",
      "seed = 1523", "duration_epochs = 368", "pallet_interval = 49",
      "min_cases_per_pallet = 1", "max_cases_per_pallet = 1",
      "items_per_case = 5", "read_rate = 0.28333333333333333",
      "nonshelf_ticks_per_epoch = 1", "shelf_period = 16", "num_shelves = 1",
      "mean_shelf_stay = 131", "entry_dwell = 8", "belt_dwell = 1",
      "packaging_dwell = 17", "exit_dwell = 3", "packaging_timeout = 173",
      "transit_time = 3", "theft_interval = 94", "patrol_reader = true",
      "patrol_dwell = 3", "transfer_sites = 1", "transfer_interval = 120",
      "transfer_dwell = 4", "transfer_transit = 5",
      "transfer_round_trips = 1", "transfer_cases = 2", "transfer_items = 3",
      "max_epochs = 17", "exclude_tags = 0x10000000000003,0x8"};
  FuzzCase expected = CaseFromSeed(1523);
  expected.sim.read_rate = 0.85 / 3;
  expected.sim.patrol_reader = true;
  expected.max_epochs = 17;
  expected.excluded_tags = {0x10000000000003ULL, 0x8ULL};
  auto parsed = ParseRepro(lines);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
#define SPIRE_EXPECT_FIELD(field) \
  EXPECT_EQ(parsed.value().sim.field, expected.sim.field) << #field;
  SPIRE_SIM_FIELDS(SPIRE_EXPECT_FIELD)
#undef SPIRE_EXPECT_FIELD
  EXPECT_EQ(parsed.value().max_epochs, expected.max_epochs);
  EXPECT_EQ(parsed.value().excluded_tags, expected.excluded_tags);
}

TEST(ShrinkTest, TruncatesEpochsAndExcludesIrrelevantTags) {
  FuzzCase failing = CaseFromSeed(5);
  auto trace = GenerateTrace(failing);
  ASSERT_TRUE(trace.ok());
  const std::vector<ObjectId> tags = TagsInTrace(trace.value());
  ASSERT_GE(tags.size(), 2u);
  const ObjectId culprit = tags.front();

  // Synthetic bug: the case "fails" iff the culprit tag is still in the
  // trace and at least 4 epochs survive. The shrinker must keep exactly
  // that core and discard the rest.
  const CaseRunner run =
      [&](const FuzzCase& candidate) -> std::optional<OracleFailure> {
    const bool culprit_present =
        std::find(candidate.excluded_tags.begin(),
                  candidate.excluded_tags.end(),
                  culprit) == candidate.excluded_tags.end();
    if (culprit_present && candidate.EffectiveEpochs() >= 4) {
      return OracleFailure{"synthetic", "still failing"};
    }
    return std::nullopt;
  };

  OracleFailure original{"synthetic", "still failing"};
  ShrinkOutcome outcome = MinimizeCase(failing, original, run);
  EXPECT_EQ(outcome.failure.oracle, "synthetic");
  EXPECT_GE(outcome.minimized.EffectiveEpochs(), 4);
  EXPECT_LE(outcome.minimized.EffectiveEpochs(), failing.EffectiveEpochs());
  EXPECT_EQ(std::find(outcome.minimized.excluded_tags.begin(),
                      outcome.minimized.excluded_tags.end(), culprit),
            outcome.minimized.excluded_tags.end());
  EXPECT_FALSE(outcome.minimized.excluded_tags.empty());
  // The minimized trace keeps the culprit and sheds irrelevant tags (epoch
  // truncation removes most; the ddmin pass excludes the stragglers).
  auto minimized_trace = GenerateTrace(outcome.minimized);
  ASSERT_TRUE(minimized_trace.ok());
  const std::vector<ObjectId> remaining = TagsInTrace(minimized_trace.value());
  EXPECT_NE(std::find(remaining.begin(), remaining.end(), culprit),
            remaining.end());
  EXPECT_LT(remaining.size(), tags.size());
  EXPECT_GT(outcome.attempts, 0);
}

}  // namespace
}  // namespace spire
