// Tests for the warehouse simulator, its configuration, the layout, and the
// ground-truth recorder.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/epc.h"
#include "compress/well_formed.h"
#include "sim/ground_truth.h"
#include "sim/layout.h"
#include "sim/sim_config.h"
#include "sim/simulator.h"

namespace spire {
namespace {

SimConfig SmallConfig() {
  SimConfig config;
  config.duration_epochs = 1200;
  config.pallet_interval = 200;
  config.min_cases_per_pallet = 2;
  config.max_cases_per_pallet = 3;
  config.items_per_case = 4;
  config.mean_shelf_stay = 300;
  config.shelf_period = 20;
  config.num_shelves = 3;
  return config;
}

// ------------------------------------------------------------- SimConfig --

TEST(SimConfigTest, DefaultsValidate) {
  EXPECT_TRUE(SimConfig().Validate().ok());
}

TEST(SimConfigTest, RejectsBadRanges) {
  SimConfig config;
  config.read_rate = 1.5;
  EXPECT_FALSE(config.Validate().ok());
  config = SimConfig();
  config.min_cases_per_pallet = 5;
  config.max_cases_per_pallet = 3;
  EXPECT_FALSE(config.Validate().ok());
  config = SimConfig();
  config.duration_epochs = 0;
  EXPECT_FALSE(config.Validate().ok());
  config = SimConfig();
  config.shelf_period = 0;
  EXPECT_FALSE(config.Validate().ok());
}

TEST(SimConfigTest, KeysNameEveryFieldOnceWithItsDefault) {
  std::map<std::string, OptionValue> defaults;
  for (const OptionSpec& key : SimConfig::Keys()) {
    EXPECT_TRUE(defaults.emplace(key.name, key.default_value).second)
        << key.name;
  }
  EXPECT_EQ(defaults.size(), 27u);
  EXPECT_EQ(std::get<double>(defaults.at("read_rate")), 0.85);
  EXPECT_EQ(std::get<bool>(defaults.at("patrol_reader")), false);
  EXPECT_EQ(std::get<std::int64_t>(defaults.at("seed")), 42);
  EXPECT_EQ(std::get<std::int64_t>(defaults.at("duration_epochs")), 3 * 3600);
}

/// `lines` parsed against SimConfig::Keys() and applied on top of `base`.
Result<SimConfig> FromLines(const std::vector<std::string>& lines,
                            const SimConfig& base = SimConfig()) {
  auto given = Config::FromLines(lines);
  if (!given.ok()) return given.status();
  auto options = Options::Parse(SimConfig::Keys(), given.value());
  if (!options.ok()) return options.status();
  return SimConfig::FromOptions(options.value(), base);
}

TEST(SimConfigTest, FromOptionsOverridesSelectedKeys) {
  SimConfig base = SmallConfig();
  auto result =
      FromLines({"read_rate = 0.7", "shelf_period = 30", "patrol_reader = on",
                 "seed = 9223372036854775807"},
                base);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().read_rate, 0.7);
  EXPECT_EQ(result.value().shelf_period, 30);
  EXPECT_TRUE(result.value().patrol_reader);
  EXPECT_EQ(result.value().seed, 9223372036854775807u);
  EXPECT_EQ(result.value().duration_epochs, base.duration_epochs);
}

TEST(SimConfigTest, FromOptionsRejectsMalformedAndNarrowedValuesByName) {
  const std::pair<std::string, std::string> cases[] = {
      {"read_rate = fast", "config key 'read_rate' is not a number: fast"},
      {"read_rate = 2.0", "read_rate must be in [0, 1]"},
      {"entry_dwell = 0", "entry_dwell must be >= 1"},
      // An int field never wraps: 2^32 + 1 would run as 1 shelf.
      {"num_shelves = 4294967297",
       "config key 'num_shelves' must be <= 2147483647, got 4294967297"},
      {"num_shelves = -4294967295",
       "config key 'num_shelves' must be >= -2147483648, got -4294967295"},
      {"seed = -1", "config key 'seed' must be >= 0, got -1"},
      {"no_such_key = 1", "unknown key 'no_such_key'"},
  };
  for (const auto& [line, message] : cases) {
    auto result = FromLines({line});
    ASSERT_FALSE(result.ok()) << line;
    EXPECT_EQ(result.status().message(), message) << line;
  }
}

// ---------------------------------------------------------------- Layout --

TEST(LayoutTest, BuildsSixReaderGroups) {
  auto layout = WarehouseLayout::Build(SmallConfig());
  ASSERT_TRUE(layout.ok());
  const WarehouseLayout& l = layout.value();
  EXPECT_EQ(l.registry.readers().size(), 3u + 5u);  // 3 shelves + 5 others.
  EXPECT_EQ(l.shelves.size(), 3u);
  EXPECT_EQ(l.registry.GetReader(l.entry_reader).value().type,
            ReaderType::kEntryDoor);
  EXPECT_EQ(l.registry.GetReader(l.exit_reader).value().type,
            ReaderType::kExitDoor);
  EXPECT_EQ(l.registry.GetReader(l.shelf_readers[0]).value().period_epochs,
            SmallConfig().shelf_period);
  // The schedule's complete-inference cadence follows the shelf period.
  EXPECT_EQ(l.registry.PeriodLcm(), SmallConfig().shelf_period);
}

// ------------------------------------------------------------- Simulator --

TEST(SimulatorTest, DeterministicForSeed) {
  auto a = WarehouseSimulator::Create(SmallConfig());
  auto b = WarehouseSimulator::Create(SmallConfig());
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  for (int i = 0; i < 600; ++i) {
    EpochReadings ra = a.value()->Step();
    EpochReadings rb = b.value()->Step();
    ASSERT_EQ(ra, rb) << "diverged at epoch " << i;
  }
}

TEST(SimulatorTest, DifferentSeedsDiffer) {
  SimConfig config = SmallConfig();
  auto a = WarehouseSimulator::Create(config);
  config.seed = 43;
  auto b = WarehouseSimulator::Create(config);
  bool any_difference = false;
  for (int i = 0; i < 600 && !any_difference; ++i) {
    any_difference = a.value()->Step() != b.value()->Step();
  }
  EXPECT_TRUE(any_difference);
}

TEST(SimulatorTest, ObjectsFlowThroughAllStages) {
  auto sim = WarehouseSimulator::Create(SmallConfig());
  auto& s = *sim.value();
  std::set<LocationId> seen_locations;
  while (!s.Done()) {
    for (const RfidReading& r : s.Step()) {
      seen_locations.insert(s.registry().LocationOf(r.reader));
    }
  }
  const WarehouseLayout& l = s.layout();
  EXPECT_TRUE(seen_locations.contains(l.entry_door));
  EXPECT_TRUE(seen_locations.contains(l.receiving_belt));
  EXPECT_TRUE(seen_locations.contains(l.packaging));
  EXPECT_TRUE(seen_locations.contains(l.outgoing_belt));
  EXPECT_TRUE(seen_locations.contains(l.exit_door));
  bool any_shelf = false;
  for (LocationId shelf : l.shelves) any_shelf |= seen_locations.contains(shelf);
  EXPECT_TRUE(any_shelf);
}

TEST(SimulatorTest, ReceivingBeltScansOneCaseAtATime) {
  // The belt is a special reader: at any epoch its location holds at most
  // one case (plus that case's items).
  auto sim = WarehouseSimulator::Create(SmallConfig());
  auto& s = *sim.value();
  while (!s.Done()) {
    s.Step();
    int cases_on_belt = 0;
    for (ObjectId id : s.world().ObjectsAt(s.layout().receiving_belt)) {
      if (EpcLevel(id) == PackagingLevel::kCase) ++cases_on_belt;
    }
    ASSERT_LE(cases_on_belt, 1) << "epoch " << s.current_epoch();
  }
}

TEST(SimulatorTest, OutgoingBeltScansOnePalletAtATime) {
  auto sim = WarehouseSimulator::Create(SmallConfig());
  auto& s = *sim.value();
  while (!s.Done()) {
    s.Step();
    int pallets_on_belt = 0;
    for (ObjectId id : s.world().ObjectsAt(s.layout().outgoing_belt)) {
      if (EpcLevel(id) == PackagingLevel::kPallet) ++pallets_on_belt;
    }
    ASSERT_LE(pallets_on_belt, 1) << "epoch " << s.current_epoch();
  }
}

TEST(SimulatorTest, ItemsStayWithTheirCases) {
  auto sim = WarehouseSimulator::Create(SmallConfig());
  auto& s = *sim.value();
  while (!s.Done()) {
    s.Step();
    if (s.current_epoch() % 50 != 0) continue;
    for (const auto& [id, state] : s.world().objects()) {
      if (state.level != PackagingLevel::kItem || state.stolen) continue;
      if (state.parent == kNoObject) continue;
      ASSERT_EQ(state.location, s.world().LocationOf(state.parent))
          << "item strayed from its case at epoch " << s.current_epoch();
    }
  }
}

TEST(SimulatorTest, PerfectReadRateReadsEveryPresentObject) {
  SimConfig config = SmallConfig();
  config.read_rate = 1.0;
  config.duration_epochs = 400;
  auto sim = WarehouseSimulator::Create(config);
  auto& s = *sim.value();
  while (!s.Done()) {
    EpochReadings readings = s.Step();
    std::set<ObjectId> read_tags;
    for (const RfidReading& r : readings) read_tags.insert(r.tag);
    for (const ReaderInfo& reader : s.registry().readers()) {
      if (s.current_epoch() % reader.period_epochs != 0) continue;
      for (ObjectId id : s.world().ObjectsAt(reader.location)) {
        ASSERT_TRUE(read_tags.contains(id))
            << "present object missed at read rate 1.0";
      }
    }
  }
}

TEST(SimulatorTest, ZeroReadRateProducesNoReadings) {
  SimConfig config = SmallConfig();
  config.read_rate = 0.0;
  config.duration_epochs = 300;
  auto sim = WarehouseSimulator::Create(config);
  auto& s = *sim.value();
  std::size_t total = 0;
  while (!s.Done()) total += s.Step().size();
  EXPECT_EQ(total, 0u);
  EXPECT_EQ(s.total_readings(), 0u);
}

TEST(SimulatorTest, ObjectsEventuallyExit) {
  SimConfig config = SmallConfig();
  config.duration_epochs = 1200;
  config.pallet_interval = 1000;  // One pallet only.
  config.mean_shelf_stay = 100;
  auto sim = WarehouseSimulator::Create(config);
  auto& s = *sim.value();
  std::size_t peak = 0;
  while (!s.Done()) {
    s.Step();
    peak = std::max(peak, s.objects_alive());
  }
  EXPECT_GT(peak, 0u);
  // The single pallet's group re-exited (a new inbound pallet at 1000 may
  // be in flight, so alive < peak rather than zero).
  EXPECT_LT(s.objects_alive(), peak);
}

TEST(SimulatorTest, TheftsAreRecordedAndHideObjects) {
  SimConfig config = SmallConfig();
  config.theft_interval = 100;
  auto sim = WarehouseSimulator::Create(config);
  auto& s = *sim.value();
  while (!s.Done()) s.Step();
  ASSERT_FALSE(s.thefts().empty());
  for (const Theft& theft : s.thefts()) {
    const ObjectState* state = s.world().Find(theft.object);
    if (state != nullptr) {
      EXPECT_TRUE(state->stolen);
      EXPECT_EQ(state->location, kUnknownLocation);
    }
  }
}

TEST(SimulatorTest, StolenObjectsAreNeverReadAgain) {
  SimConfig config = SmallConfig();
  config.theft_interval = 100;
  auto sim = WarehouseSimulator::Create(config);
  auto& s = *sim.value();
  std::map<ObjectId, Epoch> stolen_at;
  while (!s.Done()) {
    EpochReadings readings = s.Step();
    for (const Theft& theft : s.thefts()) {
      stolen_at.emplace(theft.object, theft.epoch);
    }
    for (const RfidReading& r : readings) {
      auto it = stolen_at.find(r.tag);
      if (it != stolen_at.end()) {
        ASSERT_GT(it->second, s.current_epoch())
            << "stolen object read after the theft";
      }
    }
  }
}

TEST(SimulatorTest, TruthStreamWellFormed) {
  SimConfig config = SmallConfig();
  config.theft_interval = 150;
  auto sim = WarehouseSimulator::Create(config);
  auto& s = *sim.value();
  while (!s.Done()) s.Step();
  s.FinishTruth();
  EXPECT_TRUE(ValidateWellFormed(s.truth_events()).ok());
  EXPECT_FALSE(s.truth_events().empty());
}

TEST(SimulatorTest, TruthHasMissingOnlyForThefts) {
  // Transits between stages must not appear as Missing in the truth.
  auto clean = WarehouseSimulator::Create(SmallConfig());
  while (!clean.value()->Done()) clean.value()->Step();
  clean.value()->FinishTruth();
  for (const Event& e : clean.value()->truth_events()) {
    EXPECT_NE(e.type, EventType::kMissing);
  }

  SimConfig config = SmallConfig();
  config.theft_interval = 150;
  auto with_theft = WarehouseSimulator::Create(config);
  while (!with_theft.value()->Done()) with_theft.value()->Step();
  with_theft.value()->FinishTruth();
  int missing = 0;
  for (const Event& e : with_theft.value()->truth_events()) {
    if (e.type == EventType::kMissing) ++missing;
  }
  EXPECT_GT(missing, 0);
}

TEST(SimulatorTest, TouchedRecordingMatchesFullDiff) {
  // The incremental (touched-id) ground-truth recorder must produce the
  // same stream as the O(world) full-diff reference.
  SimConfig config = SmallConfig();
  config.duration_epochs = 800;
  config.theft_interval = 120;
  auto sim = WarehouseSimulator::Create(config);
  auto& s = *sim.value();
  GroundTruthRecorder reference;
  while (!s.Done()) {
    s.Step();
    reference.Observe(s.world(), s.current_epoch());
  }
  Epoch end = s.current_epoch() + 1;
  s.FinishTruth();
  reference.Finish(end);
  EXPECT_EQ(s.truth_events(), reference.events());
}

TEST(SimulatorTest, RawReadingCountMatchesEmissions) {
  auto sim = WarehouseSimulator::Create(SmallConfig());
  auto& s = *sim.value();
  std::size_t counted = 0;
  while (!s.Done()) counted += s.Step().size();
  EXPECT_EQ(counted, s.total_readings());
}

TEST(SimulatorTest, NonShelfTicksMultiplyReadings) {
  SimConfig one = SmallConfig();
  one.nonshelf_ticks_per_epoch = 1;
  one.read_rate = 1.0;
  one.duration_epochs = 300;
  SimConfig two = one;
  two.nonshelf_ticks_per_epoch = 2;
  auto sim1 = WarehouseSimulator::Create(one);
  auto sim2 = WarehouseSimulator::Create(two);
  while (!sim1.value()->Done()) sim1.value()->Step();
  while (!sim2.value()->Done()) sim2.value()->Step();
  EXPECT_GT(sim2.value()->total_readings(),
            sim1.value()->total_readings() * 3 / 2);
}

}  // namespace
}  // namespace spire
