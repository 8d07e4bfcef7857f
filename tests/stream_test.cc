// Unit tests for src/stream: reader registry, deduplication, epoch batching.
#include <gtest/gtest.h>

#include <algorithm>
#include <random>

#include "common/epc.h"
#include "stream/dedup.h"
#include "stream/epoch_stream.h"
#include "stream/reader.h"
#include "stream/reading.h"

namespace spire {
namespace {

ObjectId Tag(std::uint32_t serial) {
  EpcFields fields;
  fields.level = PackagingLevel::kItem;
  fields.serial = serial;
  return EncodeEpcUnchecked(fields);
}

RfidReading MakeReading(std::uint32_t serial, ReaderId reader, Epoch epoch,
                        std::uint16_t tick = 0) {
  RfidReading r;
  r.tag = Tag(serial);
  r.reader = reader;
  r.epoch = epoch;
  r.tick = tick;
  return r;
}

// -------------------------------------------------------- ReaderRegistry --

class ReaderRegistryTest : public ::testing::Test {
 protected:
  ReaderRegistry registry_;
};

TEST_F(ReaderRegistryTest, AddAndLookup) {
  LocationId dock = registry_.AddLocation("dock");
  ReaderInfo info;
  info.id = 0;
  info.location = dock;
  info.type = ReaderType::kEntryDoor;
  info.period_epochs = 1;
  info.name = "door";
  ASSERT_TRUE(registry_.AddReader(info).ok());

  auto fetched = registry_.GetReader(0);
  ASSERT_TRUE(fetched.ok());
  EXPECT_EQ(fetched.value().name, "door");
  EXPECT_EQ(registry_.LocationOf(0), dock);
  EXPECT_EQ(registry_.LocationName(dock), "dock");
}

TEST_F(ReaderRegistryTest, RejectsSparseIds) {
  registry_.AddLocation("a");
  ReaderInfo info;
  info.id = 5;  // Not the next dense id.
  info.location = 0;
  EXPECT_FALSE(registry_.AddReader(info).ok());
}

TEST_F(ReaderRegistryTest, RejectsUnknownLocation) {
  ReaderInfo info;
  info.id = 0;
  info.location = 3;  // Never registered.
  EXPECT_FALSE(registry_.AddReader(info).ok());
}

TEST_F(ReaderRegistryTest, RejectsNonPositivePeriod) {
  registry_.AddLocation("a");
  ReaderInfo info;
  info.id = 0;
  info.location = 0;
  info.period_epochs = 0;
  EXPECT_FALSE(registry_.AddReader(info).ok());
}

TEST_F(ReaderRegistryTest, UnknownLookups) {
  EXPECT_FALSE(registry_.GetReader(9).ok());
  EXPECT_EQ(registry_.LocationOf(9), kUnknownLocation);
  EXPECT_EQ(registry_.LocationName(kUnknownLocation), "unknown");
  EXPECT_EQ(registry_.LocationName(250), "invalid");
}

TEST_F(ReaderRegistryTest, ReadsInEpochFollowsPeriod) {
  LocationId shelf = registry_.AddLocation("shelf");
  ReaderInfo info;
  info.id = 0;
  info.location = shelf;
  info.period_epochs = 10;
  ASSERT_TRUE(registry_.AddReader(info).ok());
  EXPECT_TRUE(registry_.ReadsInEpoch(0, 0));
  EXPECT_FALSE(registry_.ReadsInEpoch(0, 5));
  EXPECT_TRUE(registry_.ReadsInEpoch(0, 20));
  EXPECT_FALSE(registry_.ReadsInEpoch(9, 0));  // Unknown reader.
}

TEST_F(ReaderRegistryTest, PeriodLcm) {
  EXPECT_EQ(registry_.PeriodLcm(), 1);  // Empty registry.
  LocationId a = registry_.AddLocation("a");
  LocationId b = registry_.AddLocation("b");
  ReaderInfo fast;
  fast.id = 0;
  fast.location = a;
  fast.period_epochs = 4;
  ReaderInfo slow;
  slow.id = 1;
  slow.location = b;
  slow.period_epochs = 6;
  ASSERT_TRUE(registry_.AddReader(fast).ok());
  ASSERT_TRUE(registry_.AddReader(slow).ok());
  EXPECT_EQ(registry_.PeriodLcm(), 12);
}

TEST(ReaderTypeTest, SpecialAndExitClassification) {
  EXPECT_TRUE(IsSpecialReader(ReaderType::kReceivingBelt));
  EXPECT_TRUE(IsSpecialReader(ReaderType::kOutgoingBelt));
  EXPECT_FALSE(IsSpecialReader(ReaderType::kShelf));
  EXPECT_FALSE(IsSpecialReader(ReaderType::kEntryDoor));
  EXPECT_TRUE(IsExitReader(ReaderType::kExitDoor));
  EXPECT_FALSE(IsExitReader(ReaderType::kReceivingBelt));
}

TEST(ReaderTypeTest, Names) {
  EXPECT_STREQ(ToString(ReaderType::kEntryDoor), "entry_door");
  EXPECT_STREQ(ToString(ReaderType::kShelf), "shelf");
  EXPECT_STREQ(ToString(ReaderType::kExitDoor), "exit_door");
}

// ----------------------------------------------------------------- Dedup --

TEST(DedupTest, EmptyAndSingleton) {
  EpochReadings readings;
  DedupStats stats = Deduplicate(&readings);
  EXPECT_EQ(stats.input_readings, 0u);
  EXPECT_EQ(stats.duplicates_dropped, 0u);

  readings.push_back(MakeReading(1, 0, 5));
  stats = Deduplicate(&readings);
  EXPECT_EQ(stats.input_readings, 1u);
  EXPECT_EQ(readings.size(), 1u);
}

TEST(DedupTest, KeepsMostRecentTickAcrossReaders) {
  EpochReadings readings{
      MakeReading(1, 0, 5, 0),
      MakeReading(1, 1, 5, 3),  // Most recent interrogation wins.
      MakeReading(1, 2, 5, 1),
  };
  DedupStats stats = Deduplicate(&readings);
  EXPECT_EQ(stats.duplicates_dropped, 2u);
  ASSERT_EQ(readings.size(), 1u);
  EXPECT_EQ(readings[0].reader, 1);
  EXPECT_EQ(readings[0].tick, 3);
}

TEST(DedupTest, TieBreaksTowardLaterArrival) {
  EpochReadings readings{
      MakeReading(1, 0, 5, 2),
      MakeReading(1, 1, 5, 2),  // Same tick, arrived later.
  };
  Deduplicate(&readings);
  ASSERT_EQ(readings.size(), 1u);
  EXPECT_EQ(readings[0].reader, 1);
}

TEST(DedupTest, DistinctTagsUntouched) {
  EpochReadings readings{
      MakeReading(1, 0, 5),
      MakeReading(2, 0, 5),
      MakeReading(3, 1, 5),
  };
  DedupStats stats = Deduplicate(&readings);
  EXPECT_EQ(stats.duplicates_dropped, 0u);
  EXPECT_EQ(readings.size(), 3u);
}

TEST(DedupTest, PreservesArrivalOrderOfSurvivors) {
  EpochReadings readings{
      MakeReading(3, 0, 5),
      MakeReading(1, 0, 5, 0),
      MakeReading(2, 0, 5),
      MakeReading(1, 1, 5, 4),
  };
  Deduplicate(&readings);
  ASSERT_EQ(readings.size(), 3u);
  EXPECT_EQ(readings[0].tag, Tag(3));
  EXPECT_EQ(readings[1].tag, Tag(2));
  EXPECT_EQ(readings[2].tag, Tag(1));
  EXPECT_EQ(readings[2].reader, 1);
}

TEST(DedupTest, EqualTickTiesKeepLaterArrivalPerTag) {
  // The graph updater depends on both halves of the tie rule at once: with
  // every tick equal, each tag keeps its last-arriving reading (the reader
  // that interrogated it most recently), and the winners come out in their
  // original relative arrival order.
  EpochReadings readings{
      MakeReading(1, 0, 5, 2),
      MakeReading(2, 0, 5, 2),
      MakeReading(1, 1, 5, 2),  // Tag 1's later arrival: reader 1 wins.
      MakeReading(3, 1, 5, 2),
      MakeReading(2, 2, 5, 2),  // Tag 2's later arrival: reader 2 wins.
      MakeReading(1, 2, 5, 2),  // Tag 1's latest arrival: reader 2 wins.
  };
  DedupStats stats = Deduplicate(&readings);
  EXPECT_EQ(stats.duplicates_dropped, 3u);
  ASSERT_EQ(readings.size(), 3u);
  // Winner order follows the surviving readings' arrival positions.
  EXPECT_EQ(readings[0].tag, Tag(3));
  EXPECT_EQ(readings[1].tag, Tag(2));
  EXPECT_EQ(readings[1].reader, 2);
  EXPECT_EQ(readings[2].tag, Tag(1));
  EXPECT_EQ(readings[2].reader, 2);
}

TEST(DedupTest, ManyDuplicatesOneSurvivor) {
  EpochReadings readings;
  for (std::uint16_t tick = 0; tick < 50; ++tick) {
    readings.push_back(MakeReading(7, tick % 3, 9, tick));
  }
  DedupStats stats = Deduplicate(&readings);
  EXPECT_EQ(stats.input_readings, 50u);
  EXPECT_EQ(stats.duplicates_dropped, 49u);
  ASSERT_EQ(readings.size(), 1u);
  EXPECT_EQ(readings[0].tick, 49);
}

TEST(DedupTest, TableReusedAcrossEpochsOfDifferentSizes) {
  // One Deduplicator over epochs that grow, burst and shrink: every epoch
  // must match a from-scratch reading of the rule (highest tick, later
  // arrival on a tie, survivors in arrival order), whatever the table
  // held before — and a burst's table must not stay resident.
  Deduplicator deduplicator;
  std::mt19937 rng(11);
  const std::size_t sizes[] = {0, 1, 2, 40, 3000, 5, 0, 700, 3, 3000, 64, 1};
  Epoch epoch = 0;
  for (std::size_t size : sizes) {
    ++epoch;
    EpochReadings readings;
    const std::uint32_t tags = 1 + static_cast<std::uint32_t>(size / 3);
    for (std::size_t i = 0; i < size; ++i) {
      readings.push_back(MakeReading(static_cast<std::uint32_t>(rng() % tags),
                                     static_cast<ReaderId>(rng() % 4), epoch,
                                     static_cast<std::uint16_t>(rng() % 3)));
    }
    // The rule, by brute force: a reading survives iff no later reading of
    // its tag has a tick at least as high, and no earlier one a higher.
    EpochReadings expected;
    for (std::size_t i = 0; i < readings.size(); ++i) {
      bool wins = true;
      for (std::size_t j = 0; j < readings.size() && wins; ++j) {
        if (j == i || readings[j].tag != readings[i].tag) continue;
        if (j > i ? readings[j].tick >= readings[i].tick
                  : readings[j].tick > readings[i].tick) {
          wins = false;
        }
      }
      if (wins) expected.push_back(readings[i]);
    }
    const DedupStats stats = deduplicator.Run(&readings);
    EXPECT_EQ(readings, expected) << "epoch of " << size;
    EXPECT_EQ(stats.input_readings, size);
    EXPECT_EQ(stats.duplicates_dropped, size - expected.size());
    if (size > 1) {
      EXPECT_GE(deduplicator.table_size(), 2 * size);
      EXPECT_LE(deduplicator.table_size(),
                4 * std::max<std::size_t>(16, 4 * size));
    }
  }
}

// --------------------------------------------------------- GroupByReader --

TEST(GroupByReaderTest, GroupsInFirstAppearanceOrder) {
  EpochReadings readings{
      MakeReading(1, 2, 7),
      MakeReading(2, 0, 7),
      MakeReading(3, 2, 7),
      MakeReading(4, 1, 7),
  };
  EpochBatch batch = GroupByReader(readings, 7);
  EXPECT_EQ(batch.epoch, 7);
  ASSERT_EQ(batch.per_reader.size(), 3u);
  EXPECT_EQ(batch.per_reader[0].reader, 2);
  EXPECT_EQ(batch.per_reader[0].tags.size(), 2u);
  EXPECT_EQ(batch.per_reader[1].reader, 0);
  EXPECT_EQ(batch.per_reader[2].reader, 1);
  EXPECT_EQ(batch.TotalReadings(), 4u);
}

TEST(GroupByReaderTest, EmptyInput) {
  EpochBatch batch = GroupByReader({}, 3);
  EXPECT_EQ(batch.epoch, 3);
  EXPECT_TRUE(batch.per_reader.empty());
  EXPECT_EQ(batch.TotalReadings(), 0u);
}

TEST(GroupByReaderTest, TagOrderWithinReaderPreserved) {
  EpochReadings readings{
      MakeReading(5, 0, 2),
      MakeReading(4, 0, 2),
      MakeReading(6, 0, 2),
  };
  EpochBatch batch = GroupByReader(readings, 2);
  ASSERT_EQ(batch.per_reader.size(), 1u);
  ASSERT_EQ(batch.per_reader[0].tags.size(), 3u);
  EXPECT_EQ(batch.per_reader[0].tags[0], Tag(5));
  EXPECT_EQ(batch.per_reader[0].tags[1], Tag(4));
  EXPECT_EQ(batch.per_reader[0].tags[2], Tag(6));
}

TEST(GroupByReaderTest, GrouperReusedAcrossEpochsMatchesOneOffGrouping) {
  // One EpochGrouper over epochs whose reader sets grow, change and
  // shrink: each batch equals the one-off grouping of the same readings.
  EpochGrouper grouper;
  std::mt19937 rng(5);
  const std::size_t sizes[] = {6, 0, 40, 3, 200, 1, 17};
  Epoch epoch = 0;
  for (std::size_t size : sizes) {
    ++epoch;
    EpochReadings readings;
    for (std::size_t i = 0; i < size; ++i) {
      readings.push_back(MakeReading(static_cast<std::uint32_t>(i),
                                     static_cast<ReaderId>(rng() % 9), epoch));
    }
    const EpochBatch expected = GroupByReader(readings, epoch);
    const EpochBatch& batch = grouper.Group(readings, epoch);
    EXPECT_EQ(batch.epoch, epoch);
    ASSERT_EQ(batch.per_reader.size(), expected.per_reader.size());
    for (std::size_t r = 0; r < batch.per_reader.size(); ++r) {
      EXPECT_EQ(batch.per_reader[r].reader, expected.per_reader[r].reader);
      EXPECT_EQ(batch.per_reader[r].tags, expected.per_reader[r].tags);
    }
  }
}

}  // namespace
}  // namespace spire
