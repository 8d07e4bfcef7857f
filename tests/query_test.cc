// Tests for the query engine (src/query) — point, set, and timeline
// queries over level-1 and level-2 streams via the materialized EventLog,
// the segment-direct SegmentLog and its LRU block cache, plus an
// end-to-end check against the simulator's ground truth.
#include <gtest/gtest.h>

#include <malloc.h>

#include <array>
#include <atomic>
#include <chrono>
#include <limits>
#include <span>
#include <filesystem>
#include <sstream>
#include <thread>

#include "common/epc.h"
#include "query/block_cache.h"
#include "query/event_log.h"
#include "query/segment_log.h"
#include "sim/simulator.h"
#include "spire/pipeline.h"
#include "store/archive_reader.h"
#include "store/archive_writer.h"

namespace spire {
namespace {

ObjectId Obj(PackagingLevel level, std::uint32_t serial) {
  EpcFields fields;
  fields.level = level;
  fields.serial = serial;
  return EncodeEpcUnchecked(fields);
}

const ObjectId kItem = Obj(PackagingLevel::kItem, 1);
const ObjectId kItem2 = Obj(PackagingLevel::kItem, 2);
const ObjectId kCase = Obj(PackagingLevel::kCase, 3);
const ObjectId kPallet = Obj(PackagingLevel::kPallet, 4);

/// A small hand-built level-1 stream:
///   item: loc 4 [10,20), loc 7 [25,50), missing at 20..25 and after 50
///   case: loc 4 [10,60)
///   containment: item in case [12,40), case in pallet [15,30)
EventStream SampleStream() {
  return {
      Event::StartLocation(kItem, 4, 10),
      Event::StartLocation(kCase, 4, 10),
      Event::StartContainment(kItem, kCase, 12),
      Event::StartContainment(kCase, kPallet, 15),
      Event::EndLocation(kItem, 4, 10, 20),
      Event::Missing(kItem, 4, 20),
      Event::StartLocation(kItem, 7, 25),
      Event::EndContainment(kCase, kPallet, 15, 30),
      Event::EndContainment(kItem, kCase, 12, 40),
      Event::EndLocation(kItem, 7, 25, 50),
      Event::Missing(kItem, 7, 50),
      Event::EndLocation(kCase, 4, 10, 60),
  };
}

class EventLogTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto built = EventLog::Build(SampleStream());
    ASSERT_TRUE(built.ok());
    log_ = std::make_unique<EventLog>(std::move(built).value());
  }
  std::unique_ptr<EventLog> log_;
};

TEST_F(EventLogTest, LocationAt) {
  EXPECT_EQ(log_->LocationAt(kItem, 9), kUnknownLocation);
  EXPECT_EQ(log_->LocationAt(kItem, 10), 4);
  EXPECT_EQ(log_->LocationAt(kItem, 19), 4);
  EXPECT_EQ(log_->LocationAt(kItem, 20), kUnknownLocation);  // End exclusive.
  EXPECT_EQ(log_->LocationAt(kItem, 30), 7);
  EXPECT_EQ(log_->LocationAt(kItem, 55), kUnknownLocation);
  EXPECT_EQ(log_->LocationAt(Obj(PackagingLevel::kItem, 99), 30),
            kUnknownLocation);
}

TEST_F(EventLogTest, ContainerAt) {
  EXPECT_EQ(log_->ContainerAt(kItem, 11), kNoObject);
  EXPECT_EQ(log_->ContainerAt(kItem, 12), kCase);
  EXPECT_EQ(log_->ContainerAt(kItem, 39), kCase);
  EXPECT_EQ(log_->ContainerAt(kItem, 40), kNoObject);
}

TEST_F(EventLogTest, TopLevelContainerWalksTheChain) {
  EXPECT_EQ(log_->TopLevelContainerAt(kItem, 20), kPallet);  // item<case<pallet
  EXPECT_EQ(log_->TopLevelContainerAt(kItem, 35), kCase);    // pallet ended
  EXPECT_EQ(log_->TopLevelContainerAt(kItem, 45), kItem);    // uncontained
  EXPECT_EQ(log_->TopLevelContainerAt(Obj(PackagingLevel::kItem, 99), 20),
            kNoObject);
}

TEST_F(EventLogTest, MissingIntervals) {
  EXPECT_FALSE(log_->IsMissingAt(kItem, 19));
  EXPECT_TRUE(log_->IsMissingAt(kItem, 20));
  EXPECT_TRUE(log_->IsMissingAt(kItem, 24));
  EXPECT_FALSE(log_->IsMissingAt(kItem, 25));  // Reappeared.
  EXPECT_TRUE(log_->IsMissingAt(kItem, 99));   // Never seen again.
  ASSERT_EQ(log_->MissingReports().size(), 2u);
  EXPECT_EQ(log_->MissingReports()[0].until, 25);
  EXPECT_EQ(log_->MissingReports()[1].until, kInfiniteEpoch);
}

TEST_F(EventLogTest, ContentsAt) {
  EXPECT_EQ(log_->ContentsAt(kCase, 20), std::vector<ObjectId>{kItem});
  EXPECT_EQ(log_->ContentsAt(kPallet, 20), std::vector<ObjectId>{kCase});
  std::vector<ObjectId> transitive = log_->ContentsAt(kPallet, 20, true);
  ASSERT_EQ(transitive.size(), 2u);  // Case and, through it, the item.
  EXPECT_TRUE(log_->ContentsAt(kPallet, 35).empty());
}

TEST_F(EventLogTest, ObjectsAt) {
  std::vector<ObjectId> at4 = log_->ObjectsAt(4, 15);
  ASSERT_EQ(at4.size(), 2u);
  EXPECT_EQ(at4[0], kItem);
  EXPECT_EQ(at4[1], kCase);
  EXPECT_EQ(log_->ObjectsAt(4, 25), std::vector<ObjectId>{kCase});
  EXPECT_TRUE(log_->ObjectsAt(9, 15).empty());
}

TEST_F(EventLogTest, Timelines) {
  const std::vector<Stay>& trajectory = log_->TrajectoryOf(kItem);
  ASSERT_EQ(trajectory.size(), 2u);
  EXPECT_EQ(trajectory[0].location, 4);
  EXPECT_EQ(trajectory[1].location, 7);
  EXPECT_EQ(log_->ContainmentsOf(kItem).size(), 1u);
  EXPECT_TRUE(log_->TrajectoryOf(Obj(PackagingLevel::kItem, 99)).empty());
}

TEST_F(EventLogTest, Metadata) {
  EXPECT_EQ(log_->num_objects(), 2u);  // Objects with location stays.
  EXPECT_EQ(log_->first_epoch(), 10);
  EXPECT_EQ(log_->last_epoch(), 60);
}

TEST(EventLogBuildTest, RejectsIllFormedStreams) {
  EventStream bad{Event::EndLocation(kItem, 4, 1, 2)};
  EXPECT_FALSE(EventLog::Build(bad).ok());
}

TEST(EventLogBuildTest, AcceptsOpenTrailingEvents) {
  EventStream open{Event::StartLocation(kItem, 4, 10)};
  auto log = EventLog::Build(open);
  ASSERT_TRUE(log.ok());
  EXPECT_EQ(log.value().LocationAt(kItem, 1000), 4);  // Open-ended stay.
}

TEST(EventLogInverseIndexTest, NestedContainmentAcrossReopenedStays) {
  // The case sits in the pallet twice ([5,15) and [25,35)); the item enters
  // the SAME case twice ([10,20) and [30,40)). Inverse indexes must track
  // each stay independently.
  EventStream stream{
      Event::StartLocation(kPallet, 4, 5),
      Event::StartLocation(kCase, 4, 5),
      Event::StartContainment(kCase, kPallet, 5),
      Event::StartLocation(kItem, 4, 10),
      Event::StartContainment(kItem, kCase, 10),
      Event::EndContainment(kCase, kPallet, 5, 15),
      Event::EndContainment(kItem, kCase, 10, 20),
      Event::StartContainment(kCase, kPallet, 25),
      Event::StartContainment(kItem, kCase, 30),
      Event::EndContainment(kCase, kPallet, 25, 35),
      Event::EndContainment(kItem, kCase, 30, 40),
      Event::EndLocation(kItem, 4, 10, 40),
      Event::EndLocation(kPallet, 4, 5, 45),
      Event::EndLocation(kCase, 4, 5, 50),
  };
  auto built = EventLog::Build(stream);
  ASSERT_TRUE(built.ok());
  const EventLog& log = built.value();

  // Direct contents around the first stay, the gap, and the re-entry into
  // the same container.
  EXPECT_EQ(log.ContentsAt(kCase, 12), std::vector<ObjectId>{kItem});
  EXPECT_TRUE(log.ContentsAt(kCase, 22).empty());
  EXPECT_EQ(log.ContentsAt(kCase, 31), std::vector<ObjectId>{kItem});
  EXPECT_TRUE(log.ContentsAt(kCase, 40).empty());  // End exclusive.

  // Transitive contents of the pallet across both of its stays.
  std::vector<ObjectId> first = log.ContentsAt(kPallet, 12, true);
  ASSERT_EQ(first.size(), 2u);  // Case plus, through it, the item.
  // During the second pallet stay but before the item re-enters the case.
  EXPECT_EQ(log.ContentsAt(kPallet, 27, true), std::vector<ObjectId>{kCase});
  std::vector<ObjectId> second = log.ContentsAt(kPallet, 32, true);
  ASSERT_EQ(second.size(), 2u);
  EXPECT_EQ(log.TopLevelContainerAt(kItem, 32), kPallet);
  EXPECT_EQ(log.TopLevelContainerAt(kItem, 38), kCase);  // Pallet stay over.

  // Location inverse index with all three objects co-located.
  EXPECT_EQ(log.ObjectsAt(4, 12).size(), 3u);
  EXPECT_EQ(log.ObjectsAt(4, 47), std::vector<ObjectId>{kCase});
  EXPECT_TRUE(log.ObjectsAt(4, 50).empty());
}

TEST(EventLogArchiveTest, FromArchiveRestrictedWindow) {
  const std::string path = ::testing::TempDir() + "/query_archive.sparc";
  std::error_code ec;
  std::filesystem::remove(path, ec);
  std::filesystem::remove(IndexPathFor(path), ec);
  auto writer = ArchiveWriter::Open(path);
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE(writer.value()->Append(SampleStream()).ok());
  ASSERT_TRUE(writer.value()->Close().ok());
  auto reader = ArchiveReader::Open(path);
  ASSERT_TRUE(reader.ok());

  // Unrestricted: answers match a log built straight from the stream.
  auto full = EventLog::FromArchive(reader.value(), 0, kInfiniteEpoch);
  ASSERT_TRUE(full.ok());
  EXPECT_EQ(full.value().LocationAt(kItem, 15), 4);
  EXPECT_EQ(full.value().ContainerAt(kItem, 20), kCase);
  EXPECT_EQ(full.value().TopLevelContainerAt(kItem, 20), kPallet);

  // Restricted to [35, 60]: only End/Missing messages fall inside, and the
  // repair re-materializes their Starts so intervals overlapping the window
  // remain queryable...
  auto windowed = EventLog::FromArchive(reader.value(), 35, 60);
  ASSERT_TRUE(windowed.ok());
  const EventLog& log = windowed.value();
  EXPECT_EQ(log.ContainerAt(kItem, 38), kCase);  // Stay [12,40).
  EXPECT_EQ(log.LocationAt(kItem, 40), 7);       // Stay [25,50).
  EXPECT_EQ(log.LocationAt(kCase, 45), 4);       // Stay [10,60).
  EXPECT_TRUE(log.IsMissingAt(kItem, 55));
  // ...while history that closed before the window is absent.
  EXPECT_EQ(log.LocationAt(kItem, 15), kUnknownLocation);
  EXPECT_EQ(log.ContainerAt(kCase, 20), kNoObject);
}

TEST(EventLogArchiveTest, FromArchiveRangeBoundaries) {
  const std::string path = ::testing::TempDir() + "/query_bounds.sparc";
  std::error_code ec;
  std::filesystem::remove(path, ec);
  std::filesystem::remove(IndexPathFor(path), ec);
  ArchiveOptions options;
  options.block_events = 3;  // Force the window to straddle several blocks.
  auto writer = ArchiveWriter::Open(path, options);
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE(writer.value()->Append(SampleStream()).ok());
  ASSERT_TRUE(writer.value()->Close().ok());
  auto reader = ArchiveReader::Open(path);
  ASSERT_TRUE(reader.ok());
  ASSERT_GT(reader.value().num_blocks(), 1u);

  // Empty window past every event: a valid, vacant log.
  auto past = EventLog::FromArchive(reader.value(), 1000, 2000);
  ASSERT_TRUE(past.ok());
  EXPECT_TRUE(past.value().Objects().empty());
  EXPECT_EQ(past.value().LocationAt(kItem, 1500), kUnknownLocation);

  // Inverted window: no events qualify either.
  auto inverted = EventLog::FromArchive(reader.value(), 50, 20);
  ASSERT_TRUE(inverted.ok());
  EXPECT_TRUE(inverted.value().Objects().empty());

  // Degenerate window on exactly one primary timestamp: the two Starts at
  // epoch 10 are included (lo inclusive) and stay open — no End in range.
  auto at10 = EventLog::FromArchive(reader.value(), 10, 10);
  ASSERT_TRUE(at10.ok());
  EXPECT_EQ(at10.value().LocationAt(kItem, 1000), 4);
  EXPECT_EQ(at10.value().LocationAt(kCase, 1000), 4);
  EXPECT_EQ(at10.value().ContainerAt(kItem, 15), kNoObject);  // Start at 12.

  // One past that timestamp excludes them (lo is a strict boundary).
  auto at11 = EventLog::FromArchive(reader.value(), 11, 11);
  ASSERT_TRUE(at11.ok());
  EXPECT_EQ(at11.value().LocationAt(kItem, 1000), kUnknownLocation);

  // Window ending exactly on an End's primary timestamp (hi inclusive):
  // the repair re-materializes the Start, so the full stay is queryable.
  auto at60 = EventLog::FromArchive(reader.value(), 60, 60);
  ASSERT_TRUE(at60.ok());
  EXPECT_EQ(at60.value().LocationAt(kCase, 59), 4);   // Stay [10,60).
  EXPECT_EQ(at60.value().LocationAt(kCase, 60), kUnknownLocation);

  // Window whose lower bound bisects open stays: Ends inside the window
  // resurrect their Starts; fully-closed earlier history stays out.
  auto tail = EventLog::FromArchive(reader.value(), 45, kInfiniteEpoch);
  ASSERT_TRUE(tail.ok());
  EXPECT_EQ(tail.value().LocationAt(kItem, 45), 7);   // Stay [25,50).
  EXPECT_TRUE(tail.value().IsMissingAt(kItem, 55));   // Missing at 50.
  EXPECT_EQ(tail.value().LocationAt(kItem, 15), kUnknownLocation);
  EXPECT_EQ(tail.value().ContainerAt(kItem, 30), kNoObject);  // End at 40.
}

// --- Segment-direct serving (src/query/segment_log) -------------------------

class SegmentLogTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = ::testing::TempDir() + "/segment_log.sparc";
    std::error_code ec;
    std::filesystem::remove(path_, ec);
    std::filesystem::remove(IndexPathFor(path_), ec);
    ArchiveOptions options;
    options.block_events = 3;  // Several blocks so the epoch cut matters.
    auto writer = ArchiveWriter::Open(path_, options);
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE(writer.value()->Append(SampleStream()).ok());
    ASSERT_TRUE(writer.value()->Close().ok());

    cache_ = std::make_shared<BlockCache>(1 << 20);
    auto log = SegmentLog::Open(path_, ReaderOptions{}, cache_);
    ASSERT_TRUE(log.ok());
    log_ = std::move(log).value();

    auto baseline = EventLog::FromArchive(log_->reader(), 0, kInfiniteEpoch);
    ASSERT_TRUE(baseline.ok());
    baseline_ = std::make_unique<EventLog>(std::move(baseline).value());
  }

  std::string path_;
  std::shared_ptr<BlockCache> cache_;
  std::unique_ptr<SegmentLog> log_;
  std::unique_ptr<EventLog> baseline_;
};

TEST_F(SegmentLogTest, MatchesEventLogAtEveryEdgeEpoch) {
  const std::vector<ObjectId> objects{kItem, kItem2, kCase, kPallet,
                                      Obj(PackagingLevel::kItem, 99)};
  // Every interval endpoint in SampleStream, its neighbors, and beyond.
  const std::vector<Epoch> epochs{0,  9,  10, 11, 12, 15, 19, 20, 24, 25,
                                  30, 39, 40, 49, 50, 55, 59, 60, 99};
  for (ObjectId object : objects) {
    for (Epoch epoch : epochs) {
      auto location = log_->LocationAt(object, epoch);
      ASSERT_TRUE(location.ok());
      EXPECT_EQ(location.value(), baseline_->LocationAt(object, epoch))
          << "LocationAt(" << object << ", " << epoch << ")";
      auto container = log_->ContainerAt(object, epoch);
      ASSERT_TRUE(container.ok());
      EXPECT_EQ(container.value(), baseline_->ContainerAt(object, epoch));
      auto missing = log_->IsMissingAt(object, epoch);
      ASSERT_TRUE(missing.ok());
      EXPECT_EQ(missing.value(), baseline_->IsMissingAt(object, epoch))
          << "IsMissingAt(" << object << ", " << epoch << ")";
      auto contents = log_->ContentsAt(object, epoch, /*transitive=*/true);
      ASSERT_TRUE(contents.ok());
      EXPECT_EQ(contents.value(), baseline_->ContentsAt(object, epoch, true));
    }
  }
  for (LocationId location : {LocationId{4}, LocationId{7}, LocationId{9}}) {
    for (Epoch epoch : epochs) {
      auto objects_at = log_->ObjectsAt(location, epoch);
      ASSERT_TRUE(objects_at.ok());
      EXPECT_EQ(objects_at.value(), baseline_->ObjectsAt(location, epoch));
    }
  }
}

TEST_F(SegmentLogTest, PointAnswers) {
  EXPECT_EQ(log_->LocationAt(kItem, 19).value(), 4);
  EXPECT_EQ(log_->LocationAt(kItem, 20).value(), kUnknownLocation);
  EXPECT_EQ(log_->ContainerAt(kItem, 12).value(), kCase);
  EXPECT_TRUE(log_->IsMissingAt(kItem, 24).value());
  EXPECT_FALSE(log_->IsMissingAt(kItem, 25).value());
  EXPECT_TRUE(log_->IsMissingAt(kItem, 99).value());  // Open Missing report.
  EXPECT_EQ(log_->ContentsAt(kPallet, 20).value(),
            std::vector<ObjectId>{kCase});
  EXPECT_EQ(log_->ContentsAt(kPallet, 20, true).value().size(), 2u);
  auto trajectory = log_->TrajectoryOf(kItem);
  ASSERT_TRUE(trajectory.ok());
  EXPECT_EQ(trajectory.value(), baseline_->TrajectoryOf(kItem));
  EXPECT_TRUE(log_->TrajectoryOf(kItem2).value().empty());
}

TEST_F(SegmentLogTest, CacheCountersReconcile) {
  for (Epoch epoch : {0, 15, 30, 55, 15, 30}) {
    ASSERT_TRUE(log_->LocationAt(kItem, epoch).ok());
    ASSERT_TRUE(log_->ObjectsAt(4, epoch).ok());
  }
  const BlockCache::Stats stats = cache_->GetStats();
  EXPECT_GT(stats.lookups, 0u);
  EXPECT_EQ(stats.hits + stats.misses, stats.lookups);
  EXPECT_LE(log_->blocks_decoded(), stats.misses);
  EXPECT_GT(stats.hits, 0u);  // Repeat epochs must hit.
  // The stay lookups split by key kind: LocationAt reads the object's
  // entry and ObjectsAt the location's, once each per epoch.
  EXPECT_EQ(stats.object_hits + stats.container_hits + stats.location_hits,
            stats.stay_hits);
  EXPECT_EQ(stats.object_misses + stats.container_misses +
                stats.location_misses,
            stats.stay_misses);
  EXPECT_EQ(stats.object_hits + stats.object_misses, 6u);
  EXPECT_EQ(stats.location_hits + stats.location_misses, 6u);
  EXPECT_EQ(stats.object_misses, 1u);
  EXPECT_EQ(stats.location_misses, 1u);
  EXPECT_EQ(stats.container_hits + stats.container_misses, 0u);
}

TEST_F(SegmentLogTest, ServesWithoutACache) {
  auto uncached = SegmentLog::Open(path_);
  ASSERT_TRUE(uncached.ok());
  EXPECT_EQ(uncached.value()->LocationAt(kItem, 30).value(), 7);
  EXPECT_EQ(uncached.value()->ContainerAt(kCase, 20).value(), kPallet);
  EXPECT_GT(uncached.value()->blocks_decoded(), 0u);
}

TEST_F(SegmentLogTest, DistinctOpensNeverAliasCacheEntries) {
  auto other = SegmentLog::Open(path_, ReaderOptions{}, cache_);
  ASSERT_TRUE(other.ok());
  EXPECT_NE(other.value()->segment_tag(), log_->segment_tag());
  // The second view misses its own stay entries and decodes its own blocks
  // even though the first already cached the same keys and indexes
  // (snapshot isolation across opens).
  ASSERT_TRUE(log_->LocationAt(kItem, 15).ok());
  ASSERT_TRUE(log_->ObjectsAt(4, 15).ok());
  ASSERT_TRUE(log_->ContentsAt(kCase, 15).ok());
  const BlockCache::Stats before_stats = cache_->GetStats();
  const std::uint64_t before = other.value()->blocks_decoded();
  ASSERT_TRUE(other.value()->LocationAt(kItem, 15).ok());
  ASSERT_TRUE(other.value()->ObjectsAt(4, 15).ok());
  ASSERT_TRUE(other.value()->ContentsAt(kCase, 15).ok());
  const BlockCache::Stats after_stats = cache_->GetStats();
  EXPECT_EQ(after_stats.stay_hits, before_stats.stay_hits);
  EXPECT_EQ(after_stats.stay_misses, before_stats.stay_misses + 3);
  EXPECT_GT(other.value()->blocks_decoded(), before);
  // Each view then hits its own entries.
  ASSERT_TRUE(log_->LocationAt(kItem, 15).ok());
  ASSERT_TRUE(other.value()->LocationAt(kItem, 15).ok());
  EXPECT_EQ(cache_->GetStats().stay_hits, after_stats.stay_hits + 2);
}

TEST_F(SegmentLogTest, EarlierEpochAfterALateOneDecodesNothing) {
  // The entry built for the late epoch folds the whole posting list, so
  // it answers the earlier epoch with no decode, as EventLog does.
  for (ObjectId object : {kItem, kCase, kPallet}) {
    ASSERT_TRUE(log_->LocationAt(object, 99).ok());
    ASSERT_TRUE(log_->ContentsAt(object, 99).ok());
  }
  ASSERT_TRUE(log_->ObjectsAt(4, 99).ok());
  const std::uint64_t decoded = log_->blocks_decoded();
  ASSERT_GT(decoded, 0u);
  for (Epoch epoch : {0, 10, 12, 15, 20, 24, 25, 40, 55}) {
    for (ObjectId object : {kItem, kCase, kPallet}) {
      EXPECT_EQ(log_->LocationAt(object, epoch).value(),
                baseline_->LocationAt(object, epoch));
      EXPECT_EQ(log_->ContainerAt(object, epoch).value(),
                baseline_->ContainerAt(object, epoch));
      EXPECT_EQ(log_->IsMissingAt(object, epoch).value(),
                baseline_->IsMissingAt(object, epoch));
      EXPECT_EQ(log_->ContentsAt(object, epoch).value(),
                baseline_->ContentsAt(object, epoch));
    }
    EXPECT_EQ(log_->ObjectsAt(4, epoch).value(),
              baseline_->ObjectsAt(4, epoch));
  }
  EXPECT_EQ(log_->blocks_decoded(), decoded);
}

TEST_F(SegmentLogTest, ConcurrentQueriesAgree) {
  constexpr int kThreads = 4;
  std::vector<std::thread> workers;
  std::vector<int> mismatches(kThreads, 0);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      for (int round = 0; round < 50; ++round) {
        const Epoch epoch = (t * 50 + round) % 70;
        auto location = log_->LocationAt(kItem, epoch);
        if (!location.ok() ||
            location.value() != baseline_->LocationAt(kItem, epoch)) {
          ++mismatches[t];
        }
        auto contents = log_->ContentsAt(kPallet, epoch, true);
        if (!contents.ok() ||
            contents.value() != baseline_->ContentsAt(kPallet, epoch, true)) {
          ++mismatches[t];
        }
      }
    });
  }
  for (std::thread& worker : workers) worker.join();
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(mismatches[t], 0);
  const BlockCache::Stats stats = cache_->GetStats();
  EXPECT_EQ(stats.hits + stats.misses, stats.lookups);
  EXPECT_LE(log_->blocks_decoded(), stats.misses);
}

// --- The one-pass fold over many blocks -------------------------------------

const ObjectId kItem3 = Obj(PackagingLevel::kItem, 5);
const ObjectId kItem4 = Obj(PackagingLevel::kItem, 6);

/// Stays that stress the fold's Start/End pairing, archived two events a
/// block so every stay spans blocks:
///   item:  loc 5 [10,20), [25,35), [40,open): re-enters one location;
///          missing [20,25); in the case [10,45)
///   item2: loc 5 [10,30), ending exactly where item3's stay starts;
///          in the case from 45, open
///   item3: loc 5 [30,50): for every cut t < 50 its End lies in a block
///          past the cut
///   item4: loc 6 [15,60)
///   case:  loc 6 [12,open); in the pallet from 12, open
EventStream RevisitStream() {
  return {
      Event::StartLocation(kItem, 5, 10),
      Event::StartLocation(kItem2, 5, 10),
      Event::StartContainment(kItem, kCase, 10),
      Event::StartLocation(kCase, 6, 12),
      Event::StartContainment(kCase, kPallet, 12),
      Event::StartLocation(kItem4, 6, 15),
      Event::EndLocation(kItem, 5, 10, 20),
      Event::Missing(kItem, 5, 20),
      Event::StartLocation(kItem, 5, 25),
      Event::EndLocation(kItem2, 5, 10, 30),
      Event::StartLocation(kItem3, 5, 30),
      Event::EndLocation(kItem, 5, 25, 35),
      Event::StartLocation(kItem, 5, 40),
      Event::EndContainment(kItem, kCase, 10, 45),
      Event::StartContainment(kItem2, kCase, 45),
      Event::EndLocation(kItem3, 5, 30, 50),
      Event::EndLocation(kItem4, 6, 15, 60),
  };
}

std::string WriteArchive(const std::string& name, const EventStream& stream,
                         std::size_t block_events) {
  const std::string path = ::testing::TempDir() + "/" + name;
  std::error_code ec;
  std::filesystem::remove(path, ec);
  std::filesystem::remove(IndexPathFor(path), ec);
  ArchiveOptions options;
  options.block_events = block_events;
  auto writer = ArchiveWriter::Open(path, options);
  EXPECT_TRUE(writer.ok());
  EXPECT_TRUE(writer.value()->Append(stream).ok());
  EXPECT_TRUE(writer.value()->Close().ok());
  return path;
}

/// All six kinds through `direct` equal `log`'s for every key at every
/// listed epoch.
void ExpectAllKindsMatch(const SegmentLog& direct, const EventLog& log,
                         const std::vector<ObjectId>& objects,
                         const std::vector<LocationId>& locations,
                         const std::vector<Epoch>& epochs) {
  for (ObjectId object : objects) {
    auto trajectory = direct.TrajectoryOf(object);
    ASSERT_TRUE(trajectory.ok());
    EXPECT_EQ(trajectory.value(), log.TrajectoryOf(object))
        << "TrajectoryOf(" << object << ")";
    for (Epoch epoch : epochs) {
      std::ostringstream where;
      where << "(" << object << ", " << epoch << ")";
      const std::string at = where.str();
      auto location = direct.LocationAt(object, epoch);
      ASSERT_TRUE(location.ok());
      EXPECT_EQ(location.value(), log.LocationAt(object, epoch))
          << "LocationAt" << at;
      auto container = direct.ContainerAt(object, epoch);
      ASSERT_TRUE(container.ok());
      EXPECT_EQ(container.value(), log.ContainerAt(object, epoch))
          << "ContainerAt" << at;
      auto missing = direct.IsMissingAt(object, epoch);
      ASSERT_TRUE(missing.ok());
      EXPECT_EQ(missing.value(), log.IsMissingAt(object, epoch))
          << "IsMissingAt" << at;
      for (bool transitive : {false, true}) {
        auto contents = direct.ContentsAt(object, epoch, transitive);
        ASSERT_TRUE(contents.ok());
        EXPECT_EQ(contents.value(), log.ContentsAt(object, epoch, transitive))
            << "ContentsAt" << at << " transitive=" << transitive;
      }
    }
  }
  for (LocationId location : locations) {
    for (Epoch epoch : epochs) {
      auto objects_at = direct.ObjectsAt(location, epoch);
      ASSERT_TRUE(objects_at.ok());
      EXPECT_EQ(objects_at.value(), log.ObjectsAt(location, epoch))
          << "ObjectsAt(" << location << ", " << epoch << ")";
    }
  }
}

TEST(SegmentLogFoldTest, AllKindsMatchEventLogAtEveryEpoch) {
  const std::string path =
      WriteArchive("segment_fold.sparc", RevisitStream(), 2);
  auto uncached = SegmentLog::Open(path);
  ASSERT_TRUE(uncached.ok());
  ASSERT_GT(uncached.value()->reader().num_blocks(), 8u);
  // A one-byte cache keeps only the entry just inserted, so every build
  // evicts while it walks.
  auto one_block = std::make_shared<BlockCache>(1);
  auto cached = SegmentLog::Open(path, ReaderOptions{}, one_block);
  ASSERT_TRUE(cached.ok());
  auto baseline =
      EventLog::FromArchive(uncached.value()->reader(), 0, kInfiniteEpoch);
  ASSERT_TRUE(baseline.ok());

  const std::vector<ObjectId> objects{kItem,  kItem2,  kItem3, kItem4,
                                      kCase,  kPallet, Obj(PackagingLevel::kItem, 99)};
  const std::vector<LocationId> locations{5, 6, 9};
  std::vector<Epoch> epochs;
  for (Epoch epoch = 0; epoch <= 70; ++epoch) epochs.push_back(epoch);
  ExpectAllKindsMatch(*uncached.value(), baseline.value(), objects, locations,
                      epochs);
  ExpectAllKindsMatch(*cached.value(), baseline.value(), objects, locations,
                      epochs);
  EXPECT_GT(one_block->GetStats().evictions, 0u);

  // The designed edges, spelled out.
  const SegmentLog& log = *cached.value();
  EXPECT_EQ(log.ObjectsAt(5, 30).value(),
            (std::vector<ObjectId>{kItem, kItem3}));  // item2 ends at 30.
  EXPECT_EQ(log.ObjectsAt(5, 49).value(), (std::vector<ObjectId>{kItem, kItem3}));
  EXPECT_EQ(log.ObjectsAt(5, 50).value(), std::vector<ObjectId>{kItem});
  EXPECT_EQ(log.LocationAt(kItem, 1000).value(), 5);  // Open to the end.
  EXPECT_TRUE(log.IsMissingAt(kItem, 24).value());
  EXPECT_FALSE(log.IsMissingAt(kItem, 25).value());
  EXPECT_EQ(log.ContentsAt(kPallet, 44, true).value(),
            (std::vector<ObjectId>{kItem, kCase}));
  EXPECT_EQ(log.ContentsAt(kPallet, 45, true).value(),
            (std::vector<ObjectId>{kItem2, kCase}));
  auto trajectory = log.TrajectoryOf(kItem);
  ASSERT_TRUE(trajectory.ok());
  ASSERT_EQ(trajectory.value().size(), 3u);
  EXPECT_EQ(trajectory.value()[2].start, 40);
  EXPECT_EQ(trajectory.value()[2].end, kInfiniteEpoch);
}

TEST(SegmentLogFoldTest, CutSkipsLaterBlocksOnANonMonotoneDirectory) {
  // Block min-epochs 50, 10, 60: no binary-searched prefix exists, so the
  // fold filters block by block.
  const EventStream stream{
      Event::StartLocation(kItem, 5, 50),
      Event::StartLocation(kItem2, 5, 50),
      Event::StartLocation(kItem3, 5, 10),
      Event::EndLocation(kItem3, 5, 10, 20),
      Event::EndLocation(kItem, 5, 50, 60),
      Event::EndLocation(kItem2, 5, 50, 70),
  };
  const std::string path = WriteArchive("segment_nonmonotone.sparc", stream, 2);
  auto direct = SegmentLog::Open(path);
  ASSERT_TRUE(direct.ok());
  ASSERT_EQ(direct.value()->reader().num_blocks(), 3u);
  auto baseline =
      EventLog::FromArchive(direct.value()->reader(), 0, kInfiniteEpoch);
  ASSERT_TRUE(baseline.ok());

  auto at15 = direct.value()->ObjectsAt(5, 15);
  ASSERT_TRUE(at15.ok());
  EXPECT_EQ(at15.value(), std::vector<ObjectId>{kItem3});
  EXPECT_EQ(direct.value()->blocks_decoded(), 1u);  // Only min-epoch 10.

  std::vector<Epoch> epochs;
  for (Epoch epoch = 0; epoch <= 80; epoch += 5) epochs.push_back(epoch);
  ExpectAllKindsMatch(*direct.value(), baseline.value(),
                      {kItem, kItem2, kItem3}, {5}, epochs);
}

TEST(SegmentLogFoldTest, CutIsAPrefixOnAMonotoneDirectory) {
  // Block min-epochs 10, 50, 60: the candidates at epoch t are the blocks
  // up to the last min-epoch <= t, found by binary search with no
  // per-block test.
  const EventStream stream{
      Event::StartLocation(kItem3, 5, 10),
      Event::EndLocation(kItem3, 5, 10, 20),
      Event::StartLocation(kItem, 5, 50),
      Event::StartLocation(kItem2, 5, 50),
      Event::EndLocation(kItem, 5, 50, 60),
      Event::EndLocation(kItem2, 5, 50, 70),
  };
  const std::string path = WriteArchive("segment_monotone.sparc", stream, 2);
  auto direct = SegmentLog::Open(path);
  ASSERT_TRUE(direct.ok());
  ASSERT_EQ(direct.value()->reader().num_blocks(), 3u);

  auto at15 = direct.value()->ObjectsAt(5, 15);
  ASSERT_TRUE(at15.ok());
  EXPECT_EQ(at15.value(), std::vector<ObjectId>{kItem3});
  EXPECT_EQ(direct.value()->blocks_decoded(), 1u);  // Only min-epoch 10.
  auto at55 = direct.value()->ObjectsAt(5, 55);
  ASSERT_TRUE(at55.ok());
  EXPECT_EQ(at55.value(), (std::vector<ObjectId>{kItem, kItem2}));
  EXPECT_EQ(direct.value()->blocks_decoded(), 3u);  // Then the first two.
}

TEST(SegmentLogFoldTest, SimulatedArchiveMatchesEventLog) {
  // Hundreds of objects pass the door and the shelves, so the fold's open
  // index grows, wraps its probe runs and removes keys mid-run.
  SimConfig config;
  config.duration_epochs = 900;
  config.pallet_interval = 150;
  config.items_per_case = 6;
  config.mean_shelf_stay = 300;
  config.shelf_period = 20;
  auto sim = WarehouseSimulator::Create(config);
  ASSERT_TRUE(sim.ok());
  WarehouseSimulator& s = *sim.value();
  SpirePipeline pipeline(&s.registry(), PipelineOptions{});
  EventStream events;
  while (!s.Done()) {
    EpochReadings readings = s.Step();
    pipeline.ProcessEpoch(s.current_epoch(), std::move(readings), &events);
  }
  pipeline.Finish(s.current_epoch() + 1, &events);

  const std::string path = WriteArchive("segment_sim.sparc", events, 64);
  auto direct = SegmentLog::Open(path, ReaderOptions{},
                                 std::make_shared<BlockCache>(64 * 1024));
  ASSERT_TRUE(direct.ok());
  auto baseline =
      EventLog::FromArchive(direct.value()->reader(), 0, kInfiniteEpoch);
  ASSERT_TRUE(baseline.ok());
  const EventLog& log = baseline.value();

  std::vector<ObjectId> objects;
  const std::vector<ObjectId> all = log.Objects();
  for (std::size_t i = 0; i < all.size(); i += 7) objects.push_back(all[i]);
  std::vector<LocationId> locations;
  for (const auto& [location, blocks] :
       direct.value()->reader().location_postings()) {
    locations.push_back(location);
  }
  std::vector<Epoch> epochs;
  for (Epoch epoch = log.first_epoch(); epoch <= log.last_epoch() + 1;
       epoch += 97) {
    epochs.push_back(epoch);
  }
  epochs.push_back(log.last_epoch() + 1);
  ASSERT_GT(objects.size(), 20u);
  ExpectAllKindsMatch(*direct.value(), log, objects, locations, epochs);
}

// --- Compact stay entries at the edges ----------------------------------------

/// The answers of `direct` (cached or not) equal EventLog's for every
/// listed key at every listed epoch, with the containment kinds probed on
/// every container id as well.
void ExpectEdgesMatch(const SegmentLog& direct, const EventLog& log,
                      const std::vector<ObjectId>& objects,
                      const std::vector<LocationId>& locations,
                      const std::vector<Epoch>& epochs) {
  ExpectAllKindsMatch(direct, log, objects, locations, epochs);
  for (ObjectId object : objects) {
    for (Epoch epoch : epochs) {
      const ObjectId container = log.ContainerAt(object, epoch);
      if (container == kNoObject) continue;
      auto contents = direct.ContentsAt(container, epoch);
      ASSERT_TRUE(contents.ok());
      EXPECT_EQ(contents.value(), log.ContentsAt(container, epoch))
          << "ContentsAt(" << container << ", " << epoch << ")";
    }
  }
}

TEST(CompactStayTest, RoundTripsTheEdgesOfEveryField) {
  // Starts at epoch 0 and near INT64_MAX, open (kInfiniteEpoch) ends, a
  // Missing point report, location ids at both ends of their range, and a
  // container id at the top of the 64-bit range (one below kNoObject,
  // which every stay without a container decodes to): every field of both
  // entry encodings at its extremes.
  constexpr Epoch kTop = std::numeric_limits<Epoch>::max();
  const ObjectId kTopContainer = kNoObject - 1;
  const LocationId kTopLocation = kUnknownLocation - 1;
  const EventStream stream{
      Event::StartLocation(kItem, 0, 0),
      Event::StartContainment(kItem, kTopContainer, 0),
      Event::StartLocation(kItem2, kTopLocation, 3),
      Event::EndLocation(kItem, 0, 0, kTop - 9),
      Event::EndContainment(kItem, kTopContainer, 0, kTop - 9),
      Event::Missing(kItem, 0, kTop - 9),
      Event::StartLocation(kItem, kTopLocation, kTop - 4),
      Event::StartContainment(kItem, kCase, kTop - 4),
      Event::EndLocation(kItem2, kTopLocation, 3, kTop - 1),
  };
  const std::string path = WriteArchive("segment_edges.sparc", stream, 3);
  auto uncached = SegmentLog::Open(path);
  ASSERT_TRUE(uncached.ok());
  auto cached = SegmentLog::Open(path, ReaderOptions{},
                                 std::make_shared<BlockCache>(1 << 20));
  ASSERT_TRUE(cached.ok());
  auto baseline =
      EventLog::FromArchive(uncached.value()->reader(), 0, kInfiniteEpoch);
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();
  const std::vector<Epoch> epochs{0,        1,        2,        3,
                                  kTop / 2, kTop - 10, kTop - 9, kTop - 5,
                                  kTop - 4, kTop - 2, kTop - 1, kTop};
  const std::vector<LocationId> locations{0, kTopLocation};
  // Twice through the cache: the first pass builds each entry, the second
  // reads it back.
  for (const SegmentLog* direct :
       {uncached.value().get(), cached.value().get(), cached.value().get()}) {
    ExpectEdgesMatch(*direct, baseline.value(), {kItem, kItem2}, locations,
                     epochs);
  }
  // The designed answers, spelled out.
  const SegmentLog& log = *cached.value();
  EXPECT_EQ(log.ContainerAt(kItem, 5).value(), kTopContainer);
  EXPECT_EQ(log.ContainerAt(kItem, kTop - 1).value(), kCase);
  EXPECT_EQ(log.ContainerAt(kItem, kTop).value(), kNoObject);  // Past open.
  EXPECT_EQ(log.ContainerAt(kItem2, 5).value(), kNoObject);  // Never in one.
  EXPECT_EQ(log.LocationAt(kItem, kTop - 1).value(), kTopLocation);
  EXPECT_EQ(log.LocationAt(kItem2, kTop - 2).value(), kTopLocation);
  EXPECT_EQ(log.LocationAt(kItem2, kTop - 1).value(), kUnknownLocation);
  EXPECT_TRUE(log.IsMissingAt(kItem, kTop - 9).value());
  EXPECT_TRUE(log.IsMissingAt(kItem, kTop - 5).value());
  EXPECT_FALSE(log.IsMissingAt(kItem, kTop - 4).value());
  EXPECT_EQ(log.ContentsAt(kTopContainer, 0).value(),
            std::vector<ObjectId>{kItem});
  EXPECT_EQ(log.ContentsAt(kCase, kTop - 1).value(),
            std::vector<ObjectId>{kItem});
  EXPECT_EQ(log.ObjectsAt(kTopLocation, kTop - 2).value(),
            (std::vector<ObjectId>{kItem, kItem2}));
  auto trajectory = log.TrajectoryOf(kItem);
  ASSERT_TRUE(trajectory.ok());
  ASSERT_EQ(trajectory.value().size(), 2u);
  EXPECT_EQ(trajectory.value()[0].end, kTop - 9);
  EXPECT_EQ(trajectory.value()[1].end, kInfiniteEpoch);
}

TEST(CompactStayTest, LargeLocationEntryAnswersItsOldestAndNewestEpochs) {
  // One location entry of 12,000 stays: each object passes the location
  // for 5 epochs, one new object per epoch, and every 97th never leaves.
  // Queried at its oldest and newest epochs, the entry (ends descending)
  // must answer both, through the cache and without one.
  constexpr int kStays = 12000;
  EventStream stream;
  std::vector<ObjectId> objects;
  for (int i = 0; i < kStays; ++i) {
    const ObjectId object =
        Obj(PackagingLevel::kItem, static_cast<std::uint32_t>(100 + i));
    objects.push_back(object);
    stream.push_back(Event::StartLocation(object, 8, i));
  }
  for (int i = 0; i < kStays; ++i) {
    if (i % 97 != 0) {
      stream.push_back(Event::EndLocation(objects[i], 8, i, i + 5));
    }
  }
  const std::string path = WriteArchive("segment_large.sparc", stream, 1024);
  auto uncached = SegmentLog::Open(path);
  ASSERT_TRUE(uncached.ok());
  auto cache = std::make_shared<BlockCache>(1 << 20);
  auto cached = SegmentLog::Open(path, ReaderOptions{}, cache);
  ASSERT_TRUE(cached.ok());
  auto baseline =
      EventLog::FromArchive(uncached.value()->reader(), 0, kInfiniteEpoch);
  ASSERT_TRUE(baseline.ok());
  const std::vector<Epoch> epochs{0,         1,         4,         5,
                                  kStays / 2, kStays - 2, kStays - 1,
                                  kStays + 3, kStays + 4, kStays + 100};
  for (const SegmentLog* direct :
       {uncached.value().get(), cached.value().get()}) {
    for (Epoch epoch : epochs) {
      auto objects_at = direct->ObjectsAt(8, epoch);
      ASSERT_TRUE(objects_at.ok());
      EXPECT_EQ(objects_at.value(), baseline.value().ObjectsAt(8, epoch))
          << "ObjectsAt(8, " << epoch << ")";
    }
  }
  // The oldest epoch sees only the first object; the newest the last five
  // and every open stay.
  EXPECT_EQ(cached.value()->ObjectsAt(8, 0).value(),
            std::vector<ObjectId>{objects[0]});
  const std::size_t open = (kStays + 96) / 97;
  EXPECT_EQ(cached.value()->ObjectsAt(8, kStays - 1).value().size(),
            open + 5);
  // One build, then hits: the compact entry is far smaller than the
  // 24 bytes a stay took as a struct.
  const BlockCache::Stats stats = cache->GetStats();
  EXPECT_EQ(stats.location_misses, 1u);
  EXPECT_GE(stats.location_hits, epochs.size() + 1);
  EXPECT_LT(stats.bytes, std::uint64_t{kStays} * 8 +
                             cached.value()->reader().num_blocks() *
                                 BlockCache::ChargeOf(1024 * sizeof(Event)));
}

// --- Block cache (src/query/block_cache) ------------------------------------

/// A decoded block of `events` copies of one event.
EventStream BlockOf(std::size_t events) {
  return EventStream(events, Event::StartLocation(kItem, 4, 10));
}

std::uint64_t CostOf(std::size_t events) {
  return BlockCache::ChargeOf(events * sizeof(Event));
}

/// The cached block's event count, or -1 on a miss.
long BlockSize(BlockCache& cache, std::uint64_t tag, std::uint32_t index) {
  long size = -1;
  cache.VisitBlock(tag, index, [&](std::span<const Event> events) {
    size = static_cast<long>(events.size());
    for (const Event& event : events) {
      EXPECT_EQ(event, Event::StartLocation(kItem, 4, 10));
    }
  });
  return size;
}

/// Stay payloads for the cache tests, which the cache stores as bytes: a
/// stay of a location entry takes about this many.
constexpr std::size_t kStayBytes = 8;

constexpr BlockCache::KeyKind kObjectKey = BlockCache::KeyKind::kObject;
constexpr BlockCache::KeyKind kLocationKey = BlockCache::KeyKind::kLocation;

std::vector<std::uint8_t> TestStays(std::size_t stays,
                                    std::size_t stay_bytes = kStayBytes) {
  std::vector<std::uint8_t> payload(stays * stay_bytes);
  for (std::size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<std::uint8_t>(i * 7 + 1);
  }
  return payload;
}

std::uint64_t StaysCost(std::size_t stays) {
  return BlockCache::ChargeOf(stays * kStayBytes);
}

/// True when the key's entry is cached and holds TestStays(stays).
bool HasStays(BlockCache& cache, std::uint64_t tag, BlockCache::KeyKind kind,
              std::uint64_t id, std::size_t stays = 1) {
  bool intact = false;
  const bool hit =
      cache.VisitStays(tag, kind, id, [&](std::span<const std::uint8_t> bytes) {
        const std::vector<std::uint8_t> expected = TestStays(stays);
        intact = std::equal(bytes.begin(), bytes.end(), expected.begin(),
                            expected.end());
      });
  EXPECT_EQ(intact, hit) << "entry " << id << " came back changed";
  return hit;
}

TEST(BlockCacheTest, MissThenHit) {
  BlockCache cache(1 << 20);
  const std::uint64_t tag = BlockCache::NextSegmentTag();
  EXPECT_EQ(BlockSize(cache, tag, 0), -1);
  cache.PutBlock(tag, 0, BlockOf(3));
  EXPECT_EQ(BlockSize(cache, tag, 0), 3);
  EXPECT_EQ(BlockSize(cache, tag, 1), -1);  // Other index: distinct key.
  const BlockCache::Stats stats = cache.GetStats();
  EXPECT_EQ(stats.lookups, 3u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.bytes, CostOf(3));
}

TEST(BlockCacheTest, PutIsANoOpOnAnExistingKey) {
  BlockCache cache(1 << 20);
  const std::uint64_t tag = BlockCache::NextSegmentTag();
  cache.PutBlock(tag, 7, BlockOf(2));
  cache.PutBlock(tag, 7, BlockOf(5));  // Loser of a same-key miss race.
  EXPECT_EQ(BlockSize(cache, tag, 7), 2);
  EXPECT_EQ(cache.GetStats().bytes, CostOf(2));  // Accounting unchanged.
}

TEST(BlockCacheTest, EvictsLeastRecentlyUsed) {
  // Room for exactly two one-stay entries: stay entries are LRU.
  BlockCache cache(2 * StaysCost(1));
  const std::uint64_t tag = BlockCache::NextSegmentTag();
  cache.PutStays(tag, kObjectKey, 1, TestStays(1));
  cache.PutStays(tag, kObjectKey, 2, TestStays(1));
  EXPECT_TRUE(HasStays(cache, tag, kObjectKey, 1));
  cache.PutStays(tag, kObjectKey, 3, TestStays(1));  // 2 is now the LRU.
  EXPECT_FALSE(HasStays(cache, tag, kObjectKey, 2));
  EXPECT_TRUE(HasStays(cache, tag, kObjectKey, 1));
  EXPECT_TRUE(HasStays(cache, tag, kObjectKey, 3));
  const BlockCache::Stats stats = cache.GetStats();
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_LE(stats.bytes, stats.capacity_bytes);
}

TEST(BlockCacheTest, BlockHitDoesNotOutrankStayEntries) {
  // A stay entry, then a block (cold end) hit after it: the next insert
  // that needs room evicts the block, not the older stay entry. An LRU
  // that promoted the block on its hit would evict stay entry 1 here.
  BlockCache cache(2 * StaysCost(1) + CostOf(1));
  const std::uint64_t tag = BlockCache::NextSegmentTag();
  cache.PutStays(tag, kObjectKey, 1, TestStays(1));
  cache.PutBlock(tag, 0, BlockOf(1));
  ASSERT_EQ(BlockSize(cache, tag, 0), 1);
  cache.PutStays(tag, kObjectKey, 2, TestStays(1));  // Fills the budget.
  cache.PutStays(tag, kObjectKey, 3, TestStays(1));
  EXPECT_EQ(BlockSize(cache, tag, 0), -1);
  EXPECT_TRUE(HasStays(cache, tag, kObjectKey, 1));
  EXPECT_TRUE(HasStays(cache, tag, kObjectKey, 2));
  EXPECT_TRUE(HasStays(cache, tag, kObjectKey, 3));
  // A build's blocks evict each other before any further stay entry:
  // block 1 takes the LRU stay entry's room, and block 2 takes block 1's.
  cache.PutBlock(tag, 1, BlockOf(1));
  cache.PutBlock(tag, 2, BlockOf(1));
  EXPECT_EQ(BlockSize(cache, tag, 1), -1);
  EXPECT_EQ(BlockSize(cache, tag, 2), 1);
  EXPECT_FALSE(HasStays(cache, tag, kObjectKey, 1));
  EXPECT_TRUE(HasStays(cache, tag, kObjectKey, 2));
  EXPECT_TRUE(HasStays(cache, tag, kObjectKey, 3));
  EXPECT_EQ(cache.GetStats().evictions, 3u);
}

TEST(BlockCacheTest, EntryLargerThanAnEighthStaysResident) {
  // One budget for the whole cache: an entry of half of it survives the
  // small entries inserted after it and serves its next lookup.
  constexpr std::size_t kSmall = 4;
  const std::uint64_t capacity = 16 * StaysCost(kSmall);
  BlockCache cache(capacity);
  const std::uint64_t tag = BlockCache::NextSegmentTag();
  const std::size_t big = (capacity / 2) / kStayBytes;
  cache.PutStays(tag, kLocationKey, 7, TestStays(big));
  for (std::uint64_t id = 0; id < 7; ++id) {
    cache.PutStays(tag, kObjectKey, id, TestStays(kSmall));
  }
  EXPECT_TRUE(HasStays(cache, tag, kLocationKey, 7, big));
  EXPECT_EQ(cache.GetStats().evictions, 0u);
}

TEST(BlockCacheTest, ChargesAtLeastTheAllocatedBytes) {
  // The heap growth of inserting entries — location-sized stay payloads,
  // object-sized ones of 1-4 compact stays, where the header dominates,
  // and blocks — is within what the cache charges for them, index
  // included. Sanitizer allocators bypass the counters mallinfo2 reads;
  // there the bound holds trivially.
  BlockCache cache(std::uint64_t{1} << 30);
  const std::uint64_t tag = BlockCache::NextSegmentTag();
  const auto heap_bytes = [] {
    const struct mallinfo2 info = mallinfo2();
    return info.uordblks + info.hblkhd;
  };
  const std::size_t before = heap_bytes();
  constexpr std::size_t kObjectStayBytes = 7;  // A compact object stay.
  std::uint64_t object_entries = 0;
  for (std::uint64_t id = 0; id < 3000; ++id) {
    if (id % 3 == 0) {
      cache.PutStays(tag, kLocationKey, id, TestStays(id % 37));
    } else {
      cache.PutStays(tag, kObjectKey, id,
                     TestStays(1 + id % 4, kObjectStayBytes));
      ++object_entries;
    }
    if (id % 10 == 0) {
      cache.PutBlock(tag, static_cast<std::uint32_t>(id), BlockOf(id % 300));
    }
  }
  const std::size_t allocated = heap_bytes() - before;
  EXPECT_GE(cache.GetStats().bytes, allocated);
  // An object entry of up to four stays costs at most 128 bytes, header,
  // malloc word and index slots included.
  EXPECT_LE(BlockCache::ChargeOf(4 * kObjectStayBytes), 128u);
  EXPECT_GT(object_entries, 0u);
}

TEST(BlockCacheTest, NeverEvictsTheEntryJustInserted) {
  BlockCache cache(CostOf(1));  // Smaller than the block.
  const std::uint64_t tag = BlockCache::NextSegmentTag();
  cache.PutBlock(tag, 0, BlockOf(100));
  // Over capacity, but the sole entry survives to serve its next lookup.
  EXPECT_EQ(BlockSize(cache, tag, 0), 100);
}

TEST(BlockCacheTest, EvictedBlockOutlivesEvictionWhileHeld) {
  // A reader is inside block 0 when another thread's insert needs its
  // room: the eviction waits for the reader to leave, so the events it
  // reads stay intact, and only then frees the block.
  BlockCache cache(CostOf(1));
  const std::uint64_t tag = BlockCache::NextSegmentTag();
  cache.PutBlock(tag, 0, BlockOf(1));
  std::atomic<bool> inserted{false};
  std::thread inserter;
  const bool hit = cache.VisitBlock(tag, 0, [&](std::span<const Event> held) {
    inserter = std::thread([&] {
      cache.PutBlock(tag, 1, BlockOf(1));  // Evicts block 0.
      inserted.store(true);
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    EXPECT_FALSE(inserted.load());  // Still waiting on this reader.
    ASSERT_EQ(held.size(), 1u);
    EXPECT_EQ(held[0], Event::StartLocation(kItem, 4, 10));
  });
  ASSERT_TRUE(hit);
  inserter.join();
  EXPECT_TRUE(inserted.load());
  EXPECT_EQ(BlockSize(cache, tag, 0), -1);
  EXPECT_EQ(BlockSize(cache, tag, 1), 1);
}

TEST(BlockCacheTest, ConcurrentGetPut) {
  // Blocks and stay entries over a budget that forces evictions across
  // shards while other threads hit and insert.
  BlockCache cache(4 * CostOf(2) + 4 * StaysCost(2));
  const std::uint64_t tag = BlockCache::NextSegmentTag();
  constexpr int kThreads = 4;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&] {
      for (std::uint32_t round = 0; round < 200; ++round) {
        const std::uint32_t index = round % 16;
        if (BlockSize(cache, tag, index) == -1) {
          cache.PutBlock(tag, index, BlockOf(2));
        }
        if (!HasStays(cache, tag, kObjectKey, index, 2)) {
          cache.PutStays(tag, kObjectKey, index, TestStays(2));
        }
      }
    });
  }
  for (std::thread& worker : workers) worker.join();
  const BlockCache::Stats stats = cache.GetStats();
  EXPECT_EQ(stats.lookups, 2 * kThreads * 200u);
  EXPECT_EQ(stats.hits + stats.misses, stats.lookups);
  EXPECT_GT(stats.evictions, 0u);
}

TEST(EventLogEndToEndTest, QueriesMatchGroundTruth) {
  // Run SPIRE at a perfect read rate over a small trace; the level-2 log
  // (decompressed on build) must answer resides/contained queries in
  // agreement with the simulator's world away from transition moments.
  SimConfig config;
  config.duration_epochs = 1500;
  config.pallet_interval = 400;
  config.min_cases_per_pallet = 2;
  config.max_cases_per_pallet = 2;
  config.items_per_case = 4;
  config.mean_shelf_stay = 400;
  config.shelf_period = 20;
  config.read_rate = 1.0;
  auto sim = WarehouseSimulator::Create(config);
  WarehouseSimulator& s = *sim.value();
  PipelineOptions options;
  options.level = CompressionLevel::kLevel2;
  SpirePipeline pipeline(&s.registry(), options);
  EventStream level2;
  // Snapshot the truth at a few probe epochs.
  std::map<Epoch, std::map<ObjectId, std::pair<LocationId, ObjectId>>> probes;
  while (!s.Done()) {
    EpochReadings readings = s.Step();
    pipeline.ProcessEpoch(s.current_epoch(), std::move(readings), &level2);
    if (s.current_epoch() % 500 == 499) {
      auto& snapshot = probes[s.current_epoch()];
      for (const auto& [id, state] : s.world().objects()) {
        snapshot[id] = {state.location, state.parent};
      }
    }
  }
  pipeline.Finish(s.current_epoch() + 1, &level2);

  auto log = EventLog::Build(level2, /*decompress=*/true);
  ASSERT_TRUE(log.ok());
  std::size_t queries = 0, agree = 0;
  LocationId entry = s.layout().entry_door;
  for (const auto& [epoch, snapshot] : probes) {
    for (const auto& [object, truth] : snapshot) {
      const auto& [location, parent] = truth;
      if (location == entry) continue;  // No output for the warm-up area.
      ++queries;
      if (log.value().LocationAt(object, epoch) == location &&
          log.value().ContainerAt(object, epoch) == parent) {
        ++agree;
      }
    }
  }
  ASSERT_GT(queries, 20u);
  EXPECT_GT(static_cast<double>(agree) / static_cast<double>(queries), 0.9);
}

}  // namespace
}  // namespace spire
