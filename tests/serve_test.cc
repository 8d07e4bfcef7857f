// Tests for the pieces of src/serve the dist coordinator builds on: the
// bounded MPSC queue, the epoch-barrier merger, and workload
// normalization. End-to-end `serve` runs (no-hop dist loopback over a
// normalized workload) are tested in dist_test.cc.
#include <atomic>
#include <chrono>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "serve/merger.h"
#include "serve/queue.h"
#include "serve/workload.h"

namespace spire::serve {
namespace {

constexpr auto kTick = std::chrono::milliseconds(20);

// ---------------------------------------------------------------------------
// BoundedQueue

TEST(BoundedQueueTest, FifoOrder) {
  BoundedQueue<int> queue(8);
  for (int i = 0; i < 5; ++i) EXPECT_TRUE(queue.Push(i));
  EXPECT_EQ(queue.size(), 5u);
  for (int i = 0; i < 5; ++i) {
    auto item = queue.Pop();
    ASSERT_TRUE(item.has_value());
    EXPECT_EQ(*item, i);
  }
  EXPECT_EQ(queue.size(), 0u);
}

TEST(BoundedQueueTest, PopBlocksUntilPush) {
  BoundedQueue<int> queue(2);
  std::optional<int> got;
  std::thread consumer([&] { got = queue.Pop(); });
  std::this_thread::sleep_for(kTick);
  EXPECT_TRUE(queue.Push(7));
  consumer.join();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, 7);
}

TEST(BoundedQueueTest, PushBlocksWhenFullAndResumesOnPop) {
  BoundedQueue<int> queue(2);
  EXPECT_TRUE(queue.Push(1));
  EXPECT_TRUE(queue.Push(2));
  std::atomic<bool> pushed{false};
  std::thread producer([&] {
    EXPECT_TRUE(queue.Push(3));  // Full: must block until a Pop.
    pushed.store(true);
  });
  std::this_thread::sleep_for(kTick);
  EXPECT_FALSE(pushed.load());
  EXPECT_EQ(queue.Pop().value_or(-1), 1);
  producer.join();
  EXPECT_TRUE(pushed.load());
  EXPECT_EQ(queue.Pop().value_or(-1), 2);
  EXPECT_EQ(queue.Pop().value_or(-1), 3);
}

TEST(BoundedQueueTest, CloseWakesBlockedPop) {
  BoundedQueue<int> queue(2);
  std::optional<int> got = 0;
  std::thread consumer([&] { got = queue.Pop(); });
  std::this_thread::sleep_for(kTick);
  queue.Close();
  consumer.join();
  EXPECT_FALSE(got.has_value());
}

TEST(BoundedQueueTest, CloseWakesBlockedPush) {
  BoundedQueue<int> queue(1);
  EXPECT_TRUE(queue.Push(1));
  bool accepted = true;
  std::thread producer([&] { accepted = queue.Push(2); });
  std::this_thread::sleep_for(kTick);
  queue.Close();
  producer.join();
  EXPECT_FALSE(accepted);
}

TEST(BoundedQueueTest, CloseDrainsAcceptedItems) {
  BoundedQueue<int> queue(8);
  for (int i = 0; i < 3; ++i) EXPECT_TRUE(queue.Push(i));
  queue.Close();
  EXPECT_FALSE(queue.Push(99));  // Closed: rejected.
  for (int i = 0; i < 3; ++i) EXPECT_EQ(queue.Pop().value_or(-1), i);
  EXPECT_FALSE(queue.Pop().has_value());
  EXPECT_FALSE(queue.Pop().has_value());  // Stays drained.
}

TEST(BoundedQueueTest, MultiProducerPreservesPerProducerOrder) {
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 200;
  BoundedQueue<std::pair<int, int>> queue(4);  // Small: forces backpressure.
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&queue, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        ASSERT_TRUE(queue.Push({p, i}));
      }
    });
  }
  std::vector<int> next_expected(kProducers, 0);
  for (int n = 0; n < kProducers * kPerProducer; ++n) {
    auto item = queue.Pop();
    ASSERT_TRUE(item.has_value());
    const auto [producer, seq] = *item;
    EXPECT_EQ(seq, next_expected[static_cast<std::size_t>(producer)]);
    ++next_expected[static_cast<std::size_t>(producer)];
  }
  for (auto& t : producers) t.join();
  for (int p = 0; p < kProducers; ++p) {
    EXPECT_EQ(next_expected[static_cast<std::size_t>(p)], kPerProducer);
  }
}

// ---------------------------------------------------------------------------
// EventMerger

/// One producer's result for `epoch`: one event per site, each encoding
/// (epoch, site) in the object id so ordering violations are visible in
/// the merged stream.
EpochResult Produced(Epoch epoch, const std::vector<std::uint32_t>& sites,
                     bool finish = false) {
  EpochResult result;
  result.epoch = epoch;
  result.finish = finish;
  for (std::uint32_t site : sites) {
    result.site_events.emplace_back(
        site, EventStream{Event::StartLocation(
                  static_cast<ObjectId>(100 * (epoch + 1) + site), 1,
                  epoch)});
  }
  return result;
}

TEST(EventMergerTest, MergesByEpochThenSite) {
  // Queue 0 carries sites {0, 2}; queue 1 carries site {1}.
  BoundedQueue<EpochResult> q0(16), q1(16);
  for (Epoch e = 0; e < 2; ++e) {
    ASSERT_TRUE(q0.Push(Produced(e, {0, 2})));
    ASSERT_TRUE(q1.Push(Produced(e, {1})));
  }
  ASSERT_TRUE(q0.Push(Produced(2, {0, 2}, /*finish=*/true)));
  ASSERT_TRUE(q1.Push(Produced(2, {1}, /*finish=*/true)));
  q0.Close();
  q1.Close();

  EventMerger merger;
  EventStream out;
  ASSERT_TRUE(merger.Drain({&q0, &q1}, &out).ok());

  // Global order: (epoch, site) ascending regardless of queue layout.
  std::vector<ObjectId> got;
  for (const Event& event : out) got.push_back(event.object);
  EXPECT_EQ(got, (std::vector<ObjectId>{100, 101, 102, 200, 201, 202, 300,
                                        301, 302}));
}

TEST(EventMergerTest, EarlyCloseIsProtocolError) {
  BoundedQueue<EpochResult> q0(4);
  ASSERT_TRUE(q0.Push(Produced(0, {0})));
  q0.Close();  // No finish result: the producer died.
  EventMerger merger;
  EventStream out;
  Status status = merger.Drain({&q0}, &out);
  EXPECT_FALSE(status.ok());
}

TEST(EventMergerTest, WrongEpochIsProtocolError) {
  BoundedQueue<EpochResult> q0(4);
  ASSERT_TRUE(q0.Push(Produced(5, {0})));  // Expected epoch 0.
  q0.Close();
  EventMerger merger;
  EventStream out;
  Status status = merger.Drain({&q0}, &out);
  EXPECT_FALSE(status.ok());
}

// ---------------------------------------------------------------------------
// Workload normalization

TEST(ServeTest, NormalizeRejectsOversizedWorkloads) {
  Workload workload;
  workload.sites.resize(kMaxSites + 1);
  EXPECT_FALSE(NormalizeWorkload(&workload).ok());
  Workload empty;
  EXPECT_FALSE(NormalizeWorkload(&empty).ok());
}

}  // namespace
}  // namespace spire::serve
