// Tests of the benchmark's own measurement code.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <map>
#include <thread>

#include "../measure.h"
#include "../requests.h"

namespace perfbench {
namespace {

std::vector<double> OneTo(int n) {
  std::vector<double> values;
  for (int i = 1; i <= n; ++i) values.push_back(i);
  return values;
}

TEST(QuantileTest, InterpolatesBetweenClosestRanks) {
  EXPECT_DOUBLE_EQ(Quantile(OneTo(100), 0.99), 99.01);
  EXPECT_DOUBLE_EQ(Median({4, 1, 3, 2}), 2.5);
  EXPECT_DOUBLE_EQ(Median({}), 0.0);
  EXPECT_DOUBLE_EQ(Quantile({7}, 0.9), 7.0);
}

LatencyHistogram HistogramOf(const std::vector<double>& values) {
  LatencyHistogram histogram;
  for (double value : values) histogram.Add(value);
  return histogram;
}

TEST(LatencyHistogramTest, QuantilesWithinABucketOfTheExactOnes) {
  const std::vector<double> values = OneTo(1000);
  const LatencyHistogram histogram = HistogramOf(values);
  EXPECT_EQ(histogram.count(), 1000u);
  EXPECT_DOUBLE_EQ(histogram.sum_us(), 500500.0);
  // Buckets are 10^(1/100) ~ 2.3% wide.
  for (double q : {0.1, 0.5, 0.9, 0.99}) {
    const double exact = Quantile(values, q);
    EXPECT_NEAR(histogram.Quantile(q), exact, 0.024 * exact) << q;
  }
  EXPECT_DOUBLE_EQ(LatencyHistogram().Quantile(0.5), 0.0);
}

TEST(LatencyHistogramTest, QuantileMovesWithTheDataInsideABucket) {
  // Many equal values must not pin a quantile to one repeating number:
  // the rank interpolates inside the bucket.
  const LatencyHistogram four = HistogramOf({10, 10, 10, 10});
  EXPECT_LT(four.Quantile(0.25), four.Quantile(0.75));
  EXPECT_GE(four.Quantile(0.25), 9.9);
  EXPECT_LE(four.Quantile(0.75), 10.3);
}

TEST(LatencyHistogramTest, MergeEqualsOneHistogramOfBoth) {
  LatencyHistogram merged = HistogramOf({1, 5, 50});
  merged.Merge(HistogramOf({500, 5000, 1e9, 0.01}));
  const LatencyHistogram both = HistogramOf({1, 5, 50, 500, 5000, 1e9, 0.01});
  EXPECT_EQ(merged.count(), both.count());
  EXPECT_DOUBLE_EQ(merged.sum_us(), both.sum_us());
  for (double q : {0.0, 0.3, 0.5, 0.9, 1.0}) {
    EXPECT_DOUBLE_EQ(merged.Quantile(q), both.Quantile(q)) << q;
  }
}

TEST(TailLatencyTest, SamplesBeyondCountsWholeSamplesAboveTheRank) {
  EXPECT_EQ(SamplesBeyond(1000, 99), 10u);
  EXPECT_EQ(SamplesBeyond(10000, 99.9), 10u);  // No float round-up to 9.
  EXPECT_EQ(SamplesBeyond(999, 99), 9u);
  EXPECT_EQ(SamplesBeyond(100, 90), 10u);
  EXPECT_EQ(SamplesBeyond(5, 99), 0u);
}

TEST(TailLatencyTest, SupportedOnlyWithTenSamplesBeyond) {
  const LatencyHistogram thousand = HistogramOf(OneTo(1000));
  const Tail tail = TailLatency(thousand, 99);
  EXPECT_EQ(tail.percentile, 99);
  EXPECT_EQ(tail.samples, 1000u);
  EXPECT_EQ(tail.beyond, 10u);
  EXPECT_TRUE(tail.supported());
  EXPECT_DOUBLE_EQ(tail.value, thousand.Quantile(0.99));

  // One sample short: the value is still p99, but not a supported one.
  const Tail short_tail = TailLatency(HistogramOf(OneTo(999)), 99);
  EXPECT_EQ(short_tail.percentile, 99);
  EXPECT_EQ(short_tail.beyond, 9u);
  EXPECT_FALSE(short_tail.supported());
  EXPECT_TRUE(TailLatency(HistogramOf(OneTo(100)), 90).supported());
  EXPECT_FALSE(TailLatency(HistogramOf(OneTo(99)), 90).supported());
}

Span MakeSpan(const char* name, int tid, double start, double end) {
  Span span;
  span.name = name;
  span.tid = tid;
  span.start_us = start;
  span.dur_us = end - start;
  return span;
}

TEST(SelfTimesTest, SubtractsDirectChildrenOnly) {
  const std::vector<Span> spans = {
      MakeSpan("grandchild", 1, 50, 60), MakeSpan("epoch", 1, 0, 100),
      MakeSpan("a", 1, 10, 30),          MakeSpan("b", 1, 40, 90),
      MakeSpan("other", 2, 20, 80),
  };
  const std::vector<double> self = SelfTimes(spans);
  EXPECT_DOUBLE_EQ(self[0], 10);  // grandchild
  EXPECT_DOUBLE_EQ(self[1], 30);  // 100 - 20 (a) - 50 (b)
  EXPECT_DOUBLE_EQ(self[2], 20);  // a
  EXPECT_DOUBLE_EQ(self[3], 40);  // 50 - 10 (grandchild)
  EXPECT_DOUBLE_EQ(self[4], 60);  // another thread: no parent
}

TEST(SelfTimesTest, ChildOverrunningItsParentIsClipped) {
  // Truncation to whole microseconds can end a child one past its parent.
  const std::vector<double> self =
      SelfTimes({MakeSpan("p", 1, 0, 100), MakeSpan("c", 1, 90, 101)});
  EXPECT_DOUBLE_EQ(self[0], 90);
  EXPECT_DOUBLE_EQ(self[1], 11);
}

TEST(SelfTimesTest, BackToBackSpansAreSiblings) {
  const std::vector<double> self =
      SelfTimes({MakeSpan("e1", 1, 0, 10), MakeSpan("e2", 1, 10, 30),
                 MakeSpan("s", 1, 12, 20)});
  EXPECT_DOUBLE_EQ(self[0], 10);
  EXPECT_DOUBLE_EQ(self[1], 12);
  EXPECT_DOUBLE_EQ(self[2], 8);
}

TEST(CpuAccountingTest, PerOpArithmetic) {
  EXPECT_DOUBLE_EQ(CpuUsPerOp(1.0, 1.5, 1000), 500.0);
  EXPECT_DOUBLE_EQ(CpuUsPerOp(1.0, 1.5, 0), 0.0);
}

TEST(CpuAccountingTest, CountsWorkOnOtherThreads) {
  const double before = ProcessCpuSeconds();
  std::thread spinner([] {
    const auto until =
        std::chrono::steady_clock::now() + std::chrono::milliseconds(200);
    volatile std::uint64_t sink = 0;
    while (std::chrono::steady_clock::now() < until) sink = sink + 1;
  });
  spinner.join();
  // The calling thread slept in join(); the spinner's CPU must show.
  EXPECT_GE(ProcessCpuSeconds() - before, 0.1);
}

TEST(PeakRssTest, ResetForgetsMemoryFreedBeforeIt) {
  double with_block = 0.0;
  {
    std::vector<char> block(64 << 20, 1);  // Touched: resident.
    with_block = PeakRssMb();
  }
  ResetPeakRss();
  EXPECT_LT(PeakRssMb(), with_block - 32);
}

Chunk MakeChunk(double wall_s, double cpu_s, double steal_s,
                std::uint64_t ops, const std::vector<double>& latency_us) {
  Chunk chunk;
  chunk.wall_s = wall_s;
  chunk.cpu_s = cpu_s;
  chunk.steal_s = steal_s;
  chunk.ops = ops;
  chunk.latency_us = HistogramOf(latency_us);
  return chunk;
}

TEST(SummarizeTest, KeepsTheHalfWithTheLeastHostSteal) {
  // Two chunks lost half their wall time to the host and ran slower for
  // it; the summary must describe the other two.
  const std::vector<Chunk> chunks = {
      MakeChunk(1.0, 1.0, 0.0, 1000, {10, 12}),
      MakeChunk(2.0, 1.0, 1.0, 1000, {500, 600}),
      MakeChunk(1.0, 0.98, 0.01, 980, {11, 13}),
      MakeChunk(2.0, 1.0, 1.0, 900, {700}),
  };
  const WindowStats stats = Summarize(chunks, 99);
  EXPECT_EQ(stats.chunks, 4u);
  EXPECT_EQ(stats.chunks_used, 2u);
  EXPECT_DOUBLE_EQ(stats.ops_per_s, 990.0);
  // CPU per operation: 1000 us/op and 1000 us/op (0.98 s over 980 ops).
  EXPECT_DOUBLE_EQ(stats.cpu_us_per_op, 1000.0);
  EXPECT_NEAR(stats.latency_p50_us, 11.5, 0.5);
  EXPECT_EQ(stats.tail.samples, 4u);
}

TEST(SummarizeTest, KeepsChunksWhereTheProgramItselfStalled) {
  // A chunk in which the program blocked (little CPU over its wall time)
  // while the host stole nothing is not dropped: its stall must show.
  const std::vector<Chunk> chunks = {
      MakeChunk(1.0, 1.0, 0.0, 1000, {10}),
      MakeChunk(1.0, 1.0, 0.0, 1000, {10}),
      MakeChunk(4.0, 1.0, 0.0, 1000, {3000}),
      MakeChunk(1.0, 0.9, 0.1, 900, {11}),
  };
  const WindowStats stats = Summarize(chunks, 99);
  EXPECT_EQ(stats.chunks_used, 3u);
  EXPECT_NEAR(stats.tail.value, 3000, 0.03 * 3000);
}

TEST(SetupSecondsTest, MedianOfTheSetUpsWithTheLeastHostSteal) {
  // The set-ups the host stole from are dropped; a slow one it did not
  // steal from still counts.
  const std::vector<SetupTime> setups = {
      {2.0, 0.0}, {3.1, 0.9}, {2.2, 0.0}, {2.9, 0.0}, {3.0, 0.6},
  };
  EXPECT_DOUBLE_EQ(SetupSeconds(setups), 2.2);
}

RequestUniverse SmallUniverse() {
  RequestUniverse universe;
  for (spire::ObjectId id = 1; id <= 500; ++id) {
    universe.objects.push_back(id);
    if (id <= 50) universe.containers.push_back(id);
    if (id <= 20) {
      universe.locations.push_back(static_cast<spire::LocationId>(id));
    }
  }
  universe.lo = 100;
  universe.hi = 10100;
  return universe;
}

TEST(RequestGeneratorTest, DeterministicPerSeedAndDifferentAcrossSeeds) {
  const RequestUniverse universe = SmallUniverse();
  const auto a = GenerateRequests(universe, 2000, 7);
  EXPECT_EQ(a, GenerateRequests(universe, 2000, 7));
  EXPECT_NE(a, GenerateRequests(universe, 2000, 8));
}

TEST(RequestGeneratorTest, SkewsKeysAndEpochsAndCoversAllKinds) {
  const RequestUniverse universe = SmallUniverse();
  const auto requests = GenerateRequests(universe, 20000, 11);
  std::map<QueryKind, int> kinds;
  std::map<std::uint64_t, int> object_hits;
  std::vector<double> epochs;
  for (const Request& r : requests) {
    ++kinds[r.kind];
    ASSERT_GE(r.epoch, universe.lo);
    ASSERT_LE(r.epoch, universe.hi);
    epochs.push_back(static_cast<double>(r.epoch));
    if (r.kind == QueryKind::kLocationAt) ++object_hits[r.id];
  }
  EXPECT_EQ(kinds.size(), static_cast<std::size_t>(kNumQueryKinds));
  int hottest = 0, location_at = kinds[QueryKind::kLocationAt];
  for (const auto& [id, hits] : object_hits) hottest = std::max(hottest, hits);
  // Uniform popularity would give each of 500 objects ~0.2% of requests.
  EXPECT_GT(hottest, location_at / 50);
  // The kinds are drawn uniformly: each near a sixth of the requests.
  for (const auto& [kind, count] : kinds) {
    EXPECT_NEAR(count, 20000 / kNumQueryKinds, 400) << QueryKindName(kind);
  }
  // Recency: u^3 puts the median request an eighth of the span back.
  EXPECT_GT(Median(epochs), universe.hi - (universe.hi - universe.lo) / 6.0);
}

}  // namespace
}  // namespace perfbench
