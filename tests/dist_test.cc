// Tests for the distributed serving layer (src/dist): wire-protocol
// hardening (corruption, truncation, version skew), handoff state serde,
// transfer-schedule invariants, and end-to-end loopback runs that must
// reproduce the serial reference byte for byte — over transfer traces
// with cross-site hops and over the no-hop, normalized multi-site
// workloads `spire_cli serve` runs.
#include <cstdint>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "check/oracles.h"
#include "check/trace_gen.h"
#include "common/bitvector.h"
#include "common/wire.h"
#include "compress/well_formed.h"
#include "dist/node.h"
#include "dist/runner.h"
#include "dist/transport.h"
#include "dist/wire.h"
#include "obs/registry.h"
#include "sim/transfer.h"
#include "store/crc32.h"

namespace spire::dist {
namespace {

// ---------------------------------------------------------------------------
// Frame codec

HandoffPayload SampleHandoff() {
  HandoffPayload payload;
  payload.hop = 7;
  payload.to_site = 2;
  payload.arrive_epoch = 123;
  payload.capture_micros = 987654321;
  payload.span_id = 7;
  ObjectHandoff pallet;
  pallet.object = 0x5f80000000000001ull;
  pallet.seen_at = 120;
  pallet.confirmed.parent = kNoObject;
  pallet.confirmed.confirmed_at = kNeverEpoch;
  pallet.has_estimate = true;
  pallet.estimate.object = pallet.object;
  pallet.estimate.location = kUnknownLocation;  // Scrubbed: site-local.
  pallet.estimate.location_prob = 0.25;
  pallet.estimate.container = kNoObject;
  pallet.estimate.observed = true;
  pallet.fade_deadline = 140;
  ObjectHandoff item;
  item.object = 0x1f80000000200001ull;
  item.seen_at = 121;
  item.confirmed.parent = pallet.object;
  item.confirmed.confirmed_at = 100;
  item.confirmed.conflicts = 3;
  item.confirmed.observations = 17;
  HandoffEdge edge;
  edge.parent = pallet.object;
  edge.colocation_window = 0b1011011;
  edge.colocation_count = 7;
  edge.update_time = 121;
  edge.created_at = 95;
  item.parent_edges.push_back(edge);
  item.has_estimate = false;
  payload.objects.push_back(item);
  payload.objects.push_back(pallet);
  return payload;
}

std::vector<std::uint8_t> SampleFrame() {
  std::vector<std::uint8_t> payload;
  EncodeHandoff(SampleHandoff(), &payload);
  return EncodeFrame(FrameType::kHandoff, payload);
}

StatsReportPayload SampleStatsReport() {
  StatsReportPayload report;
  report.node_id = 1;
  report.epoch = 77;
  report.final_report = true;
  obs::RegistrySnapshot::Module& dist = report.snapshot.modules["dist"];
  dist.counters["frames"] = 123;
  dist.counters["bytes"] = 45678;
  dist.gauges["clock_offset_us"] = -321;  // Negative: zigzag path.
  obs::HistogramSnapshot& latency = dist.histograms["handoff_latency_us"];
  latency.buckets[0] = 2;
  latency.buckets[9] = 3;
  latency.count = 5;
  latency.total = 3002;
  latency.max = 1000;
  obs::RegistrySnapshot::Module& graph = report.snapshot.modules["graph"];
  graph.counters["edges"] = 9;
  return report;
}

std::vector<std::uint8_t> SampleStatsFrame() {
  std::vector<std::uint8_t> payload;
  EncodeStatsReport(SampleStatsReport(), &payload);
  return EncodeFrame(FrameType::kStatsReport, payload);
}

/// A two-site finish result with the heartbeat set.
EpochResultPayload SampleEpochResult() {
  EpochResultPayload payload;
  payload.result.epoch = 13;
  payload.result.finish = true;
  payload.steady_micros = 55555555555ull;  // Heartbeat stamp.
  payload.result.site_events.emplace_back(
      1u, EventStream{Event::StartLocation(77, 5, 9),
                      Event::EndLocation(77, 5, 3, 9)});
  payload.result.site_events.emplace_back(
      4u, EventStream{Event::StartLocation(78, 6, 13)});
  return payload;
}

std::vector<std::uint8_t> SampleEpochResultFrame() {
  std::vector<std::uint8_t> payload;
  EncodeEpochResult(SampleEpochResult(), &payload);
  return EncodeFrame(FrameType::kEpochResult, payload);
}

/// One representative frame per hardening sweep: the Handoff (the richest
/// payload), the StatsReport, and the EpochResult.
std::vector<std::vector<std::uint8_t>> HardeningFrames() {
  return {SampleFrame(), SampleStatsFrame(), SampleEpochResultFrame()};
}

/// Recomputes a frame's CRC after a deliberate header patch, so a check
/// other than the checksum must reject it.
void FixCrc(std::vector<std::uint8_t>* frame) {
  const std::uint32_t crc =
      Crc32(frame->data() + kFrameHeaderBytes,
            frame->size() - kFrameHeaderBytes, Crc32(frame->data(), 12));
  for (int i = 0; i < 4; ++i) {
    (*frame)[12 + i] = static_cast<std::uint8_t>(crc >> (8 * i));
  }
}

TEST(DistWireTest, FrameRoundTripAllTypes) {
  {
    HelloPayload hello;
    hello.node_id = 3;
    hello.sites = {3, 7, 11};
    hello.steady_now_micros = 987654321098ull;  // ClockSync stamp.
    hello.stats_interval_epochs = 16;
    std::vector<std::uint8_t> payload;
    EncodeHello(hello, &payload);
    auto frame = DecodeFrame(EncodeFrame(FrameType::kHello, payload));
    ASSERT_TRUE(frame.ok()) << frame.status().ToString();
    EXPECT_EQ(frame.value().type, FrameType::kHello);
    auto decoded = DecodeHello(frame.value().payload);
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    EXPECT_EQ(decoded.value().node_id, hello.node_id);
    EXPECT_EQ(decoded.value().sites, hello.sites);
    EXPECT_EQ(decoded.value().steady_now_micros, hello.steady_now_micros);
    EXPECT_EQ(decoded.value().stats_interval_epochs,
              hello.stats_interval_epochs);
  }
  {
    EpochWorkPayload work;
    work.epoch = 42;
    EpochReadings readings;
    RfidReading reading;
    reading.tag = 0x1f80000000200001ull;
    reading.reader = 1;
    reading.epoch = 42;
    reading.tick = 3;
    readings.push_back(reading);
    work.site_readings.emplace_back(1u, readings);
    CaptureOrder order;
    order.hop = 2;
    order.from_site = 1;
    order.to_site = 0;
    order.arrive_epoch = 50;
    order.objects = {0x1f80000000200001ull};
    work.captures.push_back(order);
    std::vector<std::uint8_t> payload;
    EncodeEpochWork(work, &payload);
    auto frame = DecodeFrame(EncodeFrame(FrameType::kEpochWork, payload));
    ASSERT_TRUE(frame.ok()) << frame.status().ToString();
    auto decoded = DecodeEpochWork(frame.value().payload);
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    EXPECT_EQ(decoded.value().epoch, work.epoch);
    EXPECT_FALSE(decoded.value().finish);
    ASSERT_EQ(decoded.value().site_readings.size(), 1u);
    EXPECT_EQ(decoded.value().site_readings[0].second, readings);
    ASSERT_EQ(decoded.value().captures.size(), 1u);
    EXPECT_EQ(decoded.value().captures[0].objects, order.objects);
    EXPECT_EQ(decoded.value().captures[0].arrive_epoch, order.arrive_epoch);
  }
  {
    const EpochResultPayload result = SampleEpochResult();
    auto frame = DecodeFrame(SampleEpochResultFrame());
    ASSERT_TRUE(frame.ok()) << frame.status().ToString();
    EXPECT_EQ(frame.value().type, FrameType::kEpochResult);
    auto decoded = DecodeEpochResult(frame.value().payload);
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    EXPECT_EQ(decoded.value().result.epoch, result.result.epoch);
    EXPECT_TRUE(decoded.value().result.finish);
    EXPECT_EQ(decoded.value().steady_micros, result.steady_micros);
    EXPECT_EQ(decoded.value().result.site_events, result.result.site_events);
  }
  {
    const HandoffPayload handoff = SampleHandoff();
    auto frame = DecodeFrame(SampleFrame());
    ASSERT_TRUE(frame.ok()) << frame.status().ToString();
    auto decoded = DecodeHandoff(frame.value().payload);
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    EXPECT_EQ(decoded.value().hop, handoff.hop);
    EXPECT_EQ(decoded.value().capture_micros, handoff.capture_micros);
    EXPECT_EQ(decoded.value().span_id, handoff.span_id);
    EXPECT_EQ(decoded.value().objects, handoff.objects);
  }
  {
    const StatsReportPayload report = SampleStatsReport();
    auto frame = DecodeFrame(SampleStatsFrame());
    ASSERT_TRUE(frame.ok()) << frame.status().ToString();
    EXPECT_EQ(frame.value().type, FrameType::kStatsReport);
    auto decoded = DecodeStatsReport(frame.value().payload);
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    EXPECT_EQ(decoded.value().node_id, report.node_id);
    EXPECT_EQ(decoded.value().epoch, report.epoch);
    EXPECT_TRUE(decoded.value().final_report);
    // The whole registry snapshot survives the wire: counters, negative
    // gauges, and histogram bucket arrays.
    EXPECT_EQ(decoded.value().snapshot, report.snapshot);
  }
}

TEST(DistWireTest, EveryByteFlipFailsDecode) {
  for (const std::vector<std::uint8_t>& frame : HardeningFrames()) {
    ASSERT_TRUE(DecodeFrame(frame).ok());
    for (std::size_t i = 0; i < frame.size(); ++i) {
      for (std::uint8_t bit : {std::uint8_t{0x01}, std::uint8_t{0x80}}) {
        std::vector<std::uint8_t> corrupted = frame;
        corrupted[i] ^= bit;
        EXPECT_FALSE(DecodeFrame(corrupted).ok())
            << "flip of bit " << int{bit} << " in byte " << i
            << " decoded as a valid frame";
      }
    }
  }
}

TEST(DistWireTest, EveryPrefixTruncationFails) {
  for (const std::vector<std::uint8_t>& frame : HardeningFrames()) {
    for (std::size_t len = 0; len < frame.size(); ++len) {
      std::vector<std::uint8_t> truncated(frame.begin(), frame.begin() + len);
      EXPECT_FALSE(DecodeFrame(truncated).ok())
          << "prefix of " << len << " bytes decoded as a valid frame";
    }
  }
}

TEST(DistWireTest, VersionSkewIsNamedInTheError) {
  for (std::vector<std::uint8_t> frame : HardeningFrames()) {
    // Patch a future protocol version in and fix the checksum up, so the
    // version check itself (not the CRC) must reject the frame.
    const std::uint16_t future = kDistProtocolVersion + 1;
    frame[6] = static_cast<std::uint8_t>(future & 0xff);
    frame[7] = static_cast<std::uint8_t>(future >> 8);
    FixCrc(&frame);
    auto decoded = DecodeFrame(frame);
    ASSERT_FALSE(decoded.ok());
    EXPECT_NE(decoded.status().ToString().find("version"), std::string::npos)
        << decoded.status().ToString();
  }
}

TEST(DistWireTest, OutOfRangeTypeIsNamedInTheError) {
  for (std::uint8_t type : {std::uint8_t{kNumFrameTypes}, std::uint8_t{0xff}}) {
    std::vector<std::uint8_t> frame = SampleEpochResultFrame();
    frame[4] = type;
    FixCrc(&frame);
    auto decoded = DecodeFrame(frame);
    ASSERT_FALSE(decoded.ok()) << "type byte " << int{type};
    EXPECT_NE(decoded.status().ToString().find("unknown frame type"),
              std::string::npos)
        << decoded.status().ToString();
  }
}

TEST(DistWireTest, HandoffRoundTripsSentinelsAndDoubles) {
  HandoffPayload payload;
  payload.hop = 0;
  payload.to_site = 0;
  payload.arrive_epoch = kInfiniteEpoch;
  ObjectHandoff handoff;
  handoff.object = ~std::uint64_t{0} - 1;
  handoff.seen_at = kNeverEpoch;
  handoff.confirmed.parent = kNoObject;
  handoff.confirmed.confirmed_at = kNeverEpoch;
  handoff.has_estimate = true;
  handoff.estimate.object = handoff.object;
  handoff.estimate.location = kUnknownLocation;
  handoff.estimate.location_prob = 0.1 + 0.2;  // Not exactly 0.3.
  handoff.estimate.location_runner_up = 1e-300;
  handoff.estimate.container_prob = 0.9999999999999999;
  handoff.fade_deadline = kInfiniteEpoch;
  HandoffEdge edge;
  edge.parent = kNoObject - 1;
  edge.colocation_window = ~std::uint64_t{0};
  edge.colocation_count = ShiftRegister::kMaxCapacity;
  edge.update_time = kNeverEpoch;
  edge.created_at = kNeverEpoch;
  handoff.parent_edges.push_back(edge);
  payload.objects.push_back(handoff);

  std::vector<std::uint8_t> bytes;
  EncodeHandoff(payload, &bytes);
  auto decoded = DecodeHandoff(bytes);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded.value().arrive_epoch, kInfiniteEpoch);
  ASSERT_EQ(decoded.value().objects.size(), 1u);
  EXPECT_EQ(decoded.value().objects[0], handoff);
}

TEST(DistWireTest, ShiftRegisterRestoreIsIndistinguishable) {
  ShiftRegister source(16);
  for (int i = 0; i < 40; ++i) source.Push(i % 3 == 0);
  ShiftRegister restored(16);
  restored.Restore(source.Window(), source.size());
  EXPECT_EQ(restored.size(), source.size());
  EXPECT_EQ(restored.Window(), source.Window());
  EXPECT_EQ(restored.PopCount(), source.PopCount());
  for (int i = 0; i < source.size(); ++i) {
    EXPECT_EQ(restored.Get(i), source.Get(i)) << "bit " << i;
  }
}

// ---------------------------------------------------------------------------
// Transfer schedule

SimConfig TransferConfig() {
  SimConfig sim;
  sim.seed = 5;
  sim.duration_epochs = 120;
  sim.transfer_sites = 3;
  sim.transfer_interval = 25;
  sim.transfer_dwell = 2;
  sim.transfer_transit = 3;
  sim.transfer_round_trips = 2;
  sim.transfer_cases = 1;
  sim.transfer_items = 2;
  return sim;
}

TEST(TransferTraceTest, ScheduleInvariantsHold) {
  auto trace = BuildTransferTrace(TransferConfig());
  ASSERT_TRUE(trace.ok()) << trace.status().ToString();
  const TransferTrace& t = trace.value();
  EXPECT_EQ(t.sites.size(), 3u);
  EXPECT_FALSE(t.hops.empty());
  for (const TransferHop& hop : t.hops) {
    EXPECT_GE(hop.from_site, 0);
    EXPECT_LT(hop.from_site, 3);
    EXPECT_GE(hop.to_site, 0);
    EXPECT_LT(hop.to_site, 3);
    EXPECT_NE(hop.from_site, hop.to_site);
    // The feed protocol forwards a handoff between the departure epoch and
    // the arrival epoch; the gap must be strictly positive.
    EXPECT_LT(hop.depart_epoch, hop.arrive_epoch);
    EXPECT_GE(hop.depart_epoch, 0);
    ASSERT_FALSE(hop.objects.empty());
    // Leaf-up capture order: the pallet (the group's root, smallest serial
    // in its tag space) is staged last so retiring in order never leaves a
    // container with live children. All cargo tags carry the reserved
    // transfer site index, outside every real site's tag space.
    for (ObjectId object : hop.objects) {
      EXPECT_EQ(DecodeEpc(object).company_prefix >> kEpcSitePrefixBits,
                static_cast<std::uint32_t>(kTransferTagSite))
          << "object 0x" << std::hex << object;
    }
  }
}

// ---------------------------------------------------------------------------
// End-to-end loopback vs serial reference

/// Expands fuzz seeds into a normalized multi-site workload (one site per
/// seed), the way `spire_cli serve sites=N` builds it.
serve::Workload ServeWorkload(const std::vector<std::uint64_t>& seeds) {
  serve::Workload workload;
  for (std::uint64_t seed : seeds) {
    FuzzCase fuzz_case = CaseFromSeed(seed);
    // NormalizeWorkload plants the site bits itself, so each site must be a
    // raw single-site trace; a transfer case's merged view already uses them.
    fuzz_case.sim.transfer_sites = 1;
    auto trace = GenerateTrace(fuzz_case);
    EXPECT_TRUE(trace.ok()) << trace.status().ToString();
    serve::SiteWorkload site;
    site.name = "seed-" + std::to_string(seed);
    site.registry = trace.value().registry;
    site.epochs = std::move(trace.value().epochs);
    workload.sites.push_back(std::move(site));
  }
  Status status = serve::NormalizeWorkload(&workload);
  EXPECT_TRUE(status.ok()) << status.ToString();
  return workload;
}

/// A no-hop loopback run (`spire_cli serve`) with a small flow-control
/// window, so the backpressure paths run too.
EventStream Serve(const serve::Workload& workload, int nodes,
                  CompressionLevel level = CompressionLevel::kLevel1) {
  DistOptions options;
  options.num_nodes = nodes;
  options.inflight_epochs = 4;
  options.pipeline.level = level;
  DistResult result = RunDistLoopback(workload, {}, options);
  EXPECT_TRUE(result.status.ok()) << result.status.ToString();
  EXPECT_EQ(result.handoff_objects, 0u);
  return std::move(result.events);
}

TEST(DistRunnerTest, LoopbackMatchesReferenceAtAnyNodeCount) {
  auto trace = BuildTransferTrace(TransferConfig());
  ASSERT_TRUE(trace.ok()) << trace.status().ToString();
  auto workload = ToWorkload(trace.value());
  ASSERT_TRUE(workload.ok()) << workload.status().ToString();

  for (CompressionLevel level :
       {CompressionLevel::kLevel1, CompressionLevel::kLevel2}) {
    PipelineOptions pipeline;
    pipeline.level = level;
    const EventStream reference =
        RunDistReference(workload.value(), trace.value().hops, pipeline);
    EXPECT_FALSE(reference.empty());
    // Three sites, so 4 nodes clamps to 3.
    for (int nodes : {1, 2, 3, 4}) {
      DistOptions options;
      options.num_nodes = nodes;
      options.pipeline = pipeline;
      options.inflight_epochs = 4;  // Small: exercises flow control.
      DistResult result =
          RunDistLoopback(workload.value(), trace.value().hops, options);
      ASSERT_TRUE(result.status.ok())
          << "nodes=" << nodes << ": " << result.status.ToString();
      EXPECT_EQ(result.events, reference)
          << "nodes=" << nodes << " level=" << static_cast<int>(level) << "\n"
          << DiffStreams(result.events, reference, "loopback", "reference");
      EXPECT_GT(result.handoff_objects, 0u);
    }
  }
}

TEST(ServeTest, ShardCountsAreByteIdentical) {
  // 3 sites over 4 nodes also exercises the clamp to the site count.
  const serve::Workload workload = ServeWorkload({11, 12, 13});
  for (CompressionLevel level :
       {CompressionLevel::kLevel1, CompressionLevel::kLevel2}) {
    PipelineOptions pipeline;
    pipeline.level = level;
    const EventStream reference = RunDistReference(workload, {}, pipeline);
    EXPECT_FALSE(reference.empty());
    for (int nodes : {1, 2, 4}) {
      EventStream served = Serve(workload, nodes, level);
      EXPECT_EQ(served, reference)
          << "nodes=" << nodes << " level=" << static_cast<int>(level) << "\n"
          << DiffStreams(served, reference, "serve", "reference");
    }
  }
}

TEST(ServeTest, SingleSiteMatchesPlainPipeline) {
  // Site 0's normalization is the identity, so a one-site run must
  // reproduce the plain single-threaded pipeline bit for bit.
  FuzzCase fuzz_case = CaseFromSeed(21);
  fuzz_case.sim.transfer_sites = 1;  // Same single-site view as ServeWorkload.
  auto trace = GenerateTrace(fuzz_case);
  ASSERT_TRUE(trace.ok()) << trace.status().ToString();
  EventStream plain =
      RunPipelineOnTrace(trace.value(), CompressionLevel::kLevel1);

  EventStream served = Serve(ServeWorkload({21}), 1);
  EXPECT_EQ(served, plain) << DiffStreams(served, plain, "serve", "pipeline");
}

TEST(ServeTest, MergedStreamIsWellFormed) {
  EventStream served = Serve(ServeWorkload({31, 32, 33, 34}), 2);
  Status status = ValidateWellFormed(served);
  EXPECT_TRUE(status.ok()) << status.ToString();
}

TEST(ServeTest, Level2RecoversLevel1) {
  const serve::Workload workload = ServeWorkload({41, 42});
  EventStream level1 = Serve(workload, 2, CompressionLevel::kLevel1);
  EventStream level2 = Serve(workload, 2, CompressionLevel::kLevel2);
  auto failure = DifferentialChecker::CheckLevel2Recovery(level1, level2);
  EXPECT_FALSE(failure.has_value())
      << failure->oracle << ": " << failure->detail;
}

TEST(DistRunnerTest, ResultWithWrongSitesIsANamedError) {
  // The coordinator assigns its one node sites {0, 1}. A node that serves
  // {0} sends results missing site 1, and one that serves {0, 0} names
  // site 0 twice: the run must fail by name, not merge or hang.
  const serve::Workload workload = ServeWorkload({11, 12});
  for (const std::vector<int>& sites :
       {std::vector<int>{0}, std::vector<int>{0, 0}}) {
    auto [coordinator_end, node_end] = MakeLoopbackPair();
    NodeConfig config;
    config.sites = sites;
    config.workload = &workload;
    std::thread node([&config, conn = node_end.get()] {
      (void)RunDistNode(config, conn);  // Fails once the coordinator aborts.
      conn->Close();
    });
    DistOptions options;
    options.num_nodes = 1;
    DistResult result =
        RunDistCoordinator(workload, {}, options, {coordinator_end.get()});
    node.join();
    ASSERT_FALSE(result.status.ok()) << "sites=" << sites.size();
    EXPECT_EQ(result.status.code(), StatusCode::kInternal);
    EXPECT_NE(result.status.ToString().find("not the ones it owns"),
              std::string::npos)
        << result.status.ToString();
    EXPECT_TRUE(result.events.empty());
  }
}

TEST(DistRunnerTest, ObsInstrumentsCountTraffic) {
  obs::SetEnabled(true);
  auto& registry = obs::Registry::Global();
  registry.Reset();

  auto trace = BuildTransferTrace(TransferConfig());
  ASSERT_TRUE(trace.ok()) << trace.status().ToString();
  auto workload = ToWorkload(trace.value());
  ASSERT_TRUE(workload.ok()) << workload.status().ToString();
  DistOptions options;
  options.num_nodes = 2;
  DistResult result =
      RunDistLoopback(workload.value(), trace.value().hops, options);
  ASSERT_TRUE(result.status.ok()) << result.status.ToString();

  EXPECT_GT(registry.GetCounter("dist", "frames")->value(), 0u);
  EXPECT_GT(registry.GetCounter("dist", "bytes")->value(), 0u);
  EXPECT_EQ(registry.GetCounter("dist", "handoffs")->value(),
            result.handoff_objects);
  // One latency sample per delivered hop (objects in a hop share the ship).
  EXPECT_EQ(registry.GetHistogram("dist", "handoff_latency_us")->count(),
            result.handoff_hops);

  registry.Reset();
  obs::SetEnabled(false);
}

TEST(DistRunnerTest, PerTypeTrafficCountersSumToTotals) {
  obs::SetEnabled(true);
  auto& registry = obs::Registry::Global();
  registry.Reset();

  auto trace = BuildTransferTrace(TransferConfig());
  ASSERT_TRUE(trace.ok()) << trace.status().ToString();
  auto workload = ToWorkload(trace.value());
  ASSERT_TRUE(workload.ok()) << workload.status().ToString();
  DistOptions options;
  options.num_nodes = 2;
  options.stats_interval_epochs = 8;
  DistResult result =
      RunDistLoopback(workload.value(), trace.value().hops, options);
  ASSERT_TRUE(result.status.ok()) << result.status.ToString();

  // Every frame lands in exactly one per-type counter, so the breakdowns
  // must tile the totals.
  std::uint64_t frames_sum = 0;
  std::uint64_t bytes_sum = 0;
  for (int type = 0; type < kNumFrameTypes; ++type) {
    const char* suffix = ToString(static_cast<FrameType>(type));
    const std::uint64_t frames =
        registry.GetCounter("dist", std::string("frames_") + suffix)->value();
    const std::uint64_t bytes =
        registry.GetCounter("dist", std::string("bytes_") + suffix)->value();
    EXPECT_LE(frames, bytes) << suffix;  // Every frame has a header.
    frames_sum += frames;
    bytes_sum += bytes;
  }
  EXPECT_EQ(registry.GetCounter("dist", "frames")->value(), frames_sum);
  EXPECT_EQ(registry.GetCounter("dist", "bytes")->value(), bytes_sum);
  // One EpochWork and one EpochResult per node and epoch, the finish round
  // included; loopback counts each frame at send and again at receive.
  const std::uint64_t per_type =
      2u * 2u * static_cast<std::uint64_t>(workload.value().num_epochs + 1);
  EXPECT_EQ(registry.GetCounter("dist", "frames_epoch_work")->value(),
            per_type);
  EXPECT_EQ(registry.GetCounter("dist", "frames_epoch_result")->value(),
            per_type);
  EXPECT_GT(registry.GetCounter("dist", "frames_handoff")->value(), 0u);
  EXPECT_GT(registry.GetCounter("dist", "frames_stats_report")->value(), 0u);

  // The stats cadence left the coordinator a snapshot from every node.
  ASSERT_EQ(result.node_stats.size(), 2u);
  for (const obs::RegistrySnapshot& snapshot : result.node_stats) {
    EXPECT_FALSE(snapshot.empty());
    EXPECT_NE(snapshot.modules.find("dist"), snapshot.modules.end());
  }

  registry.Reset();
  obs::SetEnabled(false);
}

}  // namespace
}  // namespace spire::dist
