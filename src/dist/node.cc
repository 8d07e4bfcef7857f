#include "dist/node.h"

#include <deque>
#include <map>
#include <memory>
#include <utility>

#include "obs/registry.h"
#include "obs/trace.h"

namespace spire::dist {

namespace {

struct NodeInstruments {
  obs::Counter* handoffs;
  obs::Histogram* handoff_latency_us;
};

const NodeInstruments* GetInstruments() {
  if (!obs::Enabled()) return nullptr;
  auto& registry = obs::Registry::Global();
  static const NodeInstruments instruments{
      registry.GetCounter("dist", "handoffs"),
      registry.GetHistogram("dist", "handoff_latency_us"),
  };
  return &instruments;
}

}  // namespace

Status RunDistNode(const NodeConfig& config, Conn* conn) {
  if (config.workload == nullptr) {
    return Status::InvalidArgument("node has no workload");
  }
  const serve::Workload& workload = *config.workload;
  for (int site : config.sites) {
    if (site < 0 || site >= static_cast<int>(workload.sites.size())) {
      return Status::InvalidArgument("node owns out-of-range site");
    }
  }

  std::vector<std::unique_ptr<SpirePipeline>> pipelines;
  pipelines.reserve(config.sites.size());
  for (int site : config.sites) {
    pipelines.push_back(std::make_unique<SpirePipeline>(
        &workload.sites[static_cast<std::size_t>(site)].registry,
        config.pipeline));
  }

  // Hello exchange: announce identity, require a same-version coordinator.
  // Doubles as the ClockSync handshake: bracketing the round trip with t0
  // and t1 puts the coordinator's stamp at roughly the midpoint, so
  // coord_stamp - (t0 + t1) / 2 estimates this node's offset onto the
  // coordinator clock (the NTP half-round-trip estimate; ~0 on one
  // machine, where the steady clock is shared).
  std::uint32_t stats_interval = 0;
  {
    const std::uint64_t t0 = SteadyNowMicros();
    HelloPayload hello;
    hello.node_id = static_cast<std::uint32_t>(config.node_id);
    for (int site : config.sites) {
      hello.sites.push_back(static_cast<std::uint32_t>(site));
    }
    hello.steady_now_micros = t0;
    std::vector<std::uint8_t> payload;
    EncodeHello(hello, &payload);
    SPIRE_RETURN_NOT_OK(SendFrame(conn, FrameType::kHello, payload));

    Frame frame;
    bool eof = false;
    SPIRE_RETURN_NOT_OK(RecvFrame(conn, &frame, &eof));
    if (eof) return Status::Internal("connection closed before hello");
    if (frame.type != FrameType::kHello) {
      return Status::Internal(std::string("expected Hello, got ") +
                              ToString(frame.type));
    }
    Result<HelloPayload> peer = DecodeHello(frame.payload);
    if (!peer.ok()) return peer.status();
    const std::uint64_t t1 = SteadyNowMicros();

    // The coordinator's stats cadence turns metrics on before the first
    // instrumented work (and before the instrument fetch below).
    stats_interval = peer.value().stats_interval_epochs;
    if (stats_interval > 0) obs::SetEnabled(true);

    const std::int64_t offset_us =
        static_cast<std::int64_t>(peer.value().steady_now_micros) -
        static_cast<std::int64_t>((t0 + t1) / 2);
    if (obs::Enabled()) {
      obs::Registry::Global()
          .GetGauge("dist", "clock_offset_us")
          ->Set(offset_us);
    }
    if (obs::Tracer::Global().active()) {
      obs::Tracer::Global().SetClockOffsetMicros(offset_us);
    }
  }

  const NodeInstruments* obs = GetInstruments();

  // Handoffs stashed until their (arrival site, arrival epoch) comes up,
  // in arrival (frame) order.
  std::map<std::pair<int, Epoch>, std::deque<HandoffPayload>> stash;

  // One result per epoch, reused so each site's event buffer keeps its
  // capacity across epochs.
  EpochResultPayload out;
  for (int site : config.sites) {
    out.result.site_events.emplace_back(static_cast<std::uint32_t>(site),
                                        EventStream{});
  }

  Epoch next_epoch = 0;
  for (;;) {
    Frame frame;
    bool eof = false;
    SPIRE_RETURN_NOT_OK(RecvFrame(conn, &frame, &eof));
    if (eof) {
      return Status::Internal("connection closed before finish");
    }

    if (frame.type == FrameType::kHandoff) {
      Result<HandoffPayload> handoff = DecodeHandoff(frame.payload);
      if (!handoff.ok()) return handoff.status();
      const int site = static_cast<int>(handoff.value().to_site);
      stash[{site, handoff.value().arrive_epoch}].push_back(
          std::move(handoff.value()));
      continue;
    }
    if (frame.type != FrameType::kEpochWork) {
      return Status::Internal(std::string("unexpected ") +
                              ToString(frame.type) + " frame");
    }

    Result<EpochWorkPayload> decoded = DecodeEpochWork(frame.payload);
    if (!decoded.ok()) return decoded.status();
    EpochWorkPayload& work = decoded.value();
    if (!work.finish) {
      if (work.epoch != next_epoch) {
        return Status::Internal("epoch work out of order");
      }
      ++next_epoch;
    }

    // This epoch's departing hops; a deque keeps each sink address handed
    // to StageDeparture stable.
    std::deque<HandoffPayload> captured;
    for (std::size_t i = 0; i < config.sites.size(); ++i) {
      const int site = config.sites[i];
      SpirePipeline& pipeline = *pipelines[i];
      EventStream& events = out.result.site_events[i].second;
      events.clear();
      if (work.finish) {
        pipeline.Finish(work.epoch, &events);
        continue;
      }

      // Arrivals first: splice shipped objects in ahead of this epoch.
      auto arrivals = stash.find({site, work.epoch});
      if (arrivals != stash.end()) {
        const std::uint64_t now_us = SteadyNowMicros();
        for (const HandoffPayload& handoff : arrivals->second) {
          for (const ObjectHandoff& object : handoff.objects) {
            pipeline.ImplantHandoff(object);
          }
          if (obs::Tracer::Global().active()) {
            // Close the hop's end-to-end span opened at capture on the
            // departure node; merge-traces pairs the two by span id.
            obs::Tracer::Global().RecordAsync("handoff", "hop", 'e',
                                              handoff.span_id, work.epoch);
          }
          if (obs != nullptr) {
            obs->handoffs->Add(handoff.objects.size());
            obs->handoff_latency_us->Record(
                now_us > handoff.capture_micros
                    ? now_us - handoff.capture_micros
                    : 0);
          }
        }
        stash.erase(arrivals);
      }

      // Departures: stage this epoch's capture orders for this site.
      for (const CaptureOrder& order : work.captures) {
        if (static_cast<int>(order.from_site) != site) continue;
        HandoffPayload& handoff = captured.emplace_back();
        handoff.hop = order.hop;
        handoff.to_site = order.to_site;
        handoff.arrive_epoch = order.arrive_epoch;
        handoff.span_id = order.hop;
        pipeline.StageDeparture(order.objects, &handoff.objects);
        if (obs::Tracer::Global().active()) {
          // Open the hop's end-to-end span: capture here, splice on the
          // arrival node. The global hop index is the span id.
          obs::Tracer::Global().RecordAsync("handoff", "hop", 'b',
                                            handoff.span_id, work.epoch);
        }
      }

      EpochReadings readings;
      for (auto& [reading_site, site_readings] : work.site_readings) {
        if (static_cast<int>(reading_site) == site) {
          readings = std::move(site_readings);
          break;
        }
      }
      pipeline.ProcessEpoch(work.epoch, std::move(readings), &events);
    }
    for (auto& [site, events] : out.result.site_events) {
      serve::RemapLocations(workload.sites[site].location_offset, &events);
    }

    // Ship this epoch's captures, then any stats report, then the result
    // last: it is the epoch's barrier.
    for (HandoffPayload& handoff : captured) {
      handoff.capture_micros = SteadyNowMicros();
      std::vector<std::uint8_t> payload;
      EncodeHandoff(handoff, &payload);
      SPIRE_RETURN_NOT_OK(SendFrame(conn, FrameType::kHandoff, payload));
    }
    if (stats_interval > 0 &&
        (work.finish || (work.epoch + 1) % stats_interval == 0)) {
      // A cumulative registry snapshot per cadence tick, plus the final
      // report with the finish result.
      StatsReportPayload report;
      report.node_id = static_cast<std::uint32_t>(config.node_id);
      report.epoch = work.epoch;
      report.final_report = work.finish;
      report.snapshot = obs::Registry::Global().TakeSnapshot();
      std::vector<std::uint8_t> payload;
      EncodeStatsReport(report, &payload);
      SPIRE_RETURN_NOT_OK(SendFrame(conn, FrameType::kStatsReport, payload));
    }
    out.result.epoch = work.epoch;
    out.result.finish = work.finish;
    out.steady_micros = SteadyNowMicros();
    std::vector<std::uint8_t> payload;
    EncodeEpochResult(out, &payload);
    SPIRE_RETURN_NOT_OK(SendFrame(conn, FrameType::kEpochResult, payload));
    if (work.finish) return Status::OK();
  }
}

}  // namespace spire::dist
