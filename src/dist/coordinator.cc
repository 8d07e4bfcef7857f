#include "dist/coordinator.h"

#include <algorithm>
#include <condition_variable>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <utility>

#include "obs/registry.h"
#include "serve/merger.h"
#include "serve/queue.h"

namespace spire::dist {

namespace {

obs::Counter* BarrierWaitsCounter() {
  if (!obs::Enabled()) return nullptr;
  static obs::Counter* counter =
      obs::Registry::Global().GetCounter("dist", "barrier_waits");
  return counter;
}

/// The coordinator's fleet-health instruments: per-node clock skew and
/// epoch lag, the fleet-wide worst lag, and the EpochResult heartbeat gap.
/// Sized to the run's node count, so built per run rather than as a
/// static.
struct FleetInstruments {
  obs::Histogram* heartbeat_gap_us;
  obs::Gauge* max_epoch_lag;
  obs::Gauge* slowest_node;
  std::vector<obs::Gauge*> clock_skew_us;
  std::vector<obs::Gauge*> epoch_lag;
};

std::unique_ptr<FleetInstruments> MakeFleetInstruments(int num_nodes) {
  if (!obs::Enabled()) return nullptr;
  auto& registry = obs::Registry::Global();
  auto out = std::make_unique<FleetInstruments>();
  out->heartbeat_gap_us = registry.GetHistogram("fleet", "heartbeat_gap_us");
  out->max_epoch_lag = registry.GetGauge("fleet", "max_epoch_lag");
  out->slowest_node = registry.GetGauge("fleet", "slowest_node");
  for (int n = 0; n < num_nodes; ++n) {
    const std::string node = "node" + std::to_string(n);
    out->clock_skew_us.push_back(
        registry.GetGauge("fleet", node + "_clock_skew_us"));
    out->epoch_lag.push_back(registry.GetGauge("fleet", node + "_epoch_lag"));
  }
  return out;
}

}  // namespace

std::vector<int> SitesOfNode(int node, int num_sites, int num_nodes) {
  std::vector<int> sites;
  for (int site = node; site < num_sites; site += num_nodes) {
    sites.push_back(site);
  }
  return sites;
}

DistResult RunDistCoordinator(const serve::Workload& workload,
                              const std::vector<TransferHop>& hops,
                              const DistOptions& options,
                              const std::vector<Conn*>& conns) {
  DistResult result;
  const int num_nodes = static_cast<int>(conns.size());
  const int num_sites = static_cast<int>(workload.sites.size());
  if (num_nodes < 1 || num_nodes > num_sites) {
    result.status = Status::InvalidArgument(
        "node count must be in [1, site count]");
    return result;
  }
  const Epoch window =
      static_cast<Epoch>(options.inflight_epochs < 1 ? 1
                                                     : options.inflight_epochs);

  std::vector<std::vector<int>> sites_of(num_nodes);
  std::vector<std::unique_ptr<serve::BoundedQueue<serve::EpochResult>>> queues;
  std::vector<serve::BoundedQueue<serve::EpochResult>*> queue_ptrs;
  for (int n = 0; n < num_nodes; ++n) {
    sites_of[n] = SitesOfNode(n, num_sites, num_nodes);
    queues.push_back(
        std::make_unique<serve::BoundedQueue<serve::EpochResult>>(
            static_cast<std::size_t>(window) + 1));
    queue_ptrs.push_back(queues.back().get());
  }

  // Hops in flight and barrier progress, shared by the reader threads and
  // the feeder.
  std::mutex mu;
  std::condition_variable cv;
  std::vector<Epoch> barriers(static_cast<std::size_t>(num_nodes), 0);
  std::vector<std::uint8_t> finished(static_cast<std::size_t>(num_nodes), 0);
  std::unordered_map<std::uint64_t, HandoffPayload> ready_handoffs;
  Status error;
  bool aborted = false;

  const std::unique_ptr<FleetInstruments> fleet =
      MakeFleetInstruments(num_nodes);
  if (options.stats_interval_epochs > 0) {
    result.node_stats.resize(static_cast<std::size_t>(num_nodes));
  }

  /// Latches the first error and unblocks every wait: queues (merger and
  /// blocked pushes), connections (blocked reads on both sides), and the
  /// shared condition variable.
  auto fail = [&](Status status) {
    {
      std::lock_guard<std::mutex> lock(mu);
      if (!aborted) {
        error = std::move(status);
        aborted = true;
      }
    }
    cv.notify_all();
    for (auto& queue : queues) queue->Close();
    for (Conn* conn : conns) conn->Close();
  };

  /// Handles one frame from node `n`; an error status fails the run.
  auto handle = [&](int n, Frame& frame) -> Status {
    const auto node = static_cast<std::size_t>(n);
    switch (frame.type) {
      case FrameType::kHello: {
        Result<HelloPayload> hello = DecodeHello(frame.payload);
        if (!hello.ok()) return hello.status();
        if (hello.value().node_id != static_cast<std::uint32_t>(n)) {
          return Status::Internal("node identity mismatch");
        }
        if (fleet != nullptr) {
          // One-way skew estimate: the node stamped its Hello at send, we
          // read our clock at receipt; the gap is send->receive delay plus
          // any clock divergence (~0 on one machine: CLOCK_MONOTONIC is
          // boot-global).
          fleet->clock_skew_us[node]->Set(
              static_cast<std::int64_t>(SteadyNowMicros()) -
              static_cast<std::int64_t>(hello.value().steady_now_micros));
        }
        return Status::OK();
      }
      case FrameType::kEpochResult: {
        Result<EpochResultPayload> decoded = DecodeEpochResult(frame.payload);
        if (!decoded.ok()) return decoded.status();
        serve::EpochResult& epoch_result = decoded.value().result;
        // Exactly the node's own sites, ascending, each once.
        auto site_of = [](const auto& entry) {
          return static_cast<int>(entry.first);
        };
        if (!std::ranges::equal(epoch_result.site_events, sites_of[node], {},
                                site_of)) {
          return Status::Internal(
              "node " + std::to_string(n) + " sent an epoch " +
              std::to_string(epoch_result.epoch) +
              " result whose sites are not the ones it owns");
        }
        const std::uint64_t heartbeat = decoded.value().steady_micros;
        if (fleet != nullptr && heartbeat > 0) {
          const std::int64_t gap =
              static_cast<std::int64_t>(SteadyNowMicros()) -
              static_cast<std::int64_t>(heartbeat);
          fleet->heartbeat_gap_us->Record(
              gap > 0 ? static_cast<std::uint64_t>(gap) : 1);
        }
        {
          std::lock_guard<std::mutex> lock(mu);
          ++barriers[node];
          if (epoch_result.finish) finished[node] = 1;
          if (fleet != nullptr) {
            // Slow-node detection: how far each node trails the furthest
            // barrier. The max-lag gauge is a running high-water mark;
            // slowest_node names the node holding the current worst lag.
            Epoch max_barrier = 0;
            for (Epoch b : barriers) max_barrier = std::max(max_barrier, b);
            Epoch worst_lag = 0;
            int worst_node = 0;
            for (int i = 0; i < num_nodes; ++i) {
              const Epoch lag =
                  max_barrier - barriers[static_cast<std::size_t>(i)];
              fleet->epoch_lag[static_cast<std::size_t>(i)]->Set(lag);
              if (lag > worst_lag) {
                worst_lag = lag;
                worst_node = i;
              }
            }
            fleet->max_epoch_lag->SetMax(worst_lag);
            fleet->slowest_node->Set(worst_node);
          }
        }
        cv.notify_all();
        // Only fail() closes the queue, so a refused push means the run is
        // already aborting and this status will not replace its error.
        if (!queues[node]->Push(std::move(epoch_result))) {
          return Status::Internal("merge queue closed");
        }
        return Status::OK();
      }
      case FrameType::kHandoff: {
        Result<HandoffPayload> handoff = DecodeHandoff(frame.payload);
        if (!handoff.ok()) return handoff.status();
        {
          std::lock_guard<std::mutex> lock(mu);
          ready_handoffs[handoff.value().hop] = std::move(handoff.value());
        }
        cv.notify_all();
        return Status::OK();
      }
      case FrameType::kStatsReport: {
        Result<StatsReportPayload> report = DecodeStatsReport(frame.payload);
        if (!report.ok()) return report.status();
        if (report.value().node_id != static_cast<std::uint32_t>(n)) {
          return Status::Internal("stats report node identity mismatch");
        }
        // Reports are cumulative; keep only the latest per node. Each
        // reader writes its own slot, but take the lock anyway so the
        // final result read is ordered after every store.
        if (node < result.node_stats.size()) {
          std::lock_guard<std::mutex> lock(mu);
          result.node_stats[node] = std::move(report.value().snapshot);
        }
        return Status::OK();
      }
      case FrameType::kEpochWork:
        break;
    }
    return Status::Internal(std::string("unexpected ") +
                            ToString(frame.type) + " frame from node");
  };

  auto reader = [&](int n) {
    const auto node = static_cast<std::size_t>(n);
    for (;;) {
      Frame frame;
      bool eof = false;
      Status status = RecvFrame(conns[node], &frame, &eof);
      if (status.ok() && eof) {
        std::lock_guard<std::mutex> lock(mu);
        if (finished[node] == 0) {
          status = Status::Internal("node " + std::to_string(n) +
                                    " disconnected before finish");
        }
      } else if (status.ok()) {
        status = handle(n, frame);
      }
      if (!status.ok()) {
        fail(std::move(status));
        break;
      }
      if (eof) break;
    }
    // The merger treats a closed, drained queue as this node's stream end.
    queues[node]->Close();
  };

  // Hop indexes by arrival epoch (schedule order). Hops arriving at or
  // after the horizon are never delivered: their departure is still
  // captured (the objects leave the origin site), matching the serial
  // reference. depart < arrive guarantees such hops also depart in range.
  std::map<Epoch, std::vector<std::size_t>> arrivals_at;
  std::map<Epoch, std::vector<std::size_t>> departures_at;
  for (std::size_t i = 0; i < hops.size(); ++i) {
    if (hops[i].depart_epoch < workload.num_epochs) {
      departures_at[hops[i].depart_epoch].push_back(i);
      if (hops[i].arrive_epoch < workload.num_epochs) {
        arrivals_at[hops[i].arrive_epoch].push_back(i);
      }
    }
  }

  obs::Counter* barrier_waits = BarrierWaitsCounter();

  /// Streams every node its handoffs and work; returns the first send
  /// error (OK when it stops because the run aborted).
  auto feed = [&]() -> Status {
    for (Epoch epoch = 0; epoch < workload.num_epochs; ++epoch) {
      for (int n = 0; n < num_nodes; ++n) {
        {
          std::unique_lock<std::mutex> lock(mu);
          if (!aborted &&
              epoch - barriers[static_cast<std::size_t>(n)] >= window) {
            if (barrier_waits != nullptr) barrier_waits->Add(1);
            cv.wait(lock, [&] {
              return aborted ||
                     epoch - barriers[static_cast<std::size_t>(n)] < window;
            });
          }
          if (aborted) return Status::OK();
        }

        // Forward the handoffs arriving at this node this epoch, in
        // schedule order, ahead of the epoch's work on the same FIFO.
        auto arriving = arrivals_at.find(epoch);
        if (arriving != arrivals_at.end()) {
          for (std::size_t hop_index : arriving->second) {
            const TransferHop& hop = hops[hop_index];
            if (NodeOfSite(hop.to_site, num_nodes) != n) continue;
            HandoffPayload payload;
            {
              std::unique_lock<std::mutex> lock(mu);
              cv.wait(lock, [&] {
                return aborted || ready_handoffs.count(hop_index) != 0;
              });
              if (aborted) return Status::OK();
              auto it = ready_handoffs.find(hop_index);
              payload = std::move(it->second);
              ready_handoffs.erase(it);
            }
            ++result.handoff_hops;
            result.handoff_objects += payload.objects.size();
            std::vector<std::uint8_t> bytes;
            EncodeHandoff(payload, &bytes);
            SPIRE_RETURN_NOT_OK(SendFrame(conns[static_cast<std::size_t>(n)],
                                          FrameType::kHandoff, bytes));
          }
        }

        EpochWorkPayload work;
        work.epoch = epoch;
        for (int site : sites_of[static_cast<std::size_t>(n)]) {
          const serve::SiteWorkload& sw =
              workload.sites[static_cast<std::size_t>(site)];
          if (epoch < static_cast<Epoch>(sw.epochs.size())) {
            work.site_readings.emplace_back(
                static_cast<std::uint32_t>(site),
                sw.epochs[static_cast<std::size_t>(epoch)]);
          }
        }
        auto departing = departures_at.find(epoch);
        if (departing != departures_at.end()) {
          for (std::size_t hop_index : departing->second) {
            const TransferHop& hop = hops[hop_index];
            if (NodeOfSite(hop.from_site, num_nodes) != n) continue;
            CaptureOrder order;
            order.hop = hop_index;
            order.from_site = static_cast<std::uint32_t>(hop.from_site);
            order.to_site = static_cast<std::uint32_t>(hop.to_site);
            order.arrive_epoch = hop.arrive_epoch;
            order.objects = hop.objects;
            work.captures.push_back(std::move(order));
          }
        }
        std::vector<std::uint8_t> bytes;
        EncodeEpochWork(work, &bytes);
        SPIRE_RETURN_NOT_OK(SendFrame(conns[static_cast<std::size_t>(n)],
                                      FrameType::kEpochWork, bytes));
      }
    }
    for (int n = 0; n < num_nodes; ++n) {
      EpochWorkPayload work;
      work.epoch = workload.num_epochs;
      work.finish = true;
      std::vector<std::uint8_t> bytes;
      EncodeEpochWork(work, &bytes);
      SPIRE_RETURN_NOT_OK(SendFrame(conns[static_cast<std::size_t>(n)],
                                    FrameType::kEpochWork, bytes));
    }
    return Status::OK();
  };

  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(num_nodes));
  for (int n = 0; n < num_nodes; ++n) {
    // Send each node its site assignment before any reader can fail the
    // run, so nodes never wait on a Hello that was aborted away.
    HelloPayload hello;
    hello.node_id = static_cast<std::uint32_t>(n);
    for (int site : sites_of[static_cast<std::size_t>(n)]) {
      hello.sites.push_back(static_cast<std::uint32_t>(site));
    }
    hello.steady_now_micros = SteadyNowMicros();
    hello.stats_interval_epochs = options.stats_interval_epochs;
    std::vector<std::uint8_t> bytes;
    EncodeHello(hello, &bytes);
    Status status = SendFrame(conns[static_cast<std::size_t>(n)],
                              FrameType::kHello, bytes);
    if (!status.ok()) {
      fail(std::move(status));
      break;
    }
  }
  for (int n = 0; n < num_nodes; ++n) {
    threads.emplace_back(reader, n);
  }
  std::thread feeder([&] {
    Status status = feed();
    if (!status.ok()) fail(std::move(status));
  });

  serve::EventMerger merger;
  Status drain = merger.Drain(queue_ptrs, &result.events);
  if (!drain.ok()) fail(drain);

  feeder.join();
  for (std::thread& thread : threads) thread.join();

  {
    std::lock_guard<std::mutex> lock(mu);
    result.status = aborted ? error : Status::OK();
  }
  if (!result.status.ok()) result.events.clear();
  return result;
}

}  // namespace spire::dist
