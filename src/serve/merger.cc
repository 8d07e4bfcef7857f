#include "serve/merger.h"

#include <algorithm>
#include <string>

#include "obs/registry.h"
#include "obs/trace.h"

namespace spire::serve {

namespace {

/// Global "serve" module aggregates.
struct GlobalInstruments {
  obs::Counter* epochs_merged;
  obs::Counter* events_out;
};

const GlobalInstruments* GetGlobalInstruments() {
  if (!obs::Enabled()) return nullptr;
  auto& registry = obs::Registry::Global();
  static const GlobalInstruments instruments{
      registry.GetCounter("serve", "epochs_merged"),
      registry.GetCounter("serve", "events_out"),
  };
  return &instruments;
}

}  // namespace

Status EventMerger::Drain(const std::vector<BoundedQueue<EpochResult>*>& queues,
                          EventStream* out) {
  if (queues.empty()) return Status::InvalidArgument("merger: no queues");

  std::vector<std::pair<std::uint32_t, EventStream>> round;
  for (Epoch epoch = 0;; ++epoch) {
    obs::ScopedSpan round_span("serve", "merge_round", epoch);
    round.clear();
    bool finish = false;
    for (std::size_t q = 0; q < queues.size(); ++q) {
      std::optional<EpochResult> result = [&] {
        obs::ScopedSpan span("serve", "merge_wait", epoch);
        return queues[q]->Pop();
      }();
      if (!result.has_value()) {
        return Status::Internal(
            "merger: queue " + std::to_string(q) +
            " closed before its finish result (epoch " +
            std::to_string(epoch) + ")");
      }
      if (result->epoch != epoch) {
        return Status::Internal(
            "merger: expected epoch " + std::to_string(epoch) +
            " from queue " + std::to_string(q) + ", got " +
            std::to_string(result->epoch));
      }
      // The finish round is uniform: every producer flushes at the same
      // epoch, so mixed rounds are a protocol violation.
      if (q == 0) {
        finish = result->finish;
      } else if (result->finish != finish) {
        return Status::Internal("merger: mixed finish round at epoch " +
                                std::to_string(epoch));
      }
      for (auto& site : result->site_events) round.push_back(std::move(site));
    }

    // The epoch barrier is complete: emit in ascending site order, each
    // site's events in its pipeline's emission order.
    std::sort(round.begin(), round.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    const std::size_t first = out->size();
    for (const auto& [site, events] : round) {
      out->insert(out->end(), events.begin(), events.end());
    }
    if (const GlobalInstruments* global = GetGlobalInstruments()) {
      global->events_out->Add(out->size() - first);
      if (!finish) global->epochs_merged->Add(1);
    }
    if (finish) break;
  }

  // After the finish round every queue must close cleanly.
  for (std::size_t q = 0; q < queues.size(); ++q) {
    if (queues[q]->Pop().has_value()) {
      return Status::Internal("merger: queue " + std::to_string(q) +
                              " delivered results past the finish round");
    }
  }
  return Status::OK();
}

}  // namespace spire::serve
