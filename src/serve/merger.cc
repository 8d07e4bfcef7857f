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

Status EventMerger::Drain(const std::vector<BoundedQueue<SiteBatch>*>& queues,
                          const std::vector<std::size_t>& batches_per_queue,
                          EventStream* out) {
  if (queues.size() != batches_per_queue.size()) {
    return Status::InvalidArgument("merger: queue/site-count size mismatch");
  }

  std::vector<SiteBatch> round;
  for (Epoch epoch = 0;; ++epoch) {
    obs::ScopedSpan round_span("serve", "merge_round", epoch);
    round.clear();
    bool finish = false;
    bool first_batch = true;
    for (std::size_t q = 0; q < queues.size(); ++q) {
      for (std::size_t k = 0; k < batches_per_queue[q]; ++k) {
        std::optional<SiteBatch> batch = [&] {
          obs::ScopedSpan span("serve", "merge_wait", epoch);
          return queues[q]->Pop();
        }();
        if (!batch.has_value()) {
          return Status::Internal(
              "merger: queue " + std::to_string(q) +
              " closed before its finish batch (epoch " +
              std::to_string(epoch) + ")");
        }
        if (batch->epoch != epoch) {
          return Status::Internal(
              "merger: expected epoch " + std::to_string(epoch) +
              " from queue " + std::to_string(q) + ", got " +
              std::to_string(batch->epoch));
        }
        // The finish round is uniform: every producer flushes at the same
        // epoch, so mixed rounds are a protocol violation.
        if (first_batch) {
          finish = batch->finish;
          first_batch = false;
        } else if (batch->finish != finish) {
          return Status::Internal("merger: mixed finish round at epoch " +
                                  std::to_string(epoch));
        }
        round.push_back(std::move(*batch));
      }
    }

    // The epoch barrier is complete: emit in ascending site order, each
    // site's events in its pipeline's emission order.
    std::sort(round.begin(), round.end(),
              [](const SiteBatch& a, const SiteBatch& b) {
                return a.site < b.site;
              });
    const std::size_t first = out->size();
    for (SiteBatch& batch : round) {
      out->insert(out->end(), batch.events.begin(), batch.events.end());
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
                              " delivered batches past the finish round");
    }
  }
  return Status::OK();
}

}  // namespace spire::serve
