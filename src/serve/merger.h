// EventMerger: epoch-barrier ordered merge of per-producer epoch results.
//
// Each producer (a dist node) emits one EpochResult per epoch through a
// FIFO queue, carrying the events of every site it owns — so per queue,
// results arrive ordered by epoch. The merger forms the epoch barrier: it
// pops one result per queue for epoch e (blocking on the producer that is
// still working), concatenates the sites' events in ascending site order,
// and appends them to the output stream before touching epoch e+1.
//
// The merged stream is therefore globally ordered by (epoch, site) with
// each site's intra-epoch emission order preserved — exactly the stream a
// serial per-site run produces, which is what makes the dist coordinator's
// output byte-identical across node counts (and to the single-threaded
// pipeline for a single site). Emission stays epoch-monotone, the property
// every downstream consumer (validator, decompressor, archive, src/check
// oracles) assumes.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "compress/event.h"
#include "serve/queue.h"

namespace spire::serve {

/// One producer's output for one epoch (or its finish flush): one
/// (site, events) entry per site it owns, ascending by site.
struct EpochResult {
  Epoch epoch = kNeverEpoch;
  bool finish = false;
  std::vector<std::pair<std::uint32_t, EventStream>> site_events;
};

class EventMerger {
 public:
  /// Drains the output queues to completion: pops one result per queue per
  /// epoch until the finish round and appends merged events to `out`.
  /// Fails on a protocol violation — a queue closing before its finish
  /// result, a result for the wrong epoch, or a mixed finish round.
  Status Drain(const std::vector<BoundedQueue<EpochResult>*>& queues,
               EventStream* out);
};

}  // namespace spire::serve
