// EventMerger: epoch-barrier ordered merge of per-site event batches.
//
// Producers emit one SiteBatch per owned site per epoch, in ascending site
// order, through FIFO queues — so per queue, batches arrive ordered by
// (epoch, site). The merger forms the epoch barrier: it collects every
// site's batch for epoch e (blocking on the producer that is still
// working), concatenates them in ascending site order, and appends the
// result to the output stream before touching epoch e+1.
//
// The merged stream is therefore globally ordered by (epoch, site) with
// each site's intra-epoch emission order preserved — exactly the stream a
// serial per-site run produces, which is what makes the dist coordinator's
// output byte-identical across node counts (and to the single-threaded
// pipeline for a single site). Emission stays epoch-monotone, the property
// every downstream consumer (validator, decompressor, archive, src/check
// oracles) assumes.
#pragma once

#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "compress/event.h"
#include "serve/queue.h"

namespace spire::serve {

/// One site's output for one epoch (or its finish flush).
struct SiteBatch {
  Epoch epoch = kNeverEpoch;
  int site = -1;
  bool finish = false;
  EventStream events;
};

class EventMerger {
 public:
  /// Drains the output queues to completion: collects per-epoch barriers
  /// until the finish round and appends merged events to `out`.
  /// `batches_per_queue[q]` is the number of site batches queue q delivers
  /// per epoch (its producer's site count). Fails on a protocol violation —
  /// a queue closing before its finish batch or a batch for the wrong
  /// epoch.
  Status Drain(const std::vector<BoundedQueue<SiteBatch>*>& queues,
               const std::vector<std::size_t>& batches_per_queue,
               EventStream* out);
};

}  // namespace spire::serve
