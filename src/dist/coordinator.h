// The coordinator side of the distributed serving protocol.
//
// The coordinator owns the raw workload and the transfer schedule. It
// feeds every node one EpochWork frame per epoch (flow-controlled by the
// nodes' EpochResult frames), routes captured Handoff frames from the
// departure node to the arrival node *before* that node's arrival epoch,
// and merges the returned EpochResult frames with serve::EventMerger — so
// the merged stream is byte-identical to a serial per-site run for any
// node count and transfer schedule. An EpochResult whose sites are not
// exactly the node's SitesOfNode fails the run with a named error.
//
// Deadlock freedom: a node emits all frames of epoch d (captured
// handoffs, then its EpochResult) before touching epoch d+1, hops depart
// strictly before they arrive, and the coordinator forwards a hop's
// handoff on the same FIFO connection ahead of the arrival epoch's work —
// so the handoff a node waits for is always already in flight.
#pragma once

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "compress/event.h"
#include "dist/transport.h"
#include "obs/registry.h"
#include "serve/workload.h"
#include "sim/transfer.h"
#include "spire/pipeline.h"

namespace spire::dist {

/// Node-count-independent site placement: site -> site mod num_nodes.
inline int NodeOfSite(int site, int num_nodes) { return site % num_nodes; }

/// The global site indexes node `node` owns (ascending).
std::vector<int> SitesOfNode(int node, int num_sites, int num_nodes);

/// Coordinator/run options.
struct DistOptions {
  int num_nodes = 2;
  /// Per-node flow-control window: epochs of work in flight beyond the
  /// node's last EpochResult.
  std::size_t inflight_epochs = 64;
  /// Stats cadence announced in the coordinator's Hello: nodes ship a
  /// StatsReport every N epochs plus a final one at shutdown (0 = never).
  std::uint32_t stats_interval_epochs = 0;
  PipelineOptions pipeline;
};

/// Outcome of one distributed run.
struct DistResult {
  Status status;
  /// The merged output stream, ordered by (epoch, site).
  EventStream events;
  /// Hops and objects routed through the coordinator.
  std::size_t handoff_hops = 0;
  std::size_t handoff_objects = 0;
  /// Latest StatsReport snapshot per node (indexed by node id); a node
  /// that never reported leaves an empty snapshot. Populated only when
  /// stats_interval_epochs > 0.
  std::vector<obs::RegistrySnapshot> node_stats;
};

/// Runs the coordinator over one connection per node; conns[n] talks to
/// the node owning SitesOfNode(n, ...). `workload` supplies the raw
/// readings and epoch horizon, `hops` the transfer schedule (hops are
/// forwarded in schedule order; hops arriving at or after the horizon are
/// captured but never delivered, exactly like the serial reference).
/// Blocks until every node finished or a protocol/transport error aborted
/// the run.
DistResult RunDistCoordinator(const serve::Workload& workload,
                              const std::vector<TransferHop>& hops,
                              const DistOptions& options,
                              const std::vector<Conn*>& conns);

}  // namespace spire::dist
