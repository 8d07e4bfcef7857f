// The node side of the distributed serving protocol: one process (or
// thread) hosting the full SPIRE pipelines of the sites it owns, fed raw
// readings over a Conn and returning handoffs and one EpochResult per
// epoch. See dist/coordinator.h for the other side and DESIGN.md §12
// for the protocol.
#pragma once

#include <vector>

#include "common/status.h"
#include "dist/transport.h"
#include "serve/workload.h"
#include "spire/pipeline.h"

namespace spire::dist {

/// Configuration of one node.
struct NodeConfig {
  int node_id = 0;
  /// Global site indexes this node owns, ascending.
  std::vector<int> sites;
  /// The full workload — the node reads only its own sites' registries and
  /// location offsets; raw readings arrive over the wire. Must outlive the
  /// run.
  const serve::Workload* workload = nullptr;
  PipelineOptions pipeline;
};

/// Serves one node over `conn` until the finish EpochResult: Hello
/// exchange, then per EpochWork, for every owned site in ascending order —
/// implant the stashed handoffs arriving at (site, epoch), stage the
/// epoch's capture orders, and process the epoch. The epoch's captured
/// Handoff frames go out first, then the StatsReport when the cadence is
/// due, then one EpochResult carrying every site's events: the epoch's
/// last frame and its barrier. A finish EpochWork flushes every pipeline
/// through the same path and ends the run. Returns the first protocol or
/// transport error.
Status RunDistNode(const NodeConfig& config, Conn* conn);

}  // namespace spire::dist
