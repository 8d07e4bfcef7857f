// Front ends for distributed runs over a multi-site transfer trace, plus
// the serial reference every distributed execution must match byte for
// byte (the distributed_equivalence oracle).
#pragma once

#include <vector>

#include "common/status.h"
#include "compress/event.h"
#include "dist/coordinator.h"
#include "serve/workload.h"
#include "sim/transfer.h"
#include "spire/pipeline.h"

namespace spire::dist {

/// A transfer trace as a serving workload: site i's registry and epoch
/// stream with cumulative location offsets. Tags are already globally
/// disjoint (the trace generator plants the site index in the EPC company
/// prefix), so this bypasses serve::NormalizeWorkload — it would reject
/// the pre-sited tag spaces. Fails when the combined location id spaces
/// overflow LocationId.
Result<serve::Workload> ToWorkload(const TransferTrace& trace);

/// The serial reference: one pipeline per site, epochs advanced in
/// (epoch, site) order with handoffs captured and spliced in memory at
/// their schedule epochs. Output events are remapped into the global
/// location space and concatenated in (epoch, site) order — the stream
/// every distributed run reproduces exactly, for any node count. With no
/// hops this is the plain per-site serial run (`spire_cli serve`); for a
/// one-site workload, exactly the single-pipeline run.
EventStream RunDistReference(const serve::Workload& workload,
                             const std::vector<TransferHop>& hops,
                             const PipelineOptions& options);

/// Runs coordinator plus `options.num_nodes` node threads over loopback
/// connections in this process (deterministic, TSan-clean). The node
/// count is clamped to [1, site count].
DistResult RunDistLoopback(const serve::Workload& workload,
                           const std::vector<TransferHop>& hops,
                           DistOptions options);

/// Runs each node in a forked child process over a socketpair (the
/// coordinator stays in this process). Fork happens before any
/// coordinator thread starts. Not for sanitizer builds that dislike
/// fork-with-threads; node counts are clamped as in RunDistLoopback.
DistResult RunDistProcesses(const serve::Workload& workload,
                            const std::vector<TransferHop>& hops,
                            DistOptions options);

}  // namespace spire::dist
