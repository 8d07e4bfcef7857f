// Multi-site serving workload.
//
// A "site" is one reader deployment running its own full SPIRE pipeline
// (Cao et al.: containment and location inference only couple objects seen
// by the same deployment, so sites are independently processable). A
// Workload is the set of sites plus their raw epoch streams over a common
// global epoch axis.
//
// Sites are authored independently (separate simulations, traces, fuzz
// seeds), so their tag ids and dense location ids collide across sites.
// NormalizeWorkload rewrites both id spaces to be globally disjoint:
//
//   * tags: the site index is planted in the top 6 bits of the EPC
//     company-prefix field (site 0 is the identity mapping), preserving
//     the packaging level the graph layers key on;
//   * locations: site i's dense location ids are shifted by the total
//     location count of sites 0..i-1 — applied to OUTPUT events, not to
//     readings, since readings address readers, which stay site-local.
//
// After normalization the merged output stream is well-formed as a whole:
// per-object event sequences never interleave across sites.
#pragma once

#include <string>
#include <vector>

#include "common/epc.h"
#include "common/status.h"
#include "common/types.h"
#include "compress/event.h"
#include "stream/reader.h"
#include "stream/reading.h"

namespace spire::serve {

/// Hard cap on sites per workload (the kEpcSiteBits of the company-prefix
/// field).
inline constexpr int kMaxSites = kEpcMaxSites;

/// One reader deployment and its raw epoch stream.
struct SiteWorkload {
  std::string name;
  ReaderRegistry registry;
  /// epochs[e] holds the site's raw readings of global epoch e. Shorter
  /// sites are fed empty epochs up to the workload horizon.
  std::vector<EpochReadings> epochs;
  std::size_t total_readings = 0;
  /// Set by NormalizeWorkload: added to every output event's location id.
  LocationId location_offset = 0;
};

/// A full serving input: sites plus the common epoch horizon.
struct Workload {
  std::vector<SiteWorkload> sites;
  /// Epoch horizon: every site's pipeline runs epochs [0, num_epochs).
  /// Set by NormalizeWorkload to the longest site stream.
  Epoch num_epochs = 0;
};

/// Rewrites tag ids in-place and assigns location offsets so the sites'
/// id spaces are globally disjoint (see file comment); also computes
/// num_epochs and per-site reading totals. Fails when there are more than
/// kMaxSites sites, a company prefix already uses the site bits, or the
/// combined location spaces overflow LocationId.
Status NormalizeWorkload(Workload* workload);

/// The site-normalized form of `tag` for site index `site` (identity for
/// site 0). Exposed for tests and offline tools.
ObjectId NormalizeTag(int site, ObjectId tag);

/// Shifts a site's output events into the global location space: adds
/// `offset` (its SiteWorkload::location_offset) to every known location.
void RemapLocations(LocationId offset, EventStream* events);

}  // namespace spire::serve
