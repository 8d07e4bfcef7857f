#include "serve/workload.h"

#include <algorithm>

#include "common/epc.h"

namespace spire::serve {

ObjectId NormalizeTag(int site, ObjectId tag) {
  return PlantEpcSite(site, tag);
}

Status NormalizeWorkload(Workload* workload) {
  if (workload->sites.empty()) {
    return Status::InvalidArgument("workload has no sites");
  }
  if (workload->sites.size() > static_cast<std::size_t>(kMaxSites)) {
    return Status::InvalidArgument(
        "workload has " + std::to_string(workload->sites.size()) +
        " sites; the tag id space fits " + std::to_string(kMaxSites));
  }

  Epoch horizon = 0;
  std::size_t next_location = 0;
  for (std::size_t site = 0; site < workload->sites.size(); ++site) {
    SiteWorkload& s = workload->sites[site];
    horizon = std::max(horizon, static_cast<Epoch>(s.epochs.size()));

    s.location_offset = static_cast<LocationId>(next_location);
    next_location += s.registry.num_locations();
    // kUnknownLocation must stay representable and unshifted.
    if (next_location >= kUnknownLocation) {
      return Status::OutOfRange(
          "combined location spaces overflow LocationId at site " +
          std::to_string(site));
    }

    s.total_readings = 0;
    for (EpochReadings& epoch : s.epochs) {
      s.total_readings += epoch.size();
      for (RfidReading& reading : epoch) {
        if (DecodeEpc(reading.tag).company_prefix > kEpcSitePrefixMask) {
          return Status::InvalidArgument(
              "site " + std::to_string(site) +
              ": company prefix already uses the site bits");
        }
        reading.tag = NormalizeTag(static_cast<int>(site), reading.tag);
      }
    }
  }
  workload->num_epochs = horizon;
  return Status::OK();
}

void RemapLocations(LocationId offset, EventStream* events) {
  if (offset == 0) return;
  for (Event& event : *events) {
    if (event.location != kUnknownLocation) {
      event.location = static_cast<LocationId>(event.location + offset);
    }
  }
}

}  // namespace spire::serve
