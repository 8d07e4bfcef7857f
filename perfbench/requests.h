// The query_hot request generator: all six tracking-query kinds, with
// Zipf-skewed object popularity and recency-skewed epochs — a few hot
// pallets are asked about over and over, and most questions concern the
// recent past.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/types.h"

namespace perfbench {

enum class QueryKind {
  kLocationAt,
  kContainerAt,
  kContentsAt,
  kObjectsAt,
  kTrajectoryOf,
  kIsMissingAt,
};
inline constexpr int kNumQueryKinds = 6;

const char* QueryKindName(QueryKind kind);

struct Request {
  QueryKind kind = QueryKind::kLocationAt;
  /// ObjectId; a container for kContentsAt, a LocationId for kObjectsAt.
  std::uint64_t id = 0;
  spire::Epoch epoch = 0;
  bool operator==(const Request&) const = default;
};

/// What the archive holds: the keys and the epoch range requests draw from.
struct RequestUniverse {
  std::vector<spire::ObjectId> objects;
  std::vector<spire::ObjectId> containers;
  std::vector<spire::LocationId> locations;
  spire::Epoch lo = 0;
  spire::Epoch hi = 0;
};

/// The six kinds are drawn uniformly, as in the repository's own mixed
/// query workloads (bench/expt15_query, `spire_cli queryserve`). Object
/// and container popularity follows Zipf(kZipfExponent) over a
/// seed-shuffled order of each key list, so the hot keys differ across
/// seeds; locations are drawn uniformly, as in those mixes. The epoch is
/// hi - floor((hi - lo) * u^kRecencyPower) for uniform u: most requests
/// ask about the recent past. kZipfExponent is YCSB's default Zipfian
/// constant (Cooper et al., SoCC 2010); kRecencyPower is assumed, not
/// measured from traffic. The same seed gives the same requests. Every key
/// list must be non-empty.
inline constexpr double kZipfExponent = 0.99;
inline constexpr double kRecencyPower = 3.0;
std::vector<Request> GenerateRequests(const RequestUniverse& universe,
                                      std::size_t count, std::uint64_t seed);

}  // namespace perfbench
