#include "requests.h"

#include <algorithm>
#include <cmath>

#include "common/random.h"

namespace perfbench {

namespace {

/// Draws indexes into a key list with Zipf popularity over a shuffled
/// order of that list.
class ZipfPicker {
 public:
  ZipfPicker(std::size_t n, spire::Pcg32& rng) : order_(n), cdf_(n) {
    for (std::size_t i = 0; i < n; ++i) order_[i] = i;
    for (std::size_t i = n; i > 1; --i) {
      std::swap(order_[i - 1],
                order_[rng.NextBounded(static_cast<std::uint32_t>(i))]);
    }
    double sum = 0.0;
    for (std::size_t rank = 0; rank < n; ++rank) {
      sum += 1.0 / std::pow(static_cast<double>(rank + 1), kZipfExponent);
      cdf_[rank] = sum;
    }
    for (double& c : cdf_) c /= sum;
  }

  std::size_t Pick(spire::Pcg32& rng) const {
    const double u = rng.NextDouble();
    const std::size_t rank = static_cast<std::size_t>(
        std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
    return order_[std::min(rank, order_.size() - 1)];
  }

 private:
  std::vector<std::size_t> order_;
  std::vector<double> cdf_;
};

}  // namespace

const char* QueryKindName(QueryKind kind) {
  switch (kind) {
    case QueryKind::kLocationAt: return "location_at";
    case QueryKind::kContainerAt: return "container_at";
    case QueryKind::kContentsAt: return "contents_at";
    case QueryKind::kObjectsAt: return "objects_at";
    case QueryKind::kTrajectoryOf: return "trajectory_of";
    case QueryKind::kIsMissingAt: return "is_missing_at";
  }
  return "?";
}

std::vector<Request> GenerateRequests(const RequestUniverse& universe,
                                      std::size_t count, std::uint64_t seed) {
  spire::Pcg32 rng(seed, /*stream=*/0x9e3779b97f4a7c15ULL);
  const ZipfPicker objects(universe.objects.size(), rng);
  const ZipfPicker containers(universe.containers.size(), rng);
  const double span = static_cast<double>(universe.hi - universe.lo);

  std::vector<Request> requests;
  requests.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    Request request;
    request.kind = static_cast<QueryKind>(rng.NextBounded(kNumQueryKinds));
    switch (request.kind) {
      case QueryKind::kContentsAt:
        request.id = universe.containers[containers.Pick(rng)];
        break;
      case QueryKind::kObjectsAt:
        request.id = universe.locations[rng.NextBounded(
            static_cast<std::uint32_t>(universe.locations.size()))];
        break;
      default:
        request.id = universe.objects[objects.Pick(rng)];
        break;
    }
    const double back =
        std::floor(span * std::pow(rng.NextDouble(), kRecencyPower));
    request.epoch = universe.hi - static_cast<spire::Epoch>(back);
    requests.push_back(request);
  }
  return requests;
}

}  // namespace perfbench
