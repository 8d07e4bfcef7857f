#include "measure.h"

#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <numeric>
#include <sstream>
#include <stdexcept>
#include <string>

namespace perfbench {

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double h = static_cast<double>(values.size() - 1) * q;
  const std::size_t lo = static_cast<std::size_t>(std::floor(h));
  if (lo + 1 >= values.size()) return values.back();
  return values[lo] + (h - static_cast<double>(lo)) *
                          (values[lo + 1] - values[lo]);
}

double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

namespace {

/// Lower edge of histogram bucket `b`.
double BucketFloor(int b) {
  return LatencyHistogram::kMinUs *
         std::pow(10.0, static_cast<double>(b) /
                            LatencyHistogram::kBucketsPerDecade);
}

}  // namespace

void LatencyHistogram::Add(double us) {
  const double position =
      us > kMinUs ? std::log10(us / kMinUs) * kBucketsPerDecade : 0.0;
  const int b = static_cast<int>(
      std::min(position, static_cast<double>(kBuckets - 1)));
  ++counts_[static_cast<std::size_t>(b)];
  ++count_;
  sum_us_ += us;
}

void LatencyHistogram::Merge(const LatencyHistogram& other) {
  for (std::size_t b = 0; b < counts_.size(); ++b) {
    counts_[b] += other.counts_[b];
  }
  count_ += other.count_;
  sum_us_ += other.sum_us_;
}

double LatencyHistogram::Quantile(double q) const {
  if (count_ == 0) return 0.0;
  const double rank = q * static_cast<double>(count_);
  double below = 0.0;
  for (int b = 0; b < kBuckets; ++b) {
    const double in = static_cast<double>(counts_[static_cast<std::size_t>(b)]);
    if (in > 0.0 && below + in >= rank) {
      const double lo = BucketFloor(b);
      return lo + (BucketFloor(b + 1) - lo) * (rank - below) / in;
    }
    below += in;
  }
  return BucketFloor(kBuckets);
}

std::size_t SamplesBeyond(std::size_t n, double percentile) {
  // The epsilon keeps n * 99.9 / 100 == 9990 from rounding up to 9991.
  const double rank =
      std::ceil(static_cast<double>(n) * percentile / 100.0 - 1e-9);
  return n - std::min(n, static_cast<std::size_t>(std::max(0.0, rank)));
}

bool Tail::supported() const { return beyond >= kMinBeyond; }

Tail TailLatency(const LatencyHistogram& samples, double percentile) {
  Tail tail;
  tail.percentile = percentile;
  tail.samples = samples.count();
  tail.beyond = SamplesBeyond(tail.samples, percentile);
  tail.value = samples.Quantile(percentile / 100.0);
  return tail;
}

std::vector<double> SelfTimes(const std::vector<Span>& spans) {
  std::vector<double> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) self[i] = spans[i].dur_us;
  std::vector<std::size_t> order(spans.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  // Parents sort before the children they contain: same thread, earlier
  // start, and on a tied start the longer span first.
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    const Span& x = spans[a];
    const Span& y = spans[b];
    if (x.tid != y.tid) return x.tid < y.tid;
    if (x.start_us != y.start_us) return x.start_us < y.start_us;
    if (x.dur_us != y.dur_us) return x.dur_us > y.dur_us;
    return a < b;
  });
  std::vector<std::size_t> stack;  // The open ancestors of the next span.
  for (std::size_t i : order) {
    const Span& span = spans[i];
    while (!stack.empty()) {
      const Span& top = spans[stack.back()];
      if (top.tid == span.tid && span.start_us < top.end_us()) break;
      stack.pop_back();
    }
    if (!stack.empty()) {
      const std::size_t parent = stack.back();
      const double covered =
          std::min(span.end_us(), spans[parent].end_us()) - span.start_us;
      self[parent] -= std::max(0.0, covered);
    }
    stack.push_back(i);
  }
  return self;
}

double ProcessCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) +
           static_cast<double>(t.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double CpuUsPerOp(double cpu_start_s, double cpu_end_s, std::uint64_t ops) {
  if (ops == 0) return 0.0;
  return (cpu_end_s - cpu_start_s) * 1e6 / static_cast<double>(ops);
}

double HostStealSeconds() {
  std::ifstream stat("/proc/stat");
  std::string label;
  double steal = 0.0;
  // cpu user nice system idle iowait irq softirq steal ...
  if (!(stat >> label) || label != "cpu") return 0.0;
  for (int field = 1; field <= 8; ++field) {
    if (!(stat >> steal)) return 0.0;
  }
  return steal / static_cast<double>(sysconf(_SC_CLK_TCK));
}

void ResetPeakRss() {
  malloc_trim(0);
  std::ofstream clear_refs("/proc/self/clear_refs");
  clear_refs << "5";
  clear_refs.flush();
  if (!clear_refs) {
    throw std::runtime_error("cannot reset the peak-RSS mark through "
                             "/proc/self/clear_refs");
  }
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kib = 0.0;
      fields >> kib;
      return kib / 1024.0;
    }
  }
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

namespace {

/// The items (chunks or set-ups) in which the host stole at most the
/// median share of wall time.
template <typename T>
std::vector<const T*> QuietHalf(const std::vector<T>& items) {
  std::vector<double> shares;
  for (const T& item : items) shares.push_back(item.steal_s / item.wall_s);
  const double quiet = Median(shares);
  std::vector<const T*> kept;
  for (const T& item : items) {
    if (item.steal_s / item.wall_s <= quiet) kept.push_back(&item);
  }
  return kept;
}

}  // namespace

double SetupSeconds(const std::vector<SetupTime>& setups) {
  std::vector<double> wall_s;
  for (const SetupTime* setup : QuietHalf(setups)) {
    wall_s.push_back(setup->wall_s);
  }
  return Median(wall_s);
}

WindowStats Summarize(const std::vector<Chunk>& chunks,
                      double tail_percentile) {
  WindowStats stats;
  stats.chunks = chunks.size();
  std::vector<double> rates, costs;
  LatencyHistogram latency;
  for (const Chunk* chunk : QuietHalf(chunks)) {
    const Chunk& c = *chunk;
    ++stats.chunks_used;
    rates.push_back(static_cast<double>(c.ops) / c.wall_s);
    costs.push_back(CpuUsPerOp(0.0, c.cpu_s, c.ops));
    latency.Merge(c.latency_us);
  }
  stats.ops_per_s = Median(rates);
  stats.cpu_us_per_op = Median(costs);
  stats.latency_p50_us = latency.Quantile(0.5);
  stats.tail = TailLatency(latency, tail_percentile);
  return stats;
}

}  // namespace perfbench
