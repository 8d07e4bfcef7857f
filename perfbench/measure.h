// Measurement helpers of the SPIRE benchmark: quantiles, a fixed-size
// latency histogram, the tail percentile rule, span self times, and process
// CPU, host steal and memory accounting. Mostly pure functions over plain
// samples, so tests/measure_test.cc can pin them down.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Quantile `q` in [0, 1] of `values`, linearly interpolated between the
/// closest ranks (the "type 7" estimator). 0 when `values` is empty.
double Quantile(std::vector<double> values, double q);
double Median(std::vector<double> values);

/// Latencies in logarithmic buckets, kBucketsPerDecade to a decade from
/// kMinUs to 10 s. Recording never allocates, so the memory a measured
/// window touches does not grow with the operations it completes. Values
/// outside the range land in the first or last bucket.
class LatencyHistogram {
 public:
  static constexpr double kMinUs = 0.1;
  static constexpr int kBucketsPerDecade = 100;  // Buckets ~2.3% wide.
  static constexpr int kBuckets = 8 * kBucketsPerDecade;

  void Add(double us);
  void Merge(const LatencyHistogram& other);
  std::uint64_t count() const { return count_; }
  double sum_us() const { return sum_us_; }
  /// Quantile `q` in [0, 1]: the value at rank q * count, interpolated
  /// linearly inside the bucket that holds it. 0 when empty.
  double Quantile(double q) const;

 private:
  std::array<std::uint32_t, kBuckets> counts_{};
  std::uint64_t count_ = 0;
  double sum_us_ = 0.0;
};

/// A tail percentile of a latency sample.
struct Tail {
  double percentile = 0.0;  ///< E.g. 99 for p99.
  double value = 0.0;
  std::size_t beyond = 0;   ///< Samples above the percentile's rank.
  std::size_t samples = 0;
  /// A percentile is only reported as measured when at least kMinBeyond
  /// samples lie beyond it.
  bool supported() const;
};

inline constexpr std::size_t kMinBeyond = 10;

/// Samples a percentile leaves above it: n - ceil(n * p / 100).
std::size_t SamplesBeyond(std::size_t n, double percentile);

/// The `percentile` of `samples`. Each workload fixes its percentile (the
/// highest that work, not host jitter, sets — README.md) and sizes its
/// window so the percentile is supported; a fixed percentile keeps the
/// metric's meaning the same from run to run.
Tail TailLatency(const LatencyHistogram& samples, double percentile);

/// One recorded span, in microseconds on one thread's timeline.
struct Span {
  std::string name;
  int tid = 0;
  double start_us = 0.0;
  double dur_us = 0.0;
  std::int64_t epoch = -1;
  double end_us() const { return start_us + dur_us; }
};

/// Self time of every span (same order as `spans`): its duration minus the
/// part of its interval that its direct children cover. A span is a child
/// of the innermost span on the same thread whose interval contains its
/// start, so siblings never overlap. A child is clipped to its parent's
/// interval: recorded times are truncated to whole microseconds, which can
/// make a child overrun its parent by one.
std::vector<double> SelfTimes(const std::vector<Span>& spans);

/// Process CPU time in seconds: user + system, summed over every thread of
/// the process (getrusage RUSAGE_SELF).
double ProcessCpuSeconds();

/// CPU microseconds per operation over a window bracketed by two
/// ProcessCpuSeconds() readings; 0 when no operation completed.
double CpuUsPerOp(double cpu_start_s, double cpu_end_s, std::uint64_t ops);

/// Steal time of the whole machine in seconds: the time the hypervisor
/// held back a runnable vCPU, summed over every vCPU (the `steal` column
/// of /proc/stat, in clock ticks). 0 where the kernel does not report it.
double HostStealSeconds();

/// Returns freed heap to the operating system and restarts the process's
/// peak-resident-set mark at its current resident set (/proc/self/
/// clear_refs), so the next PeakRssMb() covers only what ran in between.
/// Throws when the mark cannot be reset.
void ResetPeakRss();

/// Peak resident set of the process in MiB since the last ResetPeakRss()
/// (VmHWM of /proc/self/status).
double PeakRssMb();

/// One slice of a measured window: its wall and process CPU seconds, the
/// host steal it saw, the operations it completed, and the latencies of the
/// timed units in it (epochs, requests, or fleet replays).
struct Chunk {
  double wall_s = 0.0;
  double cpu_s = 0.0;
  double steal_s = 0.0;  ///< HostStealSeconds() over the slice.
  std::uint64_t ops = 0;
  LatencyHistogram latency_us;
};

/// The timing metrics of a window.
struct WindowStats {
  double ops_per_s = 0.0;      ///< Median chunk rate.
  double cpu_us_per_op = 0.0;  ///< Median chunk CPU cost per operation.
  double latency_p50_us = 0.0;
  Tail tail;
  std::size_t chunks_used = 0;
  std::size_t chunks = 0;
};

/// One timed set-up: its wall seconds and the host steal it saw
/// (HostStealSeconds() read just before and just after it).
struct SetupTime {
  double wall_s = 0.0;
  double steal_s = 0.0;
};

/// setup_s of a run: the median wall time of the set-ups in which the host
/// stole at most the median share of wall time, the rule Summarize()
/// applies to chunks.
double SetupSeconds(const std::vector<SetupTime>& setups);

/// Summarizes the quieter half of `chunks`: those in which the host stole
/// at most the median share of wall time (steal_s / wall_s). Steal is the
/// hypervisor's doing alone, so the selection cannot drop a chunk for time
/// the program itself spent blocked. Rates, CPU costs and latencies all
/// come from the kept chunks; the tail is taken at `tail_percentile`.
WindowStats Summarize(const std::vector<Chunk>& chunks,
                      double tail_percentile);

}  // namespace perfbench
