// Shared trace-runner for the experiment-reproduction benches.
//
// Each bench binary sweeps parameters, calls RunSpireTrace / RunSmurfTrace,
// and prints the same rows/series the paper's table or figure reports.
#pragma once

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

#include "eval/accuracy.h"
#include "eval/delay.h"
#include "eval/event_accuracy.h"
#include "sim/sim_config.h"
#include "sim/simulator.h"
#include "smurf/smurf.h"
#include "spire/pipeline.h"

namespace spire::bench {

/// What to run and how to score it.
struct RunOptions {
  SimConfig sim;
  PipelineOptions pipeline;
  /// Accuracy is sampled at complete-inference epochs >= this epoch
  /// (excludes the cold-start window).
  Epoch eval_start = 0;
  /// When set, RunSpireTrace copies the output stream / the simulated
  /// thefts out (expt4's pattern-agreement check needs both).
  EventStream* capture_output = nullptr;
  std::vector<Theft>* capture_thefts = nullptr;
};

/// Everything the experiment reports might need from one trace.
struct RunMetrics {
  AccuracyStats accuracy;
  std::size_t raw_readings = 0;
  std::size_t output_events = 0;
  std::size_t location_messages = 0;
  std::size_t containment_messages = 0;
  /// Output bytes / raw bytes, full stream and location-only restriction.
  double ratio = 0.0;
  double location_ratio = 0.0;
  /// Event accuracy of the (decompressed, entry-stripped) stream.
  EventAccuracy f_all;
  EventAccuracy f_location;
  /// Anomaly detection.
  DelayStats delay;
  /// Costs.
  double update_seconds = 0.0;
  double inference_seconds = 0.0;
  std::size_t epochs = 0;
  /// Graph footprint.
  std::size_t peak_nodes = 0;
  std::size_t peak_memory_bytes = 0;
  std::size_t final_edges = 0;
};

/// Runs the full SPIRE pipeline over a simulated trace.
RunMetrics RunSpireTrace(const RunOptions& options);

/// Runs the SMURF baseline (location events only, level-1 compression).
RunMetrics RunSmurfTrace(const SimConfig& sim, SmurfOptions smurf = {});

/// The paper's default accuracy-experiment workload (Section VI-B): 6
/// pallets/hour, 5 cases each, 20 items per case, 1-hour shelving, 3-hour
/// trace, read rate 0.85, shelf readers once per minute.
SimConfig PaperAccuracyConfig();

/// The paper's output-experiment workload (Section VI-D): 16-hour trace
/// with a steady-state object population. `full` uses the full 16 hours;
/// otherwise a 6-hour version runs by default.
SimConfig PaperOutputConfig(bool full);

/// Parameter-sweep workload: `full` is the paper scale
/// (PaperAccuracyConfig); the default is a 45-minute miniature that keeps
/// the same structure so whole sweeps finish in seconds.
SimConfig SweepConfig(bool full);

/// Standard bench banner.
void PrintHeader(const std::string& title, const std::string& paper_ref);

/// Machine-readable bench results: a flat name -> number map written as
/// `BENCH_<name>.json` into $SPIRE_BENCH_DIR (default: the working
/// directory), so the perf trajectory is trackable across PRs. Write()
/// stamps the process's peak RSS as `peak_rss_bytes` (bytes on every
/// platform — see PeakRssBytes) and the machine's hardware-thread count as
/// `hardware_threads` automatically.
class BenchReport {
 public:
  explicit BenchReport(std::string name);

  /// Records one metric; later adds of the same key append in order
  /// (keys should be unique — the JSON is an object).
  void Add(const std::string& key, double value);

  /// The flat JSON object.
  std::string ToJson() const;

  /// Writes `BENCH_<name>.json`; also prints the path on stdout.
  Status Write() const;

  /// Destination path of Write().
  std::string path() const;

 private:
  std::string name_;
  std::vector<std::pair<std::string, double>> metrics_;
};

/// Peak resident set size of this process in bytes (0 when unavailable).
/// getrusage's ru_maxrss is kilobytes on Linux and bytes on macOS; this
/// helper normalizes both to bytes.
std::size_t PeakRssBytes();

}  // namespace spire::bench
