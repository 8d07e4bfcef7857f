#include "bench/bench_util.h"

#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <thread>

#include "compress/decompress.h"
#include "compress/well_formed.h"
#include "eval/size_accounting.h"
#include "sim/simulator.h"
#include "smurf/smurf_pipeline.h"

namespace spire::bench {

namespace {

/// Shared scoring of an output stream against a finished simulator.
void ScoreOutput(const EventStream& output, bool decompress,
                 const WarehouseSimulator& sim, RunMetrics* metrics) {
  metrics->raw_readings = sim.total_readings();
  metrics->output_events = output.size();
  metrics->location_messages = CountLocationMessages(output);
  metrics->containment_messages = CountContainmentMessages(output);
  metrics->ratio = CompressionRatio(output, sim.total_readings());
  metrics->location_ratio =
      CompressionRatio(metrics->location_messages, sim.total_readings());

  EventStream comparable = decompress
                               ? Decompressor::DecompressAll(output)
                               : output;
  comparable = StripLocationEvents(comparable, sim.layout().entry_door);
  EventStream truth =
      StripLocationEvents(sim.truth_events(), sim.layout().entry_door);
  metrics->f_all = CompareEventStreams(comparable, truth, EventClass::kAll);
  metrics->f_location =
      CompareEventStreams(comparable, truth, EventClass::kLocationOnly);
  metrics->delay = EvaluateDetectionDelay(sim.thefts(), output);
}

}  // namespace

RunMetrics RunSpireTrace(const RunOptions& options) {
  auto sim = WarehouseSimulator::Create(options.sim);
  if (!sim.ok()) {
    std::fprintf(stderr, "simulator: %s\n", sim.status().ToString().c_str());
    std::exit(1);
  }
  WarehouseSimulator& s = *sim.value();
  SpirePipeline pipeline(&s.registry(), options.pipeline);

  RunMetrics metrics;
  EventStream output;
  while (!s.Done()) {
    EpochReadings readings = s.Step();
    pipeline.ProcessEpoch(s.current_epoch(), std::move(readings), &output);
    if (pipeline.last_epoch_complete() &&
        s.current_epoch() >= options.eval_start) {
      metrics.accuracy += EvaluateEstimates(
          pipeline.last_result(), s.world(), s.layout().entry_door);
    }
    metrics.peak_nodes =
        std::max(metrics.peak_nodes, pipeline.graph().NumNodes());
    metrics.peak_memory_bytes =
        std::max(metrics.peak_memory_bytes, pipeline.graph().MemoryUsage());
  }
  pipeline.Finish(s.current_epoch() + 1, &output);
  s.FinishTruth();

  metrics.update_seconds = pipeline.total_costs().update_seconds;
  metrics.inference_seconds = pipeline.total_costs().inference_seconds;
  metrics.epochs = pipeline.epochs_processed();
  metrics.final_edges = pipeline.graph().NumEdges();
  ScoreOutput(output,
              options.pipeline.level == CompressionLevel::kLevel2, s,
              &metrics);
  if (options.capture_output != nullptr) *options.capture_output = output;
  if (options.capture_thefts != nullptr) *options.capture_thefts = s.thefts();
  return metrics;
}

RunMetrics RunSmurfTrace(const SimConfig& sim_config, SmurfOptions smurf) {
  auto sim = WarehouseSimulator::Create(sim_config);
  if (!sim.ok()) {
    std::fprintf(stderr, "simulator: %s\n", sim.status().ToString().c_str());
    std::exit(1);
  }
  WarehouseSimulator& s = *sim.value();
  SmurfPipeline pipeline(&s.registry(), smurf);

  RunMetrics metrics;
  EventStream output;
  while (!s.Done()) {
    EpochReadings readings = s.Step();
    pipeline.ProcessEpoch(s.current_epoch(), std::move(readings), &output);
  }
  pipeline.Finish(s.current_epoch() + 1, &output);
  s.FinishTruth();
  metrics.epochs = static_cast<std::size_t>(s.current_epoch() + 1);
  ScoreOutput(output, /*decompress=*/false, s, &metrics);
  return metrics;
}

SimConfig PaperAccuracyConfig() {
  SimConfig config;
  config.duration_epochs = 3 * 3600;
  config.pallet_interval = 600;  // 6 pallets per hour.
  config.min_cases_per_pallet = 5;
  config.max_cases_per_pallet = 5;
  config.items_per_case = 20;
  config.read_rate = 0.85;
  config.shelf_period = 60;
  config.mean_shelf_stay = 3600;
  return config;
}

SimConfig PaperOutputConfig(bool full) {
  SimConfig config = PaperAccuracyConfig();
  config.duration_epochs = (full ? 16 : 6) * 3600;
  config.pallet_interval = 300;
  config.mean_shelf_stay = 3600;
  return config;
}

SimConfig SweepConfig(bool full) {
  if (full) return PaperAccuracyConfig();
  SimConfig config = PaperAccuracyConfig();
  config.duration_epochs = 2700;
  config.pallet_interval = 300;
  config.items_per_case = 10;
  config.mean_shelf_stay = 900;
  return config;
}

void PrintHeader(const std::string& title, const std::string& paper_ref) {
  std::printf("=== %s ===\n", title.c_str());
  std::printf("reproduces: %s\n\n", paper_ref.c_str());
}

BenchReport::BenchReport(std::string name) : name_(std::move(name)) {}

void BenchReport::Add(const std::string& key, double value) {
  metrics_.emplace_back(key, value);
}

std::string BenchReport::ToJson() const {
  std::ostringstream out;
  out << "{\"bench\":\"" << name_ << "\"";
  for (const auto& [key, value] : metrics_) {
    out << ",\"" << key << "\":" << value;
  }
  out << ",\"peak_rss_bytes\":" << PeakRssBytes()
      << ",\"hardware_threads\":" << std::thread::hardware_concurrency()
      << "}";
  return out.str();
}

std::string BenchReport::path() const {
  const char* dir = std::getenv("SPIRE_BENCH_DIR");
  std::string prefix = dir != nullptr && dir[0] != '\0'
                           ? std::string(dir) + "/"
                           : std::string();
  return prefix + "BENCH_" + name_ + ".json";
}

Status BenchReport::Write() const {
  const std::string out_path = path();
  std::ofstream out(out_path);
  if (!out) return Status::NotFound("cannot open for writing: " + out_path);
  out << ToJson() << "\n";
  if (!out.good()) return Status::Internal("write failed: " + out_path);
  std::printf("wrote %s\n", out_path.c_str());
  return Status::OK();
}

std::size_t PeakRssBytes() {
  struct rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
  // ru_maxrss units differ by platform: Linux reports kilobytes, macOS
  // bytes. Normalize to bytes either way so `peak_rss_bytes` means what it
  // says in every BENCH_*.json.
#ifdef __APPLE__
  return static_cast<std::size_t>(usage.ru_maxrss);
#else
  return static_cast<std::size_t>(usage.ru_maxrss) * 1024;
#endif
}

}  // namespace spire::bench
