// The SPIRE benchmark: one workload, one seed, one measured window.
//
//   spire_perfbench --workload <ingest_large|ingest_churn|query_hot|
//                   sites_fleet> --seed <n> --seconds <s> --trace <0|1>
//                   --tmp <scratch dir>
//
// Prints every metric with its unit, a `context` line (hardware threads,
// workload threads, seed, window length, tail percentile), and as the last
// line one JSON object {"correct","attempted","failed","metrics"}: the
// end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
// Exits non-zero when any correctness gate failed.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "workloads.h"

namespace {

using perfbench::Args;
using perfbench::Report;

struct MetricName {
  const char* name;
  const char* unit;
};

// The metric lists of BENCHMARK.json, in its order.
constexpr MetricName kEndToEnd[] = {
    {"setup_s", "s"},
    {"throughput_per_s", "1/s"},
    {"latency_p50_us", "us"},
    {"latency_tail_us", "us"},
    {"cpu_us_per_op", "us"},
    {"peak_rss_mb", "MB"},
    {"archive_bytes_per_reading", "B"},
    {"event_f1", "ratio"},
};

constexpr MetricName kPerLayer[] = {
    {"stream.smooth_us_per_epoch", "us"},
    {"graph.update_us_per_epoch", "us"},
    {"inference.conflict_us_per_epoch", "us"},
    {"store.append_us_per_epoch", "us"},
    {"inference.partial_us_p50", "us"},
    {"compress.us_per_epoch", "us"},
    {"inference.complete_us_p50", "us"},
    {"inference.waves_per_complete", "count"},
    {"graph.live_nodes", "count"},
    {"graph.edges", "count"},
    {"compress.events_per_reading", "ratio"},
    {"store.bytes_per_event", "B"},
    {"store.open_ms", "ms"},
    {"store.decode_us_per_block", "us"},
    {"query.cache_hit_ratio", "ratio"},
    {"query.blocks_decoded_per_query", "count"},
    {"query.objects_at_us_p50", "us"},
    {"query.location_at_us_p50", "us"},
    {"query.container_at_us_p50", "us"},
    {"query.contents_at_us_p50", "us"},
    {"query.trajectory_of_us_p50", "us"},
    {"query.is_missing_at_us_p50", "us"},
    {"dist.frames_per_epoch", "count"},
    {"dist.bytes_per_epoch", "B"},
    {"dist.barrier_waits_per_epoch", "count"},
    {"dist.speedup_vs_reference", "x"},
    {"dist.handoff_objects", "count"},
    {"pipeline.stage_residual_pct", "%"},
    {"obs.trace_overhead_ratio", "x"},
};

[[noreturn]] void Usage(const std::string& problem) {
  std::fprintf(stderr,
               "%s\nusage: spire_perfbench --workload <ingest_large|"
               "ingest_churn|query_hot|sites_fleet> --seed <n> --seconds <s> "
               "--trace <0|1> --tmp <dir>\n",
               problem.c_str());
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) Usage("missing value for " + key);
    const std::string value = argv[++i];
    try {
      if (key == "--workload") {
        args.workload = value;
      } else if (key == "--seed") {
        args.seed = std::stoull(value);
      } else if (key == "--seconds") {
        args.seconds = std::stod(value);
      } else if (key == "--trace") {
        if (value != "0" && value != "1") Usage("--trace takes 0 or 1");
        args.trace = value == "1";
      } else if (key == "--tmp") {
        args.tmp_dir = value;
      } else {
        Usage("unknown argument " + key);
      }
    } catch (const std::exception&) {
      Usage("bad value for " + key + ": " + value);
    }
  }
  if (args.workload.empty() || args.tmp_dir.empty()) {
    Usage("--workload and --tmp are required");
  }
  if (!(args.seconds >= 1.0 && args.seconds <= 600.0)) {
    Usage("--seconds must lie in [1, 600]");
  }
  return args;
}

std::string JsonString(const std::string& text) {
  std::string out = "\"";
  for (char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  Report report;
  try {
    std::filesystem::create_directories(args.tmp_dir);
    if (args.workload == "ingest_large") {
      report = perfbench::RunIngestLarge(args);
    } else if (args.workload == "ingest_churn") {
      report = perfbench::RunIngestChurn(args);
    } else if (args.workload == "query_hot") {
      report = perfbench::RunQueryHot(args);
    } else if (args.workload == "sites_fleet") {
      report = perfbench::RunSitesFleet(args);
    } else {
      Usage("unknown workload " + args.workload);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s: %s\n", args.workload.c_str(), e.what());
    return 1;
  }

  // Layers a workload leaves idle report 0 (e.g. every ingest stage on
  // query_hot); every end-to-end metric must have been measured.
  std::string metrics_json;
  for (const MetricName& metric : args.trace ? std::vector<MetricName>(
                                                   std::begin(kPerLayer),
                                                   std::end(kPerLayer))
                                             : std::vector<MetricName>(
                                                   std::begin(kEndToEnd),
                                                   std::end(kEndToEnd))) {
    auto it = report.metrics.find(metric.name);
    double value = 0.0;
    if (it != report.metrics.end()) {
      value = it->second;
    } else if (!args.trace) {
      report.Fail(1, std::string("metric not measured: ") + metric.name);
    }
    if (!std::isfinite(value)) {
      report.Fail(1, std::string("metric is not finite: ") + metric.name);
      value = 0.0;
    }
    std::printf("%-34s %16.6f %s\n", metric.name, value, metric.unit);
    char entry[160];
    std::snprintf(entry, sizeof(entry),
                  "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  metrics_json.empty() ? "" : ", ", metric.name, value,
                  metric.unit);
    metrics_json += entry;
  }
  for (const std::string& note : report.notes) {
    std::printf("%s\n", note.c_str());
  }

  std::string context = "{\"workload\": " + JsonString(args.workload) +
                        ", \"seed\": " + std::to_string(args.seed) +
                        ", \"trace\": " + (args.trace ? "1" : "0") +
                        ", \"hardware_threads\": " +
                        std::to_string(std::thread::hardware_concurrency());
  for (const auto& [key, value] : report.context) {
    context += ", " + JsonString(key) + ": " + JsonString(value);
  }
  std::printf("context %s}\n", context.c_str());
  if (report.attempted == 0) {
    report.attempted = 1;
    report.Fail(1, "no operation was attempted");
  }
  for (const std::string& failure : report.failures) {
    std::fprintf(stderr, "FAILED: %s\n", failure.c_str());
  }
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {%s}}\n",
      report.failed == 0 ? "true" : "false",
      static_cast<unsigned long long>(report.attempted),
      static_cast<unsigned long long>(report.failed), metrics_json.c_str());
  return report.failed == 0 ? 0 : 1;
}
