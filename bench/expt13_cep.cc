// Expt 13 (beyond the paper): complex-event pattern detection over the
// compressed stream (src/cep, DESIGN.md §11).
//
// One level-2 warehouse trace is archived and replayed through
// ArchiveReader; the full built-in pattern library then runs under both
// evaluators:
//   - interval: CompressedLog + EvaluateCompressed — per-step feasible
//     interval sets straight off the compressed events, suppressed-child
//     regions replayed lazily per ancestor cluster;
//   - naive: EventLog::Build(decompress=true) + EvaluateNaive — the
//     reference per-epoch NFA simulation over the fully decompressed view.
// The two match sets must be identical (the binary exits nonzero on any
// divergence); the report tracks the per-replay wall clock of each side,
// their ratio (`speedup_naive_over_interval`, the headline number), event
// and pattern throughput, and how little of the stream the interval side
// actually touches. A final section scans three 20%-of-epochs archive
// ranges and detects over each restricted replay.
//
//   ./expt13_cep [full=true] [reps=N] [key=value ...]
#include <chrono>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "cep/compressed_log.h"
#include "cep/library.h"
#include "cep/nfa.h"
#include "eval/table.h"
#include "query/event_log.h"
#include "sim/simulator.h"
#include "store/archive_reader.h"
#include "store/archive_writer.h"

using namespace spire;
using namespace spire::bench;

namespace {

double Seconds(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

void Check(const Status& status, const char* what) {
  if (!status.ok()) {
    std::fprintf(stderr, "%s: %s\n", what, status.ToString().c_str());
    std::exit(1);
  }
}

}  // namespace

int main(int argc, char** argv) {
  const Options args = ParseSimArgs(
      argc, argv,
      {BoolOption("full", false), IntOption("reps", 3, 1, INT_MAX)});
  const int reps = static_cast<int>(args.Int("reps"));
  SimConfig base = SweepConfig(args.Bool("full"));
  base.theft_interval = 300;  // Missing events so `theft` & co. fire.
  base = ApplySimOverrides(args, base);

  PrintHeader("Expt 13: pattern detection on the compressed stream",
              "beyond the paper; cep/ subsystem (DESIGN.md §11)");

  // --- Trace + archive replay ----------------------------------------------
  auto sim = WarehouseSimulator::Create(base);
  if (!sim.ok()) {
    std::fprintf(stderr, "simulator: %s\n", sim.status().ToString().c_str());
    return 1;
  }
  WarehouseSimulator& s = *sim.value();
  PipelineOptions pipeline_options;
  pipeline_options.level = CompressionLevel::kLevel2;
  SpirePipeline pipeline(&s.registry(), pipeline_options);
  EventStream events;
  while (!s.Done()) {
    EpochReadings readings = s.Step();
    pipeline.ProcessEpoch(s.current_epoch(), std::move(readings), &events);
  }
  pipeline.Finish(s.current_epoch() + 1, &events);

  const std::string archive_path =
      std::filesystem::temp_directory_path().string() + "/expt13_cep.sparc";
  std::error_code ec;
  std::filesystem::remove(archive_path, ec);
  std::filesystem::remove(IndexPathFor(archive_path), ec);
  {
    auto writer = ArchiveWriter::Open(archive_path, ArchiveOptions{});
    Check(writer.status(), "archive open");
    Check(writer.value()->Append(events), "archive append");
    Check(writer.value()->Close(), "archive close");
  }
  auto reader = ArchiveReader::Open(archive_path);
  Check(reader.status(), "archive reader open");
  auto scanned = reader.value().ScanAll();
  Check(scanned.status(), "archive scan");
  if (scanned.value() != events) {
    std::fprintf(stderr, "archive replay diverged from the live stream\n");
    return 1;
  }
  const EventStream& replay = scanned.value();
  const cep::EvalBounds bounds = cep::BoundsOf(replay);
  const double n = static_cast<double>(replay.size());
  std::printf("trace: %zu compressed events over epochs [%lld, %lld]; "
              "library: %zu patterns; reps=%d\n\n",
              replay.size(), static_cast<long long>(bounds.lo),
              static_cast<long long>(bounds.hi),
              cep::BuiltinLibrary().size(), reps);

  // --- Compile the library -------------------------------------------------
  std::vector<cep::CompiledPattern> compiled;
  for (const cep::Pattern& pattern : cep::BuiltinLibrary()) {
    auto result = cep::Compile(pattern, &s.registry());
    if (!result.ok()) {
      std::fprintf(stderr, "compile %s: %s\n", pattern.name.c_str(),
                   result.status().ToString().c_str());
      return 1;
    }
    compiled.push_back(std::move(result).value());
  }

  // --- Timed detection: interval vs naive, identical match sets ------------
  const std::size_t k = compiled.size();
  double interval_build_s = 0.0, naive_build_s = 0.0;
  std::vector<double> interval_pat_s(k, 0.0), naive_pat_s(k, 0.0);
  std::vector<std::vector<cep::Match>> interval_matches(k), naive_matches(k);
  double replayed_fraction = 0.0;
  for (int rep = 0; rep < reps; ++rep) {
    auto t0 = std::chrono::steady_clock::now();
    auto log = cep::CompressedLog::Build(replay);
    Check(log.status(), "CompressedLog::Build");
    interval_build_s += Seconds(t0);
    for (std::size_t i = 0; i < k; ++i) {
      t0 = std::chrono::steady_clock::now();
      auto matches = cep::EvaluateCompressed(compiled[i], &log.value(), bounds);
      interval_pat_s[i] += Seconds(t0);
      if (rep == 0) interval_matches[i] = std::move(matches);
    }
    if (rep == 0 && !replay.empty()) {
      replayed_fraction = static_cast<double>(log.value().replayed_events()) /
                          static_cast<double>(replay.size());
    }

    t0 = std::chrono::steady_clock::now();
    auto naive_log = EventLog::Build(replay, /*decompress=*/true);
    Check(naive_log.status(), "EventLog::Build");
    naive_build_s += Seconds(t0);
    for (std::size_t i = 0; i < k; ++i) {
      t0 = std::chrono::steady_clock::now();
      auto matches = cep::EvaluateNaive(compiled[i], naive_log.value(), bounds);
      naive_pat_s[i] += Seconds(t0);
      if (rep == 0) naive_matches[i] = std::move(matches);
    }
  }
  std::size_t total_matches = 0;
  for (std::size_t i = 0; i < k; ++i) {
    std::string diff =
        cep::DiffMatchSets(interval_matches[i], naive_matches[i],
                           "interval(compressed)", "naive(decompressed)");
    if (!diff.empty()) {
      std::fprintf(stderr, "%s: evaluator divergence: %s\n",
                   compiled[i].name.c_str(), diff.c_str());
      return 1;
    }
    total_matches += interval_matches[i].size();
  }

  const double r = static_cast<double>(reps);
  double interval_eval_s = 0.0, naive_eval_s = 0.0;
  TextTable table({"pattern", "matches", "interval ms", "naive ms", "x"});
  for (std::size_t i = 0; i < k; ++i) {
    interval_eval_s += interval_pat_s[i];
    naive_eval_s += naive_pat_s[i];
    table.AddRow({compiled[i].name, std::to_string(interval_matches[i].size()),
                  TextTable::Num(interval_pat_s[i] / r * 1e3, 2),
                  TextTable::Num(naive_pat_s[i] / r * 1e3, 2),
                  TextTable::Num(naive_pat_s[i] /
                                     std::max(interval_pat_s[i], 1e-9),
                                 1)});
  }
  table.Print();

  const double interval_s = (interval_build_s + interval_eval_s) / r;
  const double naive_s = (naive_build_s + naive_eval_s) / r;
  const double speedup = naive_s / std::max(interval_s, 1e-12);
  std::printf("\nper replay: interval %.2f ms (build %.2f + eval %.2f), "
              "naive %.2f ms (build %.2f + eval %.2f) -> %.1fx\n",
              interval_s * 1e3, interval_build_s / r * 1e3,
              interval_eval_s / r * 1e3, naive_s * 1e3, naive_build_s / r * 1e3,
              naive_eval_s / r * 1e3, speedup);
  std::printf("cluster replays pushed %.2fx the stream's events (overlapping "
              "ancestor closures); %zu matches per replay (identical sets)\n",
              replayed_fraction, total_matches);
  if (speedup < 2.0) {
    std::fprintf(stderr,
                 "speedup %.2fx below the 2x floor the interval evaluator is "
                 "designed to clear\n",
                 speedup);
    return 1;
  }

  // --- Range scans: detection over archive segments ------------------------
  const Epoch span = bounds.hi - bounds.lo;
  double range_s = 0.0;
  std::size_t range_events = 0, range_matches = 0, range_blocks = 0;
  const int kWindows = 3;
  for (int w = 0; w < kWindows; ++w) {
    const Epoch lo = bounds.lo + span * (10 + 30 * w) / 100;
    const Epoch hi = lo + span * 20 / 100;
    range_blocks += reader.value().BlocksInRange(lo, hi);
    auto t0 = std::chrono::steady_clock::now();
    auto ranged = reader.value().ScanRange(lo, hi);
    Check(ranged.status(), "range scan");
    EventStream segment = RepairRestrictedStream(ranged.value());
    auto log = cep::CompressedLog::Build(segment);
    Check(log.status(), "segment CompressedLog::Build");
    const cep::EvalBounds clamped{lo, hi};
    for (const cep::CompiledPattern& pattern : compiled) {
      range_matches +=
          cep::EvaluateCompressed(pattern, &log.value(), clamped).size();
    }
    range_s += Seconds(t0);
    range_events += segment.size();
  }
  std::printf("\narchive range detection: %d windows of 20%% of epochs, "
              "%zu blocks decoded, %zu events, %zu matches, %.2f ms total\n",
              kWindows, range_blocks, range_events, range_matches,
              range_s * 1e3);

  BenchReport report("cep");
  report.Add("events", n);
  report.Add("patterns", static_cast<double>(k));
  report.Add("total_matches", static_cast<double>(total_matches));
  report.Add("interval_seconds", interval_s);
  report.Add("naive_seconds", naive_s);
  report.Add("speedup_naive_over_interval", speedup);
  report.Add("interval_events_per_second", n / std::max(interval_s, 1e-12));
  report.Add("interval_patterns_per_second",
             static_cast<double>(k) / std::max(interval_s, 1e-12));
  report.Add("replayed_event_fraction", replayed_fraction);
  report.Add("range_scan_seconds", range_s);
  report.Add("range_matches", static_cast<double>(range_matches));
  Check(report.Write(), "report write");

  std::filesystem::remove(archive_path, ec);
  std::filesystem::remove(IndexPathFor(archive_path), ec);
  return 0;
}
