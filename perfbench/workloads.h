// The four workloads of the SPIRE benchmark and what one run reports.
// README.md explains why each workload exists and which metrics it moves.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/types.h"
#include "measure.h"
#include "store/archive_writer.h"

namespace perfbench {

/// Command-line arguments of one run.
struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  /// Length of the measured window.
  double seconds = 10.0;
  /// false: the untraced end-to-end run; true: the traced per-layer run.
  bool trace = false;
  /// Scratch directory for archives and trace files; emptied by the run.
  std::string tmp_dir;
};

/// One run's outcome. `metrics` holds whatever the workload measured; the
/// caller fills the metrics a workload does not exercise with 0, and owns
/// the units (main.cc, matching BENCHMARK.json).
struct Report {
  std::map<std::string, double> metrics;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;
  /// Stamps printed next to the result (threads, window, percentile, ...).
  std::vector<std::pair<std::string, std::string>> context;
  /// Human-readable breakdown lines of a traced run.
  std::vector<std::string> notes;

  void Set(const std::string& name, double value) { metrics[name] = value; }
  void Stamp(const std::string& key, const std::string& value) {
    context.emplace_back(key, value);
  }
  void Fail(std::uint64_t count, const std::string& message) {
    failed += count;
    failures.push_back(message);
  }
};

Report RunIngestLarge(const Args& args);
Report RunIngestChurn(const Args& args);
Report RunQueryHot(const Args& args);
Report RunSitesFleet(const Args& args);

// --- Shared by the workloads (common.cc) -----------------------------------

/// Seconds on the steady clock since an arbitrary origin.
double NowSeconds();

/// A trace session on the global obs::Tracer plus the obs registry, with
/// the spans handed back in memory. Start() resets the registry and turns
/// instruments on; Finish() turns them off again.
class TraceSession {
 public:
  explicit TraceSession(std::string path) : path_(std::move(path)) {}
  void Start();
  /// Stops the session and returns its complete ('X') spans, named
  /// "<category>/<name>". Removes the trace file.
  std::vector<Span> Finish();

 private:
  std::string path_;
};

/// Per-epoch costs of the in-pipeline stages from the spans ProcessEpoch
/// emits (category "pipeline": epoch, smooth, graph_update, inference,
/// conflict, compress, archive_append; "inference/wave" inside inference).
struct StageLedger {
  std::size_t epochs = 0;
  double epoch_us = 0.0;                     ///< Summed epoch span time.
  std::map<std::string, double> total_us;    ///< Summed span durations.
  /// Share of the epoch spans' time no stage span covers, in percent.
  double residual_pct = 0.0;
};
StageLedger PipelineLedger(const std::vector<Span>& spans);

/// The stated bound on StageLedger::residual_pct.
inline constexpr double kMaxStageResidualPct = 5.0;

/// Adds the stage per-layer metrics to `report`, plus a breakdown note of
/// each stage's share of the epoch time. With `check_ledger`, a residual
/// above kMaxStageResidualPct counts as one failed operation. Only epochs
/// of a millisecond or more can be held to it: every span's recorded
/// duration is truncated to whole microseconds, which alone leaves several
/// percent of a 50 us epoch uncovered.
void ReportStages(const StageLedger& ledger, bool check_ledger,
                  Report* report);

/// "p99 of 4100 epochs, 41 beyond": which percentile a tail is, on how
/// many samples; flagged when fewer than kMinBeyond lie beyond it.
std::string TailStamp(const Tail& tail, const char* samples);

/// "87 of 131 chunks of 120 epochs kept, host steal <= median": how many
/// chunks of a window Summarize() kept, of what size.
std::string KeptStamp(const WindowStats& stats, const std::string& chunk);

/// Restricts the calling thread, and every thread it starts later, to the
/// first CPU it may run on; returns that CPU. The multi-threaded workloads
/// call it first. On a shared VM a thread that blocks lets its vCPU halt,
/// and waking it across vCPUs costs whatever the host's scheduler makes
/// it: unpinned, one seed's sites_fleet replay throughput spread 50% (IQR
/// over 5 runs) as the threads' CPU share swung between 1.1 and 2.2, and
/// query_hot's request rate 39% over 10 seeds; pinned, 2-3% and ~7%.
int PinToOneCpu();

/// Bytes of an archive segment plus its `.spix` sidecar (missing files
/// count 0).
std::uint64_t ArchiveBytes(const std::string& segment_path);

/// Deletes an archive segment and its sidecar, where present.
void RemoveArchive(const std::string& segment_path);

/// Writes `events` as a fresh archive at `segment_path` (replacing any
/// earlier one) and closes it. Throws on any write error.
void WriteArchive(const spire::EventStream& events,
                  const std::string& segment_path,
                  const spire::ArchiveOptions& options = {});

/// One FNV-1a step: folds `value` into `hash`. Start from kFnvOffset. The
/// gates keep such hashes of outputs in place of the outputs themselves.
inline constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
std::uint64_t FnvMix(std::uint64_t hash, std::uint64_t value);

}  // namespace perfbench
