#include <sched.h>

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <sstream>
#include <stdexcept>

#include "obs/json.h"
#include "obs/registry.h"
#include "obs/trace.h"
#include "store/segment.h"
#include "workloads.h"

namespace perfbench {

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void TraceSession::Start() {
  spire::obs::Registry::Global().Reset();
  spire::obs::SetEnabled(true);
  const spire::Status status = spire::obs::Tracer::Global().Start(path_);
  if (!status.ok()) throw std::runtime_error(status.ToString());
}

std::vector<Span> TraceSession::Finish() {
  spire::obs::Tracer& tracer = spire::obs::Tracer::Global();
  const std::string json = tracer.ToJson();
  const spire::Status stopped = tracer.Stop();
  spire::obs::SetEnabled(false);
  std::error_code ec;
  std::filesystem::remove(path_, ec);
  if (!stopped.ok()) throw std::runtime_error(stopped.ToString());

  auto parsed = spire::obs::ParseJson(json);
  if (!parsed.ok()) throw std::runtime_error(parsed.status().ToString());
  const spire::obs::JsonValue* events = parsed.value().Find("traceEvents");
  if (events == nullptr) throw std::runtime_error("trace has no traceEvents");
  std::vector<Span> spans;
  spans.reserve(events->array.size());
  for (const spire::obs::JsonValue& event : events->array) {
    const spire::obs::JsonValue* phase = event.Find("ph");
    if (phase == nullptr || phase->text != "X") continue;
    Span span;
    span.name = event.Find("cat")->text + "/" + event.Find("name")->text;
    span.tid = std::stoi(event.Find("tid")->text);
    span.start_us = std::stod(event.Find("ts")->text);
    span.dur_us = std::stod(event.Find("dur")->text);
    if (const spire::obs::JsonValue* args = event.Find("args")) {
      if (const spire::obs::JsonValue* epoch = args->Find("epoch")) {
        span.epoch = std::stoll(epoch->text);
      }
    }
    spans.push_back(std::move(span));
  }
  return spans;
}

StageLedger PipelineLedger(const std::vector<Span>& spans) {
  const std::vector<double> self = SelfTimes(spans);
  StageLedger ledger;
  double epoch_self_us = 0.0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const std::string& name = spans[i].name;
    if (name.rfind("pipeline/", 0) != 0 && name != "inference/wave") continue;
    ledger.total_us[name] += spans[i].dur_us;
    if (name == "pipeline/epoch") {
      ++ledger.epochs;
      ledger.epoch_us += spans[i].dur_us;
      epoch_self_us += self[i];
    }
  }
  if (ledger.epoch_us > 0.0) {
    ledger.residual_pct = 100.0 * epoch_self_us / ledger.epoch_us;
  }
  return ledger;
}

void ReportStages(const StageLedger& ledger, bool check_ledger,
                  Report* report) {
  auto per_epoch = [&](const char* stage) {
    if (ledger.epochs == 0) return 0.0;
    auto it = ledger.total_us.find(stage);
    return it == ledger.total_us.end()
               ? 0.0
               : it->second / static_cast<double>(ledger.epochs);
  };
  report->Set("stream.smooth_us_per_epoch", per_epoch("pipeline/smooth"));
  report->Set("graph.update_us_per_epoch", per_epoch("pipeline/graph_update"));
  report->Set("inference.conflict_us_per_epoch",
              per_epoch("pipeline/conflict"));
  report->Set("store.append_us_per_epoch",
              per_epoch("pipeline/archive_append"));
  report->Set("compress.us_per_epoch", per_epoch("pipeline/compress"));
  report->Set("pipeline.stage_residual_pct", ledger.residual_pct);
  if (ledger.epochs == 0) {
    report->notes.push_back("stage breakdown: no pipeline epoch spans");
    return;
  }
  if (check_ledger && ledger.residual_pct > kMaxStageResidualPct) {
    char message[160];
    std::snprintf(message, sizeof(message),
                  "stage ledger: stage spans leave %.2f%% of the epoch time "
                  "uncovered (bound %.1f%%)",
                  ledger.residual_pct, kMaxStageResidualPct);
    report->Fail(1, message);
  }
  std::ostringstream note;
  note.precision(3);
  note << "stage breakdown (share of " << ledger.epochs << " epoch spans):";
  for (const char* stage : {"smooth", "graph_update", "inference", "conflict",
                            "compress", "archive_append"}) {
    note << " " << stage << " "
         << 100.0 * per_epoch(("pipeline/" + std::string(stage)).c_str()) *
                static_cast<double>(ledger.epochs) / ledger.epoch_us
         << "%";
  }
  note << " residual " << ledger.residual_pct << "%";
  report->notes.push_back(note.str());
}

std::string TailStamp(const Tail& tail, const char* samples) {
  char text[128];
  std::snprintf(text, sizeof(text), "p%g of %zu %s, %zu beyond%s",
                tail.percentile, tail.samples, samples, tail.beyond,
                tail.supported() ? "" : " (too few: not supported)");
  return text;
}

std::string KeptStamp(const WindowStats& stats, const std::string& chunk) {
  return std::to_string(stats.chunks_used) + " of " +
         std::to_string(stats.chunks) + " " + chunk +
         " kept, host steal <= median";
}

int PinToOneCpu() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) {
    throw std::runtime_error("sched_getaffinity failed");
  }
  int cpu = 0;
  while (cpu < CPU_SETSIZE && !CPU_ISSET(cpu, &allowed)) ++cpu;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  if (sched_setaffinity(0, sizeof(one), &one) != 0) {
    throw std::runtime_error("sched_setaffinity failed");
  }
  return cpu;
}

std::uint64_t ArchiveBytes(const std::string& segment_path) {
  std::uint64_t bytes = 0;
  for (const std::string& path :
       {segment_path, spire::IndexPathFor(segment_path)}) {
    std::error_code ec;
    const auto size = std::filesystem::file_size(path, ec);
    if (!ec) bytes += static_cast<std::uint64_t>(size);
  }
  return bytes;
}

void RemoveArchive(const std::string& segment_path) {
  std::error_code ec;
  std::filesystem::remove(segment_path, ec);
  std::filesystem::remove(spire::IndexPathFor(segment_path), ec);
}

void WriteArchive(const spire::EventStream& events,
                  const std::string& segment_path,
                  const spire::ArchiveOptions& options) {
  RemoveArchive(segment_path);
  auto writer = spire::ArchiveWriter::Open(segment_path, options);
  if (!writer.ok()) throw std::runtime_error(writer.status().ToString());
  spire::Status status = writer.value()->Append(events);
  if (status.ok()) status = writer.value()->Close();
  if (!status.ok()) throw std::runtime_error(status.ToString());
}

std::uint64_t FnvMix(std::uint64_t hash, std::uint64_t value) {
  return (hash ^ value) * 0x100000001b3ULL;
}

}  // namespace perfbench
