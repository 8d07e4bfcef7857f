#include "obs/explain.h"

#include <fstream>
#include <sstream>

namespace spire::obs {

std::string ExplainLog::ToJsonLine(const EventProvenance& record) {
  std::ostringstream out;
  out << "{\"kind\":\"event\",\"id\":" << record.id << ",\"type\":\""
      << record.type << "\",\"object\":" << record.object
      << ",\"location\":" << record.location
      << ",\"container\":" << record.container
      << ",\"start\":" << record.start << ",\"end\":" << record.end
      << ",\"epoch\":" << record.epoch << ",\"complete_inference\":"
      << (record.complete_inference ? "true" : "false")
      << ",\"inference_waves\":" << record.inference_waves
      << ",\"winner_posterior\":" << record.winner_posterior
      << ",\"runner_up_posterior\":" << record.runner_up_posterior
      << ",\"stage\":\"" << record.stage << "\"}";
  return out.str();
}

std::string ExplainLog::ToJsonLine(const SuppressionRecord& record) {
  std::ostringstream out;
  out << "{\"kind\":\"suppressed\",\"object\":" << record.object
      << ",\"epoch\":" << record.epoch
      << ",\"covering_container\":" << record.covering_container
      << ",\"reason\":\"" << record.reason << "\"}";
  return out.str();
}

std::string ExplainLog::ToJsonLine(const MatchRecord& record) {
  std::ostringstream out;
  out << "{\"kind\":\"match\",\"pattern\":\"" << record.pattern
      << "\",\"binding\":{";
  for (std::size_t i = 0; i < record.binding.size(); ++i) {
    out << (i > 0 ? "," : "") << "\"";
    if (i < record.variables.size()) {
      out << record.variables[i];
    } else {
      out << "v" << i;
    }
    out << "\":" << record.binding[i];
  }
  out << "},\"step_epochs\":[";
  for (std::size_t i = 0; i < record.step_epochs.size(); ++i) {
    out << (i > 0 ? "," : "") << record.step_epochs[i];
  }
  out << "],\"completion\":" << record.completion << ",\"event_ids\":[";
  for (std::size_t i = 0; i < record.event_ids.size(); ++i) {
    out << (i > 0 ? "," : "") << record.event_ids[i];
  }
  out << "]}";
  return out.str();
}

Status ExplainLog::WriteJsonl(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return Status::NotFound("cannot open for writing: " + path);
  for (const EventProvenance& record : events_) {
    out << ToJsonLine(record) << "\n";
  }
  for (const SuppressionRecord& record : suppressions_) {
    out << ToJsonLine(record) << "\n";
  }
  for (const MatchRecord& record : matches_) {
    out << ToJsonLine(record) << "\n";
  }
  if (!out.good()) return Status::Internal("write failed: " + path);
  return Status::OK();
}

}  // namespace spire::obs
