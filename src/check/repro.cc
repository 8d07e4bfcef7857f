#include "check/repro.h"

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "common/config.h"

namespace spire {

namespace {

std::string Line(const char* key, bool value) {
  return std::string(key) + " = " + (value ? "true" : "false");
}

std::string Line(const char* key, double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%s = %.17g", key, value);
  return buffer;
}

template <typename Int>
std::string Line(const char* key, Int value) {
  return std::string(key) + " = " + std::to_string(value);
}

}  // namespace

std::vector<std::string> SerializeRepro(const FuzzCase& fuzz_case,
                                        const OracleFailure* failure) {
  std::vector<std::string> lines;
  lines.push_back("# spire_fuzz repro — replay with: spire_fuzz --replay "
                  "<this file>");
  if (failure != nullptr) {
    lines.push_back("# oracle: " + failure->oracle);
    std::istringstream detail(failure->detail);
    std::string detail_line;
    while (std::getline(detail, detail_line)) {
      lines.push_back("#   " + detail_line);
    }
  }
#define SPIRE_LINE(field) lines.push_back(Line(#field, fuzz_case.sim.field));
  SPIRE_SIM_FIELDS(SPIRE_LINE)
#undef SPIRE_LINE
  lines.push_back(Line("max_epochs", fuzz_case.max_epochs));
  if (!fuzz_case.excluded_tags.empty()) {
    std::ostringstream tags;
    tags << "exclude_tags = ";
    for (std::size_t i = 0; i < fuzz_case.excluded_tags.size(); ++i) {
      if (i > 0) tags << ",";
      char buffer[32];
      std::snprintf(buffer, sizeof buffer, "0x%" PRIx64,
                    fuzz_case.excluded_tags[i]);
      tags << buffer;
    }
    lines.push_back(tags.str());
  }
  return lines;
}

Result<FuzzCase> ParseRepro(const std::vector<std::string>& lines) {
  auto config = Config::FromLines(lines);
  if (!config.ok()) return config.status();
  std::vector<OptionSpec> table = SimConfig::Keys();
  table.push_back(IntOption("max_epochs", 0));
  table.push_back(StringOption("exclude_tags"));
  auto options = Options::Parse(table, config.value());
  if (!options.ok()) return options.status();
  FuzzCase out;
  auto sim = SimConfig::FromOptions(options.value(), SimConfig());
  if (!sim.ok()) return sim.status();
  out.sim = sim.value();
  out.max_epochs = options.value().Int("max_epochs");
  std::istringstream list(options.value().String("exclude_tags"));
  std::string token;
  while (std::getline(list, token, ',')) {
    if (token.empty()) continue;
    char* end = nullptr;
    const std::uint64_t id = std::strtoull(token.c_str(), &end, 0);
    if (end == nullptr || *end != '\0') {
      return Status::InvalidArgument("bad exclude_tags entry: " + token);
    }
    out.excluded_tags.push_back(id);
  }
  return out;
}

Status WriteReproFile(const std::string& path, const FuzzCase& fuzz_case,
                      const OracleFailure* failure) {
  std::ofstream out(path);
  if (!out) return Status::NotFound("cannot open for writing: " + path);
  for (const std::string& line : SerializeRepro(fuzz_case, failure)) {
    out << line << "\n";
  }
  return out.good() ? Status::OK() : Status::Internal("write failed: " + path);
}

Result<FuzzCase> LoadReproFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::NotFound("cannot open: " + path);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return ParseRepro(lines);
}

}  // namespace spire
