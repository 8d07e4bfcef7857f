#include "common/config.h"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <sstream>

namespace spire {

namespace {

std::string Trim(const std::string& s) {
  std::size_t begin = 0;
  std::size_t end = s.size();
  while (begin < end && std::isspace(static_cast<unsigned char>(s[begin]))) {
    ++begin;
  }
  while (end > begin && std::isspace(static_cast<unsigned char>(s[end - 1]))) {
    --end;
  }
  return s.substr(begin, end - begin);
}

}  // namespace

Result<Config> Config::FromLines(const std::vector<std::string>& lines) {
  Config config;
  for (const std::string& raw : lines) {
    std::string line = Trim(raw);
    if (line.empty() || line[0] == '#') continue;
    std::size_t eq = line.find('=');
    if (eq == std::string::npos) {
      return Status::InvalidArgument("config line missing '=': " + line);
    }
    std::string key = Trim(line.substr(0, eq));
    std::string value = Trim(line.substr(eq + 1));
    if (key.empty()) {
      return Status::InvalidArgument("config line with empty key: " + line);
    }
    config.Set(key, value);
  }
  return config;
}

Result<Config> Config::FromArgs(int argc, const char* const* argv) {
  std::vector<std::string> lines;
  for (int i = 1; i < argc; ++i) {
    lines.emplace_back(argv[i]);
  }
  return FromLines(lines);
}

void Config::Set(const std::string& key, const std::string& value) {
  values_[key] = value;
}

bool Config::Has(const std::string& key) const {
  return values_.count(key) > 0;
}

Result<std::string> Config::GetString(const std::string& key,
                                      const std::string& fallback) const {
  auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  return it->second;
}

Result<std::int64_t> Config::GetInt(const std::string& key,
                                    std::int64_t fallback) const {
  auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  char* end = nullptr;
  const char* begin = it->second.c_str();
  errno = 0;
  long long parsed = std::strtoll(begin, &end, 10);
  if (end == begin || *end != '\0' || errno == ERANGE) {
    return Status::InvalidArgument("config key '" + key +
                                   "' is not an integer: " + it->second);
  }
  return static_cast<std::int64_t>(parsed);
}

Result<double> Config::GetDouble(const std::string& key,
                                 double fallback) const {
  auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  char* end = nullptr;
  const char* begin = it->second.c_str();
  errno = 0;
  double parsed = std::strtod(begin, &end);
  if (end == begin || *end != '\0' || errno == ERANGE) {
    return Status::InvalidArgument("config key '" + key +
                                   "' is not a number: " + it->second);
  }
  return parsed;
}

Result<bool> Config::GetBool(const std::string& key, bool fallback) const {
  auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  std::string v = it->second;
  std::transform(v.begin(), v.end(), v.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  if (v == "true" || v == "1" || v == "yes" || v == "on") return true;
  if (v == "false" || v == "0" || v == "no" || v == "off") return false;
  return Status::InvalidArgument("config key '" + key +
                                 "' is not a boolean: " + it->second);
}

std::vector<std::string> Config::Keys() const {
  std::vector<std::string> keys;
  keys.reserve(values_.size());
  for (const auto& [key, value] : values_) {
    keys.push_back(key);
  }
  return keys;
}

std::string FormatOption(const OptionSpec& spec) {
  if (spec.required) return spec.name + "=<required>";
  if (const auto* value = std::get_if<std::string>(&spec.default_value)) {
    std::string shown = *value;
    for (const std::string& choice : spec.choices) {
      if (choice != *value) shown += (shown.empty() ? "" : "|") + choice;
    }
    return spec.name + "=" + shown;
  }
  std::ostringstream text;
  text << std::boolalpha << spec.name << "=";
  std::visit([&text](const auto& value) { text << value; },
             spec.default_value);
  return text.str();
}

Result<Options> Options::Parse(const std::vector<OptionSpec>& table,
                               const Config& given) {
  Options options;
  options.given_ = given;
  for (const OptionSpec& spec : table) {
    if (!options.values_.emplace(spec.name, spec.default_value).second) {
      return Status::Internal("option '" + spec.name + "' declared twice");
    }
  }
  for (const std::string& key : given.Keys()) {
    if (options.values_.count(key) == 0) {
      return Status::InvalidArgument("unknown key '" + key + "'");
    }
  }
  for (const OptionSpec& spec : table) {
    const std::string& key = spec.name;
    const std::string text = given.GetString(key, "").value();
    OptionValue& value = options.values_[key];
    if (!given.Has(key)) {
      if (spec.required) {
        return Status::InvalidArgument("missing key '" + key + "'");
      }
    } else if (std::holds_alternative<std::string>(value)) {
      const auto& choices = spec.choices;
      if (!choices.empty() &&
          std::find(choices.begin(), choices.end(), text) == choices.end()) {
        std::string allowed = choices.front();
        for (std::size_t i = 1; i < choices.size(); ++i) {
          allowed += (i + 1 < choices.size() ? ", " : " or ") + choices[i];
        }
        return Status::InvalidArgument(key + " must be " + allowed +
                                       ", got '" + text + "'");
      }
      value = text;
    } else if (std::holds_alternative<std::int64_t>(value)) {
      auto parsed = given.GetInt(key, 0);
      if (!parsed.ok()) return parsed.status();
      if (parsed.value() < spec.min) {
        return Status::InvalidArgument("config key '" + key + "' must be >= " +
                                       std::to_string(spec.min) + ", got " +
                                       text);
      }
      value = parsed.value();
    } else if (std::holds_alternative<double>(value)) {
      auto parsed = given.GetDouble(key, 0.0);
      if (!parsed.ok()) return parsed.status();
      value = parsed.value();
    } else {
      auto parsed = given.GetBool(key, false);
      if (!parsed.ok()) return parsed.status();
      value = parsed.value();
    }
  }
  return options;
}

}  // namespace spire
