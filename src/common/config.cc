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

const std::string& Config::Text(const std::string& key) const {
  static const std::string kAbsent;
  auto it = values_.find(key);
  return it == values_.end() ? kAbsent : it->second;
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

Result<OptionValue> ParseOptionValue(const OptionSpec& spec,
                                     const std::string& text) {
  const std::string& key = spec.name;
  const char* begin = text.c_str();
  char* end = nullptr;
  errno = 0;
  if (std::holds_alternative<std::int64_t>(spec.default_value)) {
    const long long parsed = std::strtoll(begin, &end, 10);
    const bool overflow = errno == ERANGE;
    if (end == begin || *end != '\0') {
      return Status::InvalidArgument("config key '" + key +
                                     "' is not an integer: " + text);
    }
    if (parsed < spec.min || (overflow && parsed < 0)) {
      return Status::InvalidArgument("config key '" + key + "' must be >= " +
                                     std::to_string(spec.min) + ", got " +
                                     text);
    }
    if (parsed > spec.max || overflow) {
      return Status::InvalidArgument("config key '" + key + "' must be <= " +
                                     std::to_string(spec.max) + ", got " +
                                     text);
    }
    return OptionValue(static_cast<std::int64_t>(parsed));
  }
  if (std::holds_alternative<double>(spec.default_value)) {
    const double parsed = std::strtod(begin, &end);
    if (end == begin || *end != '\0' || errno == ERANGE) {
      return Status::InvalidArgument("config key '" + key +
                                     "' is not a number: " + text);
    }
    return OptionValue(parsed);
  }
  if (std::holds_alternative<bool>(spec.default_value)) {
    std::string v = text;
    std::transform(v.begin(), v.end(), v.begin(),
                   [](unsigned char c) { return std::tolower(c); });
    const bool yes = v == "true" || v == "1" || v == "yes" || v == "on";
    if (yes || v == "false" || v == "0" || v == "no" || v == "off") {
      return OptionValue(yes);
    }
    return Status::InvalidArgument("config key '" + key +
                                   "' is not a boolean: " + text);
  }
  const auto& choices = spec.choices;
  if (!choices.empty() &&
      std::find(choices.begin(), choices.end(), text) == choices.end()) {
    std::string allowed = choices.front();
    for (std::size_t i = 1; i < choices.size(); ++i) {
      allowed += (i + 1 < choices.size() ? ", " : " or ") + choices[i];
    }
    return Status::InvalidArgument(key + " must be " + allowed + ", got '" +
                                   text + "'");
  }
  return OptionValue(text);
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
    if (given.Has(spec.name)) {
      auto value = ParseOptionValue(spec, given.Text(spec.name));
      if (!value.ok()) return value.status();
      options.values_[spec.name] = std::move(value).value();
    } else if (spec.required) {
      return Status::InvalidArgument("missing key '" + spec.name + "'");
    }
  }
  return options;
}

}  // namespace spire
