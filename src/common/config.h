// Tiny key=value configuration store.
//
// Bench binaries and examples accept `key=value` command-line overrides and
// optional config files with one `key = value` pair per line ('#' comments).
// This mirrors the paper's "system configuration file" from which reader
// frequencies are obtained for the partial/complete inference schedule.
// A command that accepts only declared keys checks its `key=value` pairs
// against a table of OptionSpec entries (Options::Parse).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "common/status.h"

namespace spire {

/// An ordered string-to-string map with typed accessors.
class Config {
 public:
  Config() = default;

  /// Parses `key = value` lines. Blank lines and lines starting with '#'
  /// are skipped. Later keys override earlier ones.
  static Result<Config> FromLines(const std::vector<std::string>& lines);

  /// Parses command-line style `key=value` tokens (argv[1..argc)). Tokens
  /// without '=' are rejected.
  static Result<Config> FromArgs(int argc, const char* const* argv);

  /// Sets or overwrites a key.
  void Set(const std::string& key, const std::string& value);

  bool Has(const std::string& key) const;

  /// Typed lookups returning `fallback` when the key is absent. Malformed
  /// or out-of-range values produce an error.
  Result<std::string> GetString(const std::string& key,
                                const std::string& fallback) const;
  Result<std::int64_t> GetInt(const std::string& key,
                              std::int64_t fallback) const;
  Result<double> GetDouble(const std::string& key, double fallback) const;
  Result<bool> GetBool(const std::string& key, bool fallback) const;

  /// All keys in insertion-independent (sorted) order.
  std::vector<std::string> Keys() const;

 private:
  std::map<std::string, std::string> values_;
};

/// A typed option value. String and enum keys hold text.
using OptionValue = std::variant<std::string, std::int64_t, double, bool>;

/// One declared key of an option table. Its type is its default's type.
struct OptionSpec {
  std::string name;
  OptionValue default_value;
  std::int64_t min = INT64_MIN;  ///< Integer keys: the smallest allowed.
  /// Non-empty for an enum: the values allowed. An enum's empty default
  /// means "not given".
  std::vector<std::string> choices;
  bool required = false;  ///< A command line must give the key.
};

inline OptionSpec StringOption(std::string name, std::string value = "") {
  return {std::move(name), std::move(value), INT64_MIN, {}, false};
}
inline OptionSpec IntOption(std::string name, std::int64_t value,
                            std::int64_t min = INT64_MIN) {
  return {std::move(name), value, min, {}, false};
}
inline OptionSpec DoubleOption(std::string name, double value) {
  return {std::move(name), value, INT64_MIN, {}, false};
}
inline OptionSpec BoolOption(std::string name, bool value) {
  return {std::move(name), value, INT64_MIN, {}, false};
}
inline OptionSpec EnumOption(std::string name, std::string value,
                             std::vector<std::string> choices) {
  return {std::move(name), std::move(value), INT64_MIN, std::move(choices),
          false};
}

inline OptionSpec Required(OptionSpec spec) {
  spec.required = true;
  return spec;
}

/// `name=default` for usage text; an enum lists its choices, default first.
std::string FormatOption(const OptionSpec& spec);

/// Key=value pairs checked against one option table: every given key is
/// declared, well-typed and in range, and every declared key reads its
/// default when not given. Reading an undeclared key, or reading a key as
/// the wrong type, is a programming error and throws.
class Options {
 public:
  /// Fails with InvalidArgument naming the first unknown, malformed,
  /// out-of-range or missing required key.
  static Result<Options> Parse(const std::vector<OptionSpec>& table,
                               const Config& given);

  /// Whether the key was given (rather than defaulted).
  bool Has(const std::string& key) const { return given_.Has(key); }
  /// The given pairs, as text.
  const Config& given() const { return given_; }

  const std::string& String(const std::string& key) const {
    return std::get<std::string>(values_.at(key));
  }
  std::int64_t Int(const std::string& key) const {
    return std::get<std::int64_t>(values_.at(key));
  }
  double Double(const std::string& key) const {
    return std::get<double>(values_.at(key));
  }
  bool Bool(const std::string& key) const {
    return std::get<bool>(values_.at(key));
  }

 private:
  Config given_;
  std::map<std::string, OptionValue> values_;
};

}  // namespace spire
