// Key=value options, parsed once against a declared table.
//
// `spire_cli`, the bench binaries and the examples take `key=value`
// command-line arguments; repro files hold one `key = value` pair per line
// ('#' comments). This mirrors the paper's "system configuration file" from
// which reader frequencies are obtained for the partial/complete inference
// schedule. A Config holds the given pairs as text; Options::Parse checks
// them against a table of OptionSpec entries and is the one place where
// option text becomes a typed value.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "common/status.h"

namespace spire {

/// The given `key = value` pairs, as text.
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

  /// The text given for `key`; empty when it was not given.
  const std::string& Text(const std::string& key) const;

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
  std::int64_t max = INT64_MAX;  ///< Integer keys: the largest allowed.
  /// Non-empty for an enum: the values allowed. An enum's empty default
  /// means "not given".
  std::vector<std::string> choices;
  bool required = false;  ///< A command line must give the key.
};

inline OptionSpec StringOption(std::string name, std::string value = "") {
  return {std::move(name), std::move(value), INT64_MIN, INT64_MAX, {}, false};
}
inline OptionSpec IntOption(std::string name, std::int64_t value,
                            std::int64_t min = INT64_MIN,
                            std::int64_t max = INT64_MAX) {
  return {std::move(name), value, min, max, {}, false};
}
/// An integer option bounded by the range of the integer type `Int`, as far
/// as an int64 reaches: a variable of that type holds any value it parses.
template <typename Int>
OptionSpec IntOptionOf(std::string name, Int value) {
  using Limits = std::numeric_limits<Int>;
  return IntOption(std::move(name), static_cast<std::int64_t>(value),
                   Limits::min(),
                   static_cast<std::int64_t>(
                       std::min<std::uint64_t>(Limits::max(), INT64_MAX)));
}
inline OptionSpec DoubleOption(std::string name, double value) {
  return {std::move(name), value, INT64_MIN, INT64_MAX, {}, false};
}
inline OptionSpec BoolOption(std::string name, bool value) {
  return {std::move(name), value, INT64_MIN, INT64_MAX, {}, false};
}
inline OptionSpec EnumOption(std::string name, std::string value,
                             std::vector<std::string> choices) {
  return {std::move(name), std::move(value), INT64_MIN, INT64_MAX,
          std::move(choices), false};
}

inline OptionSpec Required(OptionSpec spec) {
  spec.required = true;
  return spec;
}

/// `name=default` for usage text; an enum lists its choices, default first.
std::string FormatOption(const OptionSpec& spec);

/// `text` as a value of `spec`'s type: a base-10 integer within [min, max],
/// a number, a boolean (true/1/yes/on, false/0/no/off, any case) or, for an
/// enum, one of its choices. Fails with InvalidArgument naming the key.
Result<OptionValue> ParseOptionValue(const OptionSpec& spec,
                                     const std::string& text);

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
