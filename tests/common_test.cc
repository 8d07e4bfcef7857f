// Unit tests for src/common: status/result, shift register, EPC codec,
// deterministic RNG, config parsing, and thread-safe logging.
#include <gtest/gtest.h>

#include <climits>
#include <cstdint>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/bitvector.h"
#include "common/config.h"
#include "common/epc.h"
#include "common/log.h"
#include "common/random.h"
#include "common/status.h"
#include "common/types.h"
#include "common/wire.h"

namespace spire {
namespace {

// ---------------------------------------------------------------- Status --

TEST(StatusTest, DefaultIsOk) {
  Status status;
  EXPECT_TRUE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kOk);
  EXPECT_EQ(status.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status status = Status::InvalidArgument("bad beta");
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(status.message(), "bad beta");
  EXPECT_EQ(status.ToString(), "InvalidArgument: bad beta");
}

TEST(StatusTest, AllConstructorsProduceDistinctCodes) {
  std::set<StatusCode> codes = {
      Status::InvalidArgument("x").code(), Status::NotFound("x").code(),
      Status::AlreadyExists("x").code(),   Status::OutOfRange("x").code(),
      Status::Corruption("x").code(),      Status::NotSupported("x").code(),
      Status::Internal("x").code(),
  };
  EXPECT_EQ(codes.size(), 7u);
}

TEST(ResultTest, HoldsValue) {
  Result<int> result = 42;
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value(), 42);
  EXPECT_EQ(result.value_or(7), 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> result = Status::NotFound("missing");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(result.value_or(7), 7);
}

TEST(ResultTest, MovesValueOut) {
  Result<std::string> result = std::string("payload");
  ASSERT_TRUE(result.ok());
  std::string moved = std::move(result).value();
  EXPECT_EQ(moved, "payload");
}

// --------------------------------------------------------- ShiftRegister --

TEST(ShiftRegisterTest, StartsEmpty) {
  ShiftRegister reg(8);
  EXPECT_TRUE(reg.empty());
  EXPECT_EQ(reg.size(), 0);
  EXPECT_EQ(reg.capacity(), 8);
  EXPECT_EQ(reg.PopCount(), 0);
}

TEST(ShiftRegisterTest, NewestIsIndexZero) {
  ShiftRegister reg(8);
  reg.Push(true);
  reg.Push(false);
  reg.Push(true);
  EXPECT_EQ(reg.size(), 3);
  EXPECT_TRUE(reg.Get(0));   // Most recent.
  EXPECT_FALSE(reg.Get(1));
  EXPECT_TRUE(reg.Get(2));   // Oldest.
  EXPECT_EQ(reg.PopCount(), 2);
}

TEST(ShiftRegisterTest, OldObservationsFallOffAtCapacity) {
  ShiftRegister reg(4);
  reg.Push(true);                          // Will fall off.
  for (int i = 0; i < 4; ++i) reg.Push(false);
  EXPECT_EQ(reg.size(), 4);
  EXPECT_EQ(reg.PopCount(), 0);
}

TEST(ShiftRegisterTest, SetNewestAmendsWithoutShift) {
  ShiftRegister reg(4);
  reg.Push(false);
  reg.SetNewest(true);
  EXPECT_EQ(reg.size(), 1);
  EXPECT_TRUE(reg.Get(0));
  reg.SetNewest(false);
  EXPECT_FALSE(reg.Get(0));
}

TEST(ShiftRegisterTest, PopCountMasksBeyondSize) {
  ShiftRegister reg(8);
  reg.Push(true);
  EXPECT_EQ(reg.PopCount(), 1);
  reg.Push(true);
  EXPECT_EQ(reg.PopCount(), 2);
}

TEST(ShiftRegisterTest, FullCapacity64) {
  ShiftRegister reg(64);
  for (int i = 0; i < 100; ++i) reg.Push(true);
  EXPECT_EQ(reg.size(), 64);
  EXPECT_EQ(reg.PopCount(), 64);
}

TEST(ShiftRegisterTest, ClearResets) {
  ShiftRegister reg(8);
  reg.Push(true);
  reg.Clear();
  EXPECT_TRUE(reg.empty());
  EXPECT_EQ(reg.PopCount(), 0);
}

// ----------------------------------------------------------------- EPC ----

TEST(EpcTest, RoundTripsAllFields) {
  EpcFields fields;
  fields.level = PackagingLevel::kCase;
  fields.company_prefix = 123456;
  fields.item_reference = 654321;
  fields.serial = 1048575;
  auto encoded = EncodeEpc(fields);
  ASSERT_TRUE(encoded.ok());
  EXPECT_EQ(DecodeEpc(encoded.value()), fields);
  EXPECT_EQ(EpcLevel(encoded.value()), PackagingLevel::kCase);
  EXPECT_EQ(EpcLayer(encoded.value()), 1);
}

TEST(EpcTest, LayersMatchLevels) {
  for (int level = 0; level < kNumPackagingLevels; ++level) {
    EpcFields fields;
    fields.level = static_cast<PackagingLevel>(level);
    fields.serial = 7;
    auto id = EncodeEpc(fields);
    ASSERT_TRUE(id.ok());
    EXPECT_EQ(EpcLayer(id.value()), level);
  }
}

TEST(EpcTest, RejectsOverflowingFields) {
  EpcFields fields;
  fields.company_prefix = 1u << 20;  // 21 bits: too wide.
  EXPECT_FALSE(EncodeEpc(fields).ok());
  fields = EpcFields{};
  fields.item_reference = 1u << 20;
  EXPECT_FALSE(EncodeEpc(fields).ok());
  fields = EpcFields{};
  fields.serial = 1u << 21;
  EXPECT_FALSE(EncodeEpc(fields).ok());
}

TEST(EpcTest, DistinctFieldsYieldDistinctIds) {
  std::set<ObjectId> ids;
  for (std::uint32_t serial = 0; serial < 100; ++serial) {
    for (int level = 0; level < kNumPackagingLevels; ++level) {
      EpcFields fields;
      fields.level = static_cast<PackagingLevel>(level);
      fields.serial = serial;
      ids.insert(EncodeEpcUnchecked(fields));
    }
  }
  EXPECT_EQ(ids.size(), 300u);
}

TEST(EpcTest, ToStringNamesTheLevel) {
  EpcFields fields;
  fields.level = PackagingLevel::kPallet;
  fields.company_prefix = 12;
  fields.item_reference = 34;
  fields.serial = 56;
  EXPECT_EQ(EpcToString(EncodeEpcUnchecked(fields)), "pallet:12.34.56");
}

// ----------------------------------------------------------------- RNG ----

TEST(Pcg32Test, DeterministicForSeed) {
  Pcg32 a(7), b(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(Pcg32Test, DifferentSeedsDiffer) {
  Pcg32 a(7), b(8);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.Next() == b.Next()) ++same;
  }
  EXPECT_LT(same, 5);
}

TEST(Pcg32Test, BoundedStaysInRange) {
  Pcg32 rng(11);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.NextBounded(17), 17u);
  }
}

TEST(Pcg32Test, RangeInclusive) {
  Pcg32 rng(13);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    std::int64_t v = rng.NextInRange(5, 8);
    EXPECT_GE(v, 5);
    EXPECT_LE(v, 8);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 4u);  // All four values hit.
}

TEST(Pcg32Test, DoubleInUnitInterval) {
  Pcg32 rng(17);
  double sum = 0.0;
  for (int i = 0; i < 10000; ++i) {
    double v = rng.NextDouble();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
    sum += v;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Pcg32Test, BernoulliMatchesProbability) {
  Pcg32 rng(19);
  int hits = 0;
  for (int i = 0; i < 10000; ++i) {
    if (rng.NextBool(0.85)) ++hits;
  }
  EXPECT_NEAR(hits / 10000.0, 0.85, 0.02);
}

// --------------------------------------------------------------- Config ---

/// Parses `key = text` against a table holding only `spec`.
Result<Options> ParseKey(const OptionSpec& spec, const std::string& text) {
  Config given;
  given.Set(spec.name, text);
  return Options::Parse({spec}, given);
}

TEST(ConfigTest, ParsesLinesSkippingComments) {
  auto config = Config::FromLines(
      {"# comment", "", "  read_rate = 0.85 ", "shelf_period=60"});
  ASSERT_TRUE(config.ok());
  EXPECT_TRUE(config.value().Has("read_rate"));
  EXPECT_EQ(config.value().Text("read_rate"), "0.85");
  EXPECT_EQ(config.value().Text("shelf_period"), "60");
  EXPECT_EQ(config.value().Keys().size(), 2u);
}

TEST(ConfigTest, RejectsMalformedLines) {
  EXPECT_FALSE(Config::FromLines({"no equals sign"}).ok());
  EXPECT_FALSE(Config::FromLines({"= value-without-key"}).ok());
}

TEST(ConfigTest, FallbacksForMissingKeys) {
  EXPECT_EQ(Config().Text("absent"), "");
  auto options = Options::Parse(
      {IntOption("i", 42), DoubleOption("d", 1.5), StringOption("s", "x"),
       BoolOption("b", true)},
      Config());
  ASSERT_TRUE(options.ok());
  EXPECT_EQ(options.value().Int("i"), 42);
  EXPECT_EQ(options.value().Double("d"), 1.5);
  EXPECT_EQ(options.value().String("s"), "x");
  EXPECT_EQ(options.value().Bool("b"), true);
}

TEST(ConfigTest, TypedParseErrors) {
  for (const OptionSpec& spec :
       {IntOption("n", 0), DoubleOption("n", 0), BoolOption("n", false)}) {
    for (const char* text : {"not-a-number", "", "12abc"}) {
      EXPECT_FALSE(ParseKey(spec, text).ok()) << text;
    }
  }
  EXPECT_EQ(ParseKey(IntOption("n", 0), "12abc").status().message(),
            "config key 'n' is not an integer: 12abc");
  EXPECT_EQ(ParseKey(IntOption("n", 0), "0x10").status().message(),
            "config key 'n' is not an integer: 0x10");
  EXPECT_EQ(ParseKey(IntOption("n", 0), "99999999999999999999999")
                .status()
                .message(),
            "config key 'n' must be <= 9223372036854775807, got "
            "99999999999999999999999");
  EXPECT_EQ(ParseKey(IntOption("n", 0), "-99999999999999999999999")
                .status()
                .message(),
            "config key 'n' must be >= -9223372036854775808, got "
            "-99999999999999999999999");
  EXPECT_EQ(ParseKey(DoubleOption("n", 0), "1e999").status().message(),
            "config key 'n' is not a number: 1e999");
  EXPECT_EQ(ParseKey(BoolOption("n", false), "maybe").status().message(),
            "config key 'n' is not a boolean: maybe");
}

TEST(ConfigTest, BoolSpellings) {
  for (const char* spelling : {"true", "1", "yes", "on", "TRUE"}) {
    auto parsed = ParseKey(BoolOption("b", false), spelling);
    ASSERT_TRUE(parsed.ok()) << spelling;
    EXPECT_TRUE(parsed.value().Bool("b")) << spelling;
  }
  for (const char* spelling : {"false", "0", "no", "off", "False"}) {
    auto parsed = ParseKey(BoolOption("b", true), spelling);
    ASSERT_TRUE(parsed.ok()) << spelling;
    EXPECT_FALSE(parsed.value().Bool("b")) << spelling;
  }
}

TEST(ConfigTest, FromArgsParsesKeyValueTokens) {
  const char* argv[] = {"prog", "a=1", "b=two"};
  auto config = Config::FromArgs(3, argv);
  ASSERT_TRUE(config.ok());
  EXPECT_EQ(config.value().Text("a"), "1");
  EXPECT_EQ(config.value().Text("b"), "two");
}

TEST(ConfigTest, LaterKeysOverride) {
  auto config = Config::FromLines({"k = 1", "k = 2"});
  ASSERT_TRUE(config.ok());
  EXPECT_EQ(config.value().Text("k"), "2");
  auto options = Options::Parse({IntOption("k", 0)}, config.value());
  ASSERT_TRUE(options.ok());
  EXPECT_EQ(options.value().Int("k"), 2);
}

TEST(ConfigTest, KeysSorted) {
  Config config;
  config.Set("zeta", "1");
  config.Set("alpha", "2");
  std::vector<std::string> keys = config.Keys();
  ASSERT_EQ(keys.size(), 2u);
  EXPECT_EQ(keys[0], "alpha");
  EXPECT_EQ(keys[1], "zeta");
}

Result<Options> ParseOptions(const std::vector<std::string>& lines) {
  static const std::vector<OptionSpec> table = {
      StringOption("in"),
      IntOption("count", 10, 1),
      DoubleOption("rate", 0.5),
      BoolOption("check", true),
      EnumOption("level", "2", {"1", "2"}),
      EnumOption("statusz", "", {"text", "json"}),
  };
  auto given = Config::FromLines(lines);
  if (!given.ok()) return given.status();
  return Options::Parse(table, given.value());
}

TEST(OptionsTest, DefaultsAndGivenValues) {
  auto defaults = ParseOptions({});
  ASSERT_TRUE(defaults.ok());
  EXPECT_EQ(defaults.value().String("in"), "");
  EXPECT_EQ(defaults.value().Int("count"), 10);
  EXPECT_EQ(defaults.value().Double("rate"), 0.5);
  EXPECT_TRUE(defaults.value().Bool("check"));
  EXPECT_EQ(defaults.value().String("level"), "2");
  EXPECT_FALSE(defaults.value().Has("count"));

  auto given =
      ParseOptions({"in=a.spev", "count=1", "rate=0.25", "check=0",
                    "level=1", "statusz=json"});
  ASSERT_TRUE(given.ok());
  EXPECT_EQ(given.value().String("in"), "a.spev");
  EXPECT_EQ(given.value().Int("count"), 1);
  EXPECT_EQ(given.value().Double("rate"), 0.25);
  EXPECT_FALSE(given.value().Bool("check"));
  EXPECT_EQ(given.value().String("level"), "1");
  EXPECT_EQ(given.value().String("statusz"), "json");
  EXPECT_TRUE(given.value().Has("count"));
  EXPECT_EQ(given.value().given().Keys().size(), 6u);
}

TEST(OptionsTest, RejectsUnknownMalformedAndOutOfRangeKeysByName) {
  const std::pair<std::string, std::string> cases[] = {
      {"cuont=5", "unknown key 'cuont'"},
      {"count=abc", "config key 'count' is not an integer: abc"},
      {"count=0", "config key 'count' must be >= 1, got 0"},
      {"rate=fast", "config key 'rate' is not a number: fast"},
      {"check=maybe", "config key 'check' is not a boolean: maybe"},
      {"level=3", "level must be 1 or 2, got '3'"},
      {"statusz=xml", "statusz must be text or json, got 'xml'"},
  };
  for (const auto& [line, message] : cases) {
    auto parsed = ParseOptions({line});
    ASSERT_FALSE(parsed.ok()) << line;
    EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument) << line;
    EXPECT_EQ(parsed.status().message(), message) << line;
  }
}

TEST(OptionsTest, IntOptionOfHoldsItsTypesRange) {
  const std::pair<std::string, std::string> rejected[] = {
      {"2147483648", "config key 'n' must be <= 2147483647, got 2147483648"},
      {"-2147483649",
       "config key 'n' must be >= -2147483648, got -2147483649"},
      {"4294967297", "config key 'n' must be <= 2147483647, got 4294967297"},
  };
  for (const auto& [text, message] : rejected) {
    EXPECT_EQ(ParseKey(IntOptionOf<int>("n", 0), text).status().message(),
              message);
  }
  EXPECT_EQ(ParseKey(IntOptionOf<int>("n", 0), "-2147483648")
                .value()
                .Int("n"),
            INT_MIN);
  // An unsigned 64-bit variable takes [0, INT64_MAX]: what an int64 holds.
  EXPECT_EQ(ParseKey(IntOptionOf<std::uint64_t>("n", 0), "-1")
                .status()
                .message(),
            "config key 'n' must be >= 0, got -1");
  EXPECT_EQ(ParseKey(IntOptionOf<std::uint64_t>("n", 0),
                     "9223372036854775808")
                .status()
                .message(),
            "config key 'n' must be <= 9223372036854775807, got "
            "9223372036854775808");
  EXPECT_EQ(ParseKey(IntOptionOf<std::uint64_t>("n", 0),
                     "9223372036854775807")
                .value()
                .Int("n"),
            INT64_MAX);
}

TEST(OptionsTest, RequiredKeyMustBeGiven) {
  const std::vector<OptionSpec> table = {Required(StringOption("in"))};
  auto missing = Options::Parse(table, Config());
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().message(), "missing key 'in'");
  Config given;
  given.Set("in", "a.spev");
  EXPECT_TRUE(Options::Parse(table, given).ok());
  EXPECT_EQ(FormatOption(table[0]), "in=<required>");
}

TEST(OptionsTest, RejectsAKeyDeclaredTwice) {
  const std::vector<OptionSpec> table = {IntOption("n", 1), IntOption("n", 2)};
  EXPECT_FALSE(Options::Parse(table, Config()).ok());
}

TEST(OptionsTest, FormatShowsDefaultThenChoices) {
  EXPECT_EQ(FormatOption(IntOption("count", 10, 1)), "count=10");
  EXPECT_EQ(FormatOption(DoubleOption("rate", 0.85)), "rate=0.85");
  EXPECT_EQ(FormatOption(BoolOption("check", true)), "check=true");
  EXPECT_EQ(FormatOption(StringOption("in")), "in=");
  EXPECT_EQ(FormatOption(EnumOption("level", "2", {"1", "2"})), "level=2|1");
  EXPECT_EQ(FormatOption(EnumOption("statusz", "", {"text", "json"})),
            "statusz=text|json");
}

// ----------------------------------------------------------------- Wire ---

TEST(WireTest, SizesAreFixed) {
  EXPECT_EQ(kReadingWireBytes, 16u);
  EXPECT_EQ(kEventWireBytes, 26u);
}

// ------------------------------------------------------------------ Log ---

/// Captures log output into a string for the duration of a test.
class LogCapture {
 public:
  LogCapture() { SetLogSink(&buffer_); }
  ~LogCapture() {
    SetLogSink(nullptr);
    SetLogJsonMode(false);
    SetMinLogLevel(LogLevel::kInfo);
  }
  std::string str() const { return buffer_.str(); }

 private:
  std::ostringstream buffer_;
};

TEST(LogTest, TextLineCarriesLevelComponentAndMessage) {
  LogCapture capture;
  LogWarn("test", "shard 3 lagging");
  const std::string line = capture.str();
  EXPECT_NE(line.find(" W test: shard 3 lagging\n"), std::string::npos)
      << line;
}

TEST(LogTest, MinLevelFilters) {
  LogCapture capture;
  SetMinLogLevel(LogLevel::kWarn);
  LogInfo("test", "dropped");
  LogError("test", "kept");
  const std::string out = capture.str();
  EXPECT_EQ(out.find("dropped"), std::string::npos);
  EXPECT_NE(out.find("kept"), std::string::npos);
}

TEST(LogTest, JsonModeEmitsParseableObjects) {
  LogCapture capture;
  SetLogJsonMode(true);
  LogInfo("serve", "started 4 shards");
  const std::string line = capture.str();
  EXPECT_EQ(line.find("{\"ts_us\":"), 0u) << line;
  EXPECT_NE(line.find("\"level\":\"info\""), std::string::npos) << line;
  EXPECT_NE(line.find("\"component\":\"serve\""), std::string::npos) << line;
  EXPECT_NE(line.find("\"msg\":\"started 4 shards\""), std::string::npos)
      << line;
  EXPECT_EQ(line.back(), '\n');
}

TEST(LogTest, JsonEscapesControlCharactersAndQuotes) {
  EXPECT_EQ(JsonEscape("a\"b\\c"), "a\\\"b\\\\c");
  EXPECT_EQ(JsonEscape("line\nbreak\ttab"), "line\\nbreak\\ttab");
  EXPECT_EQ(JsonEscape(std::string(1, '\x01')), "\\u0001");
}

TEST(LogTest, ConcurrentWritersNeverInterleaveWithinALine) {
  LogCapture capture;
  constexpr int kThreads = 4;
  constexpr int kLines = 200;
  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([t] {
      std::ostringstream name;
      name << "w" << t;
      const std::string component = name.str();
      for (int i = 0; i < kLines; ++i) {
        LogInfo(component, "xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx");
      }
    });
  }
  for (auto& t : writers) t.join();
  // Every line, split on '\n', must be complete: level marker, a known
  // component, and the full payload — torn writes would break this.
  std::istringstream lines(capture.str());
  std::string line;
  int count = 0;
  while (std::getline(lines, line)) {
    EXPECT_NE(line.find(" I w"), std::string::npos) << line;
    EXPECT_NE(line.find(": xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx"),
              std::string::npos)
        << line;
    ++count;
  }
  EXPECT_EQ(count, kThreads * kLines);
}

}  // namespace
}  // namespace spire
