// spire_fuzz — seeded property-based differential checking of the SPIRE
// substrate (src/check).
//
//   spire_fuzz --seeds <N|corpus-file> [--start-seed S] [--budget 30s]
//              [--out-dir DIR] [--min-cases N] [--shrink-attempts N]
//              [--no-shrink] [--max-failures N]
//   spire_fuzz --replay <repro-file>
//
// Each seed expands into a deterministic random warehouse trace which is
// run through the pipeline at compression levels 1 and 2 and judged by the
// oracle battery of check/oracles.h: well-formedness, level-2 -> level-1
// recovery, archive and SPEV round-trips, and bit-exact determinism. On a
// violation the trace is minimized (epochs, then tags) and a replayable
// repro file is archived; the repro path is printed to stdout. Exit code 0
// iff every oracle stayed green.
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <variant>
#include <vector>

#include "check/fuzzer.h"
#include "check/oracles.h"
#include "check/repro.h"
#include "check/trace_gen.h"
#include "common/config.h"
#include "compress/decompress.h"

using namespace spire;

namespace {

int Usage() {
  std::fprintf(
      stderr,
      "usage: spire_fuzz --seeds <N|corpus-file> [--start-seed S]\n"
      "                  [--budget 30s] [--out-dir DIR] [--min-cases N]\n"
      "                  [--shrink-attempts N] [--no-shrink]\n"
      "                  [--max-failures N]\n"
      "       spire_fuzz --replay <repro-file>\n");
  return 2;
}

/// Parses "30", "30s", "2m" into seconds; negative on error.
double ParseBudget(const std::string& text) {
  if (text.empty()) return -1.0;
  char* end = nullptr;
  double value = std::strtod(text.c_str(), &end);
  if (end == text.c_str() || value < 0.0) return -1.0;
  if (*end == '\0' || std::strcmp(end, "s") == 0) return value;
  if (std::strcmp(end, "m") == 0) return value * 60.0;
  if (std::strcmp(end, "h") == 0) return value * 3600.0;
  return -1.0;
}

/// `text` as a seed, by the option parser's integer rule: base 10, the
/// whole text, 0 through INT64_MAX (the range of a repro file's `seed`
/// key). The error names `key`.
Result<std::uint64_t> ParseSeed(const std::string& key,
                                const std::string& text) {
  auto value = ParseOptionValue(IntOptionOf<std::uint64_t>(key, 0), text);
  if (!value.ok()) return value.status();
  return static_cast<std::uint64_t>(std::get<std::int64_t>(value.value()));
}

/// `--seeds` accepts a count (expanded from --start-seed) or a corpus file
/// with one seed per line ('#' comments). Prints why and returns false on a
/// malformed or out-of-range seed.
bool LoadSeeds(const std::string& spec, std::uint64_t start_seed,
               std::vector<std::uint64_t>* seeds) {
  auto count = ParseSeed("--seeds", spec);
  if (count.ok()) {
    if (count.value() > 0 &&
        count.value() - 1 > static_cast<std::uint64_t>(INT64_MAX) - start_seed) {
      std::fprintf(stderr,
                   "error: --seeds %s from --start-seed %llu runs past seed "
                   "%lld, the largest a repro file holds\n",
                   spec.c_str(), static_cast<unsigned long long>(start_seed),
                   static_cast<long long>(INT64_MAX));
      return false;
    }
    for (std::uint64_t i = 0; i < count.value(); ++i) {
      seeds->push_back(start_seed + i);
    }
    return true;
  }
  std::ifstream in(spec);
  if (!in) {
    std::fprintf(stderr, "error: cannot open seed corpus: %s\n", spec.c_str());
    return false;
  }
  std::string line;
  for (int number = 1; std::getline(in, line); ++number) {
    const std::string text = line.substr(0, line.find('#'));
    const std::size_t from = text.find_first_not_of(" \t\r");
    if (from == std::string::npos) continue;
    const std::size_t to = text.find_last_not_of(" \t\r");
    auto seed = ParseSeed("seed", text.substr(from, to - from + 1));
    if (!seed.ok()) {
      std::fprintf(stderr, "error: %s line %d: %s\n", spec.c_str(), number,
                   seed.status().ToString().c_str());
      return false;
    }
    seeds->push_back(seed.value());
  }
  return true;
}

void DumpStream(const char* name, const EventStream& stream) {
  std::printf("--- %s (%zu events) ---\n", name, stream.size());
  for (std::size_t i = 0; i < stream.size(); ++i) {
    std::printf("  [%3zu] %s\n", i, stream[i].ToString().c_str());
  }
}

int RunReplay(const std::string& path, bool dump) {
  auto fuzz_case = LoadReproFile(path);
  if (!fuzz_case.ok()) {
    std::fprintf(stderr, "error: %s\n",
                 fuzz_case.status().ToString().c_str());
    return 2;
  }
  std::printf("replaying %s: %lld epochs, seed %llu, %zu excluded tag(s)\n",
              path.c_str(),
              static_cast<long long>(fuzz_case.value().EffectiveEpochs()),
              static_cast<unsigned long long>(fuzz_case.value().sim.seed),
              fuzz_case.value().excluded_tags.size());
  if (dump) {
    auto trace = GenerateTrace(fuzz_case.value());
    if (!trace.ok()) {
      std::fprintf(stderr, "error: %s\n", trace.status().ToString().c_str());
      return 2;
    }
    EventStream level1 =
        RunPipelineOnTrace(trace.value(), CompressionLevel::kLevel1);
    EventStream level2 =
        RunPipelineOnTrace(trace.value(), CompressionLevel::kLevel2);
    DumpStream("level1", level1);
    DumpStream("level2", level2);
    DumpStream("decompress(level2)", Decompressor::DecompressAll(level2));
  }
  DifferentialChecker checker;
  CheckStats stats;
  auto failure = checker.Check(fuzz_case.value(), &stats);
  const auto seed =
      static_cast<unsigned long long>(fuzz_case.value().sim.seed);
  if (failure) {
    // Name the oracle and the seed in the exit message itself, so a replay
    // failure is actionable without re-running under --dump.
    std::printf("%s\n", failure->detail.c_str());
    std::printf("replay FAILED: oracle '%s' violated (seed %llu, %lld "
                "epochs, %zu excluded tags) — re-run with --dump for the "
                "full streams\n",
                failure->oracle.c_str(), seed,
                static_cast<long long>(fuzz_case.value().EffectiveEpochs()),
                fuzz_case.value().excluded_tags.size());
    return 1;
  }
  std::printf("replay OK: all oracles green for seed %llu (%zu pipeline "
              "traces) — repro is fixed\n",
              seed, stats.traces_run);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const FuzzOptions defaults;
  const std::vector<OptionSpec> table = {
      StringOption("--seeds"),
      StringOption("--replay"),
      IntOptionOf<std::uint64_t>("--start-seed", 1),
      StringOption("--budget"),
      StringOption("--out-dir", defaults.repro_dir),
      IntOptionOf("--min-cases", defaults.min_cases),
      IntOptionOf("--shrink-attempts", defaults.shrink_attempts),
      IntOptionOf("--max-failures", defaults.max_failures),
      BoolOption("--dump", false),
      BoolOption("--no-shrink", false)};
  // Every flag but --dump and --no-shrink takes the next argument as its
  // value; Options::Parse then checks them all against the table.
  Config given;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--dump" || flag == "--no-shrink") {
      given.Set(flag, "true");
    } else if (i + 1 < argc) {
      given.Set(flag, argv[++i]);
    } else {
      return Usage();
    }
  }
  auto parsed = Options::Parse(table, given);
  if (!parsed.ok()) {
    std::fprintf(stderr, "error: %s\n", parsed.status().ToString().c_str());
    return Usage();
  }
  const Options& flags = parsed.value();
  if (flags.Has("--replay")) {
    return RunReplay(flags.String("--replay"), flags.Bool("--dump"));
  }
  if (!flags.Has("--seeds")) return Usage();

  FuzzOptions options;
  options.repro_dir = flags.String("--out-dir");
  options.min_cases = static_cast<std::size_t>(flags.Int("--min-cases"));
  options.shrink_attempts =
      flags.Bool("--no-shrink")
          ? 0
          : static_cast<int>(flags.Int("--shrink-attempts"));
  options.max_failures =
      static_cast<std::size_t>(flags.Int("--max-failures"));
  if (flags.Has("--budget")) {
    options.budget_seconds = ParseBudget(flags.String("--budget"));
    if (options.budget_seconds < 0.0) return Usage();
  }
  if (!LoadSeeds(flags.String("--seeds"),
                 static_cast<std::uint64_t>(flags.Int("--start-seed")),
                 &options.seeds)) {
    return 2;
  }
  if (options.seeds.empty()) {
    std::fprintf(stderr, "error: empty seed corpus\n");
    return 2;
  }

  DifferentialChecker checker;
  FuzzStats stats = Fuzz(options, checker, stdout);
  return stats.failures == 0 ? 0 : 1;
}
