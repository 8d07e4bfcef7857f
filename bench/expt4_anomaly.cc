// Expt 4 (Fig. 9(e) and 9(f)): accuracy and delay of anomaly detection.
// Objects are removed unexpectedly (one theft every 100 s in the paper);
// the sweep varies theta and reports the location-inference error rate and
// the delay until the first Missing event for each stolen object, for two
// shelf-reader frequencies.
//
// The detector itself is the library `theft` pattern (src/cep): a Missing
// onset IS a theft alarm. The final section re-runs one representative
// configuration, flags thefts both with the hard-wired first-Missing-event
// scan (EvaluateDetectionDelay's rule) and with the compiled pattern over
// the compressed output, and aborts if they disagree on any (object, epoch)
// pair or on the aggregate delay statistics.
//
//   ./expt4_anomaly [full=true] [key=value ...]
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <set>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "cep/compressed_log.h"
#include "cep/library.h"
#include "cep/nfa.h"
#include "eval/table.h"

using namespace spire;
using namespace spire::bench;

namespace {

/// First flagged epoch per theft under EvaluateDetectionDelay's rule: the
/// earliest epoch in `alarms[object]` at or after the theft, within the
/// horizon. `alarms` values must be sorted ascending.
std::set<std::pair<ObjectId, Epoch>> FlaggedPairs(
    const std::vector<Theft>& thefts,
    const std::map<ObjectId, std::vector<Epoch>>& alarms, Epoch horizon) {
  std::set<std::pair<ObjectId, Epoch>> flagged;
  for (const Theft& theft : thefts) {
    auto it = alarms.find(theft.object);
    if (it == alarms.end()) continue;
    auto first = std::lower_bound(it->second.begin(), it->second.end(),
                                  theft.epoch);
    if (first == it->second.end() || *first - theft.epoch > horizon) continue;
    flagged.emplace(theft.object, *first);
  }
  return flagged;
}

/// Cross-checks the hard-wired Missing-event detector against the compiled
/// `theft` pattern on one captured run; exits nonzero on any divergence.
void CheckTheftPatternAgreement(const EventStream& output,
                                const std::vector<Theft>& thefts,
                                const DelayStats& reference) {
  constexpr Epoch kHorizon = 3600;
  std::map<ObjectId, std::vector<Epoch>> event_alarms;
  for (const Event& event : output) {
    if (event.type == EventType::kMissing) {
      event_alarms[event.object].push_back(event.start);
    }
  }
  for (auto& [object, epochs] : event_alarms) {
    std::sort(epochs.begin(), epochs.end());
  }

  auto pattern = cep::LibraryPattern("theft");
  auto compiled = pattern.ok()
                      ? cep::Compile(pattern.value(), nullptr)
                      : pattern.status();
  auto log = cep::CompressedLog::Build(output);
  if (!compiled.ok() || !log.ok()) {
    std::fprintf(stderr, "theft pattern setup failed: %s\n",
                 (!compiled.ok() ? compiled.status() : log.status())
                     .ToString()
                     .c_str());
    std::exit(1);
  }
  std::map<ObjectId, std::vector<Epoch>> pattern_alarms;
  for (const cep::Match& match :
       cep::EvaluateCompressed(compiled.value(), &log.value(),
                               cep::BoundsOf(output))) {
    pattern_alarms[match.binding.front()].push_back(match.completion);
  }

  const auto by_events = FlaggedPairs(thefts, event_alarms, kHorizon);
  const auto by_pattern = FlaggedPairs(thefts, pattern_alarms, kHorizon);
  if (by_events != by_pattern) {
    std::fprintf(stderr,
                 "theft detector divergence: %zu event-flagged vs %zu "
                 "pattern-flagged (object, epoch) pairs\n",
                 by_events.size(), by_pattern.size());
    std::exit(1);
  }

  // The aggregate statistics must be reproducible from the pattern's
  // alarms alone, per theft (two thefts may share a flagged pair).
  std::vector<Epoch> delays;
  for (const Theft& theft : thefts) {
    auto it = pattern_alarms.find(theft.object);
    if (it == pattern_alarms.end()) continue;
    auto first = std::lower_bound(it->second.begin(), it->second.end(),
                                  theft.epoch);
    if (first == it->second.end() || *first - theft.epoch > kHorizon) continue;
    delays.push_back(*first - theft.epoch);
  }
  std::sort(delays.begin(), delays.end());
  DelayStats from_pattern;
  from_pattern.thefts = thefts.size();
  from_pattern.detected = delays.size();
  if (!delays.empty()) {
    double sum = 0.0;
    for (Epoch d : delays) sum += static_cast<double>(d);
    from_pattern.mean_delay = sum / static_cast<double>(delays.size());
    from_pattern.median_delay = static_cast<double>(delays[delays.size() / 2]);
    from_pattern.max_delay = delays.back();
  }
  if (from_pattern.thefts != reference.thefts ||
      from_pattern.detected != reference.detected ||
      from_pattern.mean_delay != reference.mean_delay ||
      from_pattern.median_delay != reference.median_delay ||
      from_pattern.max_delay != reference.max_delay) {
    std::fprintf(stderr,
                 "theft delay stats divergence: pattern %zu/%zu mean %.3f "
                 "max %lld vs reference %zu/%zu mean %.3f max %lld\n",
                 from_pattern.detected, from_pattern.thefts,
                 from_pattern.mean_delay,
                 static_cast<long long>(from_pattern.max_delay),
                 reference.detected, reference.thefts, reference.mean_delay,
                 static_cast<long long>(reference.max_delay));
    std::exit(1);
  }
  std::printf("\ntheft pattern agreement: %zu thefts, %zu flagged, "
              "identical (object, epoch) pairs and delay stats\n",
              thefts.size(), by_pattern.size());
}

}  // namespace

int main(int argc, char** argv) {
  const Options args = ParseSimArgs(argc, argv, {BoolOption("full", false)});
  SimConfig base = SweepConfig(args.Bool("full"));
  base.theft_interval = 100;
  base = ApplySimOverrides(args, base);

  PrintHeader("Expt 4: anomaly detection vs theta",
              "Fig. 9(e) error rate, Fig. 9(f) detection delay");

  const std::vector<Epoch> shelf_periods{1, 60};
  const std::vector<double> thetas{0.15, 0.35, 0.75, 1.0, 1.25,
                                   1.5,  2.0,  3.0,  4.0};

  TextTable table([&] {
    std::vector<std::string> header{"theta"};
    for (Epoch period : shelf_periods) {
      std::string label = "1/" + std::to_string(period) + "s";
      header.push_back("err " + label);
      header.push_back("delay " + label);
      header.push_back("detected " + label);
    }
    return header;
  }());

  for (double theta : thetas) {
    std::vector<std::string> row{TextTable::Num(theta, 2)};
    for (Epoch period : shelf_periods) {
      RunOptions options;
      options.sim = base;
      options.sim.shelf_period = period;
      options.pipeline.inference.theta = theta;
      RunMetrics metrics = RunSpireTrace(options);
      row.push_back(TextTable::Num(metrics.accuracy.LocationErrorRate(), 4));
      row.push_back(TextTable::Num(metrics.delay.mean_delay, 1));
      row.push_back(TextTable::Num(metrics.delay.DetectionRate(), 2));
    }
    table.AddRow(row);
  }
  table.Print();
  std::printf("\n(delay in epochs = seconds; thefts every %lld s)\n",
              static_cast<long long>(base.theft_interval));

  // Cross-check the hard-wired detector against the `theft` CEP pattern on
  // one representative configuration.
  RunOptions options;
  options.sim = base;
  options.sim.shelf_period = 60;
  options.pipeline.inference.theta = 1.25;
  EventStream output;
  std::vector<Theft> thefts;
  options.capture_output = &output;
  options.capture_thefts = &thefts;
  RunMetrics metrics = RunSpireTrace(options);
  CheckTheftPatternAgreement(output, thefts, metrics.delay);
  return 0;
}
