// Ablation study of the design choices DESIGN.md calls out: conflict
// resolution (Table I), the partial/complete inference schedule (Section
// IV-D), containment-based color propagation (gamma), opportunity-
// normalized fading ages, edge pruning, and adaptive beta. Each row removes
// one mechanism from the full system and reports accuracy and output
// quality on the same trace (stdout, deterministic), and inference time
// (stderr, wall-clock).
//
//   ./ablation [full=true] [key=value ...]
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "eval/table.h"

using namespace spire;
using namespace spire::bench;

int main(int argc, char** argv) {
  const Options args = ParseSimArgs(argc, argv, {BoolOption("full", false)});
  SimConfig sim = SweepConfig(args.Bool("full"));
  sim.read_rate = 0.7;  // Noisy enough that every mechanism matters.
  sim.theft_interval = 200;
  sim = ApplySimOverrides(args, sim);

  PrintHeader("Ablation: removing one mechanism at a time",
              "design choices of Sections IV-B/C/D/E (DESIGN.md)");

  struct Variant {
    std::string name;
    std::function<void(PipelineOptions*)> tweak;
  };
  const std::vector<Variant> variants = {
      {"full system", [](PipelineOptions*) {}},
      {"no conflict resolution",
       [](PipelineOptions* o) { o->resolve_conflicts = false; }},
      {"no partial inference",
       [](PipelineOptions* o) {
         o->inference_mode = InferenceMode::kCompleteOnly;
       }},
      {"always-complete inference",
       [](PipelineOptions* o) {
         o->inference_mode = InferenceMode::kAlwaysComplete;
       }},
      {"no color propagation (gamma=0)",
       [](PipelineOptions* o) { o->inference.gamma = 0.0; }},
      {"raw-epoch fading ages",
       [](PipelineOptions* o) {
         o->inference.normalize_age_by_reader_period = false;
       }},
      {"no edge pruning",
       [](PipelineOptions* o) { o->inference.prune_threshold = 0.0; }},
      {"adaptive beta",
       [](PipelineOptions* o) { o->inference.adaptive_beta = true; }},
  };

  // Inference time is wall-clock, so it goes to stderr in a table of its
  // own: stdout stays identical between two runs of one binary.
  TextTable table({"variant", "loc err", "cont err", "loc F", "delay (s)",
                   "events"});
  TextTable timing({"variant", "inference s"});
  for (const Variant& variant : variants) {
    RunOptions options;
    options.sim = sim;
    variant.tweak(&options.pipeline);
    RunMetrics metrics = RunSpireTrace(options);
    table.AddRow({variant.name,
                  TextTable::Num(metrics.accuracy.LocationErrorRate(), 4),
                  TextTable::Num(metrics.accuracy.ContainmentErrorRate(), 4),
                  TextTable::Num(metrics.f_location.FMeasure(), 4),
                  TextTable::Num(metrics.delay.mean_delay, 0),
                  std::to_string(metrics.output_events)});
    timing.AddRow(
        {variant.name, TextTable::Num(metrics.inference_seconds, 3)});
  }
  table.Print();
  std::fprintf(stderr, "%s", timing.ToString().c_str());
  std::printf("\n(read rate %.2f, thefts every %llds; level-2 output)\n",
              sim.read_rate, static_cast<long long>(sim.theft_interval));
  return 0;
}
