// Expt 1 (Fig. 9(a) + the S / alpha discussion): containment inference
// error versus beta, for several shelf-reader frequencies, plus the
// adaptive-beta heuristic; side tables sweep the history size S and the
// Zipf exponent alpha.
//
//   ./expt1_containment_beta [full=true] [key=value ...]
#include <cstdio>
#include <vector>

#include "bench/bench_util.h"
#include "eval/table.h"

using namespace spire;
using namespace spire::bench;

namespace {

double ContainmentError(const SimConfig& sim, double beta, bool adaptive,
                        int history, double alpha) {
  RunOptions options;
  options.sim = sim;
  options.pipeline.inference.beta = beta;
  options.pipeline.inference.adaptive_beta = adaptive;
  options.pipeline.inference.alpha = alpha;
  options.pipeline.history_size = history;
  return RunSpireTrace(options).accuracy.ContainmentErrorRate();
}

}  // namespace

int main(int argc, char** argv) {
  const Options args = ParseSimArgs(argc, argv, {BoolOption("full", false)});
  SimConfig base = ApplySimOverrides(args, SweepConfig(args.Bool("full")));

  PrintHeader("Expt 1: containment inference vs beta",
              "Fig. 9(a); text on S and alpha (Section VI-B)");

  const std::vector<Epoch> shelf_periods{1, 10, 30, 60};
  const std::vector<double> betas{0.0, 0.1, 0.2, 0.4,  0.6,
                                  0.7, 0.85, 0.95, 1.0};

  TextTable beta_table([&] {
    std::vector<std::string> header{"beta"};
    for (Epoch period : shelf_periods) {
      header.push_back("shelf 1/" + std::to_string(period) + "s");
    }
    return header;
  }());
  for (double beta : betas) {
    std::vector<std::string> row{TextTable::Num(beta, 2)};
    for (Epoch period : shelf_periods) {
      SimConfig sim = base;
      sim.shelf_period = period;
      row.push_back(
          TextTable::Num(ContainmentError(sim, beta, false, 32, 0.0), 4));
    }
    beta_table.AddRow(row);
  }
  {
    std::vector<std::string> row{"adaptive"};
    for (Epoch period : shelf_periods) {
      SimConfig sim = base;
      sim.shelf_period = period;
      row.push_back(
          TextTable::Num(ContainmentError(sim, 0.4, true, 32, 0.0), 4));
    }
    beta_table.AddRow(row);
  }
  std::printf("containment error rate vs beta:\n");
  beta_table.Print();

  // S and alpha only matter when the recent history carries the decision,
  // so these sensitivity tables run in pure-history mode (beta = 1) under a
  // noisier workload. Expected shape (Section VI-B text): small S caps
  // accuracy, no benefit beyond 32; alpha = 0 is best.
  SimConfig noisy = base;
  noisy.read_rate = 0.7;
  noisy.shelf_period = 10;

  std::printf("\ncontainment error rate vs history size S "
              "(beta=1, read rate 0.7, shelf 1/10s):\n");
  TextTable s_table({"S", "error"});
  for (int history : {4, 8, 16, 32, 64}) {
    s_table.AddRow({std::to_string(history),
                    TextTable::Num(
                        ContainmentError(noisy, 1.0, false, history, 0.0), 4)});
  }
  s_table.Print();

  std::printf("\ncontainment error rate vs alpha "
              "(S=32, beta=1, read rate 0.7, shelf 1/10s):\n");
  TextTable alpha_table({"alpha", "error"});
  for (double alpha : {0.0, 0.5, 1.0, 2.0}) {
    alpha_table.AddRow({TextTable::Num(alpha, 1),
                        TextTable::Num(
                            ContainmentError(noisy, 1.0, false, 32, alpha),
                            4)});
  }
  alpha_table.Print();
  return 0;
}
