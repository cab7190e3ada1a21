// Reproduces Fig. 9: the production-cluster comparison (ResNet-34 on a
// CIFAR100-like task, N=16, heavy-tailed resource-sharing heterogeneity).
// The paper reports P-Reduce ~16.6x faster per update and ~2x faster in
// total run time than All-Reduce, plus highly skewed per-update times.

#include <cstdio>

#include "train/run.h"
#include "train/report.h"

namespace {

pr::RunConfig Config(pr::StrategyKind kind) {
  pr::RunConfig config = pr::PaperSimConfig();
  config.run.num_workers = 16;
  config.run.dataset = pr::SpecForDataset("cifar100");
  config.run.dataset.dirichlet_alpha = 0.5;  // mild non-IID (see bench_table1)
  config.sim.paper_model = "resnet34";
  config.sim.hetero = pr::HeteroSpec::Production();
  config.sim.accuracy_threshold = 0.50;
  config.sim.max_updates = 60000;
  config.sim.eval_every = 50;
  config.run.seed = 43;
  config.strategy.kind = kind;
  config.strategy.group_size = 3;
  return config;
}

}  // namespace

int main() {
  std::printf(
      "Fig. 9 reproduction: production heterogeneity (heavy-tailed),\n"
      "ResNet-34 cost model, CIFAR100-like task, N=16, P=3.\n\n");

  pr::TablePrinter table({"strategy", "run time (s)", "#updates",
                          "per-update (s)", "p99 update gap (s)",
                          "converged"});
  double ar_time = 0.0, ar_update = 0.0;
  double con_time = 0.0, con_update = 0.0;
  for (auto [kind, label] :
       {std::pair{pr::StrategyKind::kAllReduce, "AR"},
        std::pair{pr::StrategyKind::kPReduceConst, "CON"},
        std::pair{pr::StrategyKind::kPReduceDynamic, "DYN"}}) {
    pr::RunResult r = pr::StartRun(Config(kind), pr::EngineKind::kSim);
    table.AddRow({label, pr::FormatDouble(r.clock_seconds, 1),
                  std::to_string(r.updates),
                  pr::FormatDouble(r.per_update_seconds, 4),
                  r.update_intervals.empty()
                      ? "-"
                      : pr::FormatDouble(r.update_intervals.Percentile(0.99),
                                         3),
                  r.converged ? "yes" : "NO"});
    if (kind == pr::StrategyKind::kAllReduce) {
      ar_time = r.clock_seconds;
      ar_update = r.per_update_seconds;
    }
    if (kind == pr::StrategyKind::kPReduceConst) {
      con_time = r.clock_seconds;
      con_update = r.per_update_seconds;
    }
  }
  table.Print();
  std::printf(
      "\nper-update speedup (AR/CON): %s   (paper: ~16.6x)\n"
      "total-time speedup (AR/CON): %s   (paper: ~2x)\n",
      pr::FormatSpeedup(ar_update / con_update).c_str(),
      pr::FormatSpeedup(ar_time / con_time).c_str());
  return 0;
}
