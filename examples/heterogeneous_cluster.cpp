// Simulated heterogeneous cluster: compares All-Reduce against constant and
// dynamic partial reduce when 3 of 8 workers share one GPU (the paper's
// HL=3 synthetic setting), training to a fixed accuracy threshold.

#include <cstdio>

#include "train/run.h"
#include "train/report.h"

namespace {

pr::RunConfig BaseConfig() {
  pr::RunConfig config = pr::PaperSimConfig();
  config.run.num_workers = 8;
  config.run.dataset = pr::SpecForDataset("cifar10");
  config.run.dataset.dirichlet_alpha = 0.5;
  config.sim.paper_model = "resnet34";
  config.sim.hetero = pr::HeteroSpec::GpuSharing(3);
  config.sim.accuracy_threshold = 0.85;
  config.sim.max_updates = 40000;
  config.sim.eval_every = 25;
  config.run.seed = 11;
  return config;
}

}  // namespace

int main() {
  std::printf(
      "Simulated 8-worker cluster, 3 workers sharing one GPU (HL=3),\n"
      "ResNet-34-shaped cost model, synthetic CIFAR10-like task.\n\n");

  pr::TablePrinter table({"strategy", "run time (s)", "#updates",
                          "per-update (s)", "accuracy", "idle frac"});

  for (pr::StrategyKind kind :
       {pr::StrategyKind::kAllReduce, pr::StrategyKind::kPReduceConst,
        pr::StrategyKind::kPReduceDynamic}) {
    pr::RunConfig config = BaseConfig();
    config.strategy.kind = kind;
    config.strategy.group_size = 3;
    pr::RunResult result = pr::StartRun(config, pr::EngineKind::kSim);
    table.AddRow({result.strategy,
                  pr::FormatDouble(result.clock_seconds, 1),
                  std::to_string(result.updates),
                  pr::FormatDouble(result.per_update_seconds, 3),
                  pr::FormatDouble(result.final_accuracy, 3),
                  pr::FormatDouble(result.mean_idle_fraction, 3)});
  }
  table.Print();
  std::printf(
      "\nP-Reduce trades more (cheaper) updates for the removal of the\n"
      "global barrier; run time drops although #updates grows.\n");
  return 0;
}
