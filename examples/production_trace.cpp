// Production-cluster heterogeneity demo (paper §5.3): per-update-time
// distributions of All-Reduce vs partial reduce under heavy-tailed worker
// speeds (resource sharing), N=16, timing-only mode.

#include <cstdio>

#include "train/run.h"
#include "train/report.h"

namespace {

pr::RunResult RunTiming(pr::StrategyKind kind) {
  pr::RunConfig config = pr::PaperSimConfig();
  config.run.num_workers = 16;
  config.sim.paper_model = "resnet34";
  config.sim.hetero = pr::HeteroSpec::Production();
  config.sim.timing_only = true;
  config.sim.timing_updates = 3000;
  config.run.seed = 5;
  config.strategy.kind = kind;
  config.strategy.group_size = 4;
  return pr::StartRun(config, pr::EngineKind::kSim);
}

}  // namespace

int main() {
  std::printf(
      "Per-update time under production (heavy-tailed) heterogeneity,\n"
      "N=16 workers, ResNet-34 cost model, 3000 updates each.\n\n");

  pr::TablePrinter table({"strategy", "mean (s)", "p50 (s)", "p95 (s)",
                          "p99 (s)", "updates/s"});
  double ar_mean = 0.0, pr_mean = 0.0;
  for (pr::StrategyKind kind :
       {pr::StrategyKind::kAllReduce, pr::StrategyKind::kPReduceConst}) {
    pr::RunResult result = RunTiming(kind);
    const pr::SampleSet& intervals = result.update_intervals;
    table.AddRow({result.strategy,
                  pr::FormatDouble(intervals.Mean(), 4),
                  pr::FormatDouble(intervals.Percentile(0.50), 4),
                  pr::FormatDouble(intervals.Percentile(0.95), 4),
                  pr::FormatDouble(intervals.Percentile(0.99), 4),
                  pr::FormatDouble(1.0 / result.per_update_seconds, 1)});
    if (kind == pr::StrategyKind::kAllReduce) ar_mean = intervals.Mean();
    if (kind == pr::StrategyKind::kPReduceConst) pr_mean = intervals.Mean();
  }
  table.Print();
  std::printf("\nAll-Reduce / P-Reduce per-update ratio: %s\n",
              pr::FormatSpeedup(ar_mean / pr_mean).c_str());
  std::printf("(The paper reports ~16.6x on its production cluster.)\n");
  return 0;
}
