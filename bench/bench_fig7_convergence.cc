// Reproduces Fig. 7: convergence curves (test accuracy vs training time).
//  (a) VGG-19 on CIFAR10-like task: P-Reduce (CON/DYN) vs AR vs ER — ER
//      plateaus below the threshold.
//  (b) ResNet-34 on CIFAR100-like task: P-Reduce vs AR.
// Prints the curve series (time, updates, accuracy) per strategy; pass
// --csv=PREFIX to dump each series for plotting.

#include <cstdio>
#include <cstring>
#include <string>

#include "train/run.h"
#include "train/report.h"

namespace {

pr::RunConfig CurveConfig(const std::string& dataset,
                                 const std::string& model,
                                 double threshold,
                                 pr::StrategyKind kind) {
  pr::RunConfig config = pr::PaperSimConfig();
  config.run.num_workers = 8;
  config.run.dataset = pr::SpecForDataset(dataset);
  config.run.dataset.dirichlet_alpha = 0.5;  // mild non-IID (see bench_table1)
  config.sim.paper_model = model;
  config.sim.hetero = pr::HeteroSpec::GpuSharing(3);
  config.sim.accuracy_threshold = threshold;
  config.sim.max_updates = 25000;
  config.sim.eval_every = 25;
  config.run.seed = 5;
  config.strategy.kind = kind;
  config.strategy.group_size = 3;
  return config;
}

void PrintSeries(const char* label, const pr::RunResult& result,
                 const std::string& csv_prefix) {
  std::printf("%-10s converged=%s  time=%.1fs  updates=%zu  final=%.3f\n",
              label, result.converged ? "yes" : "NO ",
              result.clock_seconds, result.updates, result.final_accuracy);
  std::printf("  curve (time s -> accuracy): ");
  const size_t stride = std::max<size_t>(1, result.curve.size() / 8);
  for (size_t i = 0; i < result.curve.size(); i += stride) {
    std::printf("%.0f:%.3f ", result.curve[i].time,
                result.curve[i].accuracy);
  }
  if (!result.curve.empty()) {
    std::printf("%.0f:%.3f", result.curve.back().time,
                result.curve.back().accuracy);
  }
  std::printf("\n");
  if (!csv_prefix.empty()) {
    std::vector<std::vector<std::string>> rows;
    for (const auto& pt : result.curve) {
      rows.push_back({pr::FormatDouble(pt.time, 3),
                      std::to_string(pt.updates),
                      pr::FormatDouble(pt.accuracy, 4),
                      pr::FormatDouble(pt.loss, 4)});
    }
    pr::WriteCsv(csv_prefix + "_" + label + ".csv",
                 {"time_s", "updates", "accuracy", "loss"}, rows);
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::string csv_prefix;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--csv=", 6) == 0) csv_prefix = argv[i] + 6;
  }

  std::printf("=== Fig. 7(a): VGG-19-shaped workload, CIFAR10-like task, "
              "HL=3, N=8 ===\n");
  for (auto [kind, label] :
       {std::pair{pr::StrategyKind::kPReduceConst, "CON"},
        std::pair{pr::StrategyKind::kPReduceDynamic, "DYN"},
        std::pair{pr::StrategyKind::kAllReduce, "AR"},
        std::pair{pr::StrategyKind::kEagerReduce, "ER"}}) {
    auto config = CurveConfig("cifar10", "vgg19", 0.85, kind);
    PrintSeries(label, pr::StartRun(config, pr::EngineKind::kSim), csv_prefix);
  }

  std::printf("\n=== Fig. 7(b): ResNet-34-shaped workload, CIFAR100-like "
              "task, HL=3, N=8 ===\n");
  for (auto [kind, label] :
       {std::pair{pr::StrategyKind::kPReduceConst, "CON"},
        std::pair{pr::StrategyKind::kPReduceDynamic, "DYN"},
        std::pair{pr::StrategyKind::kAllReduce, "AR"}}) {
    auto config = CurveConfig("cifar100", "resnet34", 0.52, kind);
    PrintSeries(label, pr::StartRun(config, pr::EngineKind::kSim), csv_prefix);
  }
  std::printf(
      "\nExpected shape: P-Reduce reaches the threshold first in wall time;\n"
      "ER's stale-gradient aggregation makes its curve dip repeatedly and\n"
      "lag far behind (under deeper staleness it fails outright - see the\n"
      "HL>=2 Table 1 cells).\n");
  return 0;
}
