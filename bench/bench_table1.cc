// Reproduces Table 1: end-to-end comparison on (synthetic) CIFAR10 across
// ResNet-34 / VGG-19 / DenseNet-121 cost models, heterogeneity levels, and
// all strategies: AR, ER, AD-PSGD, PS-{BSP, ASP, HETE, BK}, partial reduce
// (P=3 and P=5, constant and dynamic).
//
// Metrics per cell, as in the paper: total run time (virtual seconds) to
// the accuracy threshold, #updates, and per-update time. ER rows report
// N/A when the threshold is not reached (the paper's finding).
//
// Flags: --quick (fewer strategies), --seeds=K (seed-averaged, default 1),
//        --csv=PATH (dump rows).

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "train/run.h"
#include "train/report.h"

namespace pr {
namespace {

struct StrategyCell {
  std::string label;
  StrategyOptions options;
};

std::vector<StrategyCell> StrategyCells(bool quick) {
  std::vector<StrategyCell> cells;
  auto add = [&](const std::string& label, StrategyKind kind, int p) {
    StrategyCell cell;
    cell.label = label;
    cell.options.kind = kind;
    cell.options.group_size = p;
    cell.options.backup_workers = 3;  // paper: 3 backups out of 8
    cells.push_back(cell);
  };
  add("AR", StrategyKind::kAllReduce, 0);
  add("ER", StrategyKind::kEagerReduce, 0);
  add("AD", StrategyKind::kAdPsgd, 0);
  if (!quick) {
    add("PS-BSP", StrategyKind::kPsBsp, 0);
    add("PS-ASP", StrategyKind::kPsAsp, 0);
    add("PS-HETE", StrategyKind::kPsHete, 0);
    add("PS-BK", StrategyKind::kPsBackup, 0);
  }
  add("CON(P=3)", StrategyKind::kPReduceConst, 3);
  add("DYN(P=3)", StrategyKind::kPReduceDynamic, 3);
  if (!quick) {
    add("CON(P=5)", StrategyKind::kPReduceConst, 5);
    add("DYN(P=5)", StrategyKind::kPReduceDynamic, 5);
  }
  return cells;
}

RunConfig CellConfig(const std::string& model, int hl,
                            const StrategyOptions& strategy, uint64_t seed) {
  RunConfig config = pr::PaperSimConfig();
  config.run.num_workers = 8;
  config.run.dataset = pr::SpecForDataset("cifar10");
  // Mild non-IID shards (cloud data skew): staleness then carries *bias*,
  // not just noise, which is the regime where the paper's findings (ER
  // fails, staleness-aware methods matter) reproduce on the proxy task.
  config.run.dataset.dirichlet_alpha = 0.5;
  config.sim.paper_model = model;
  config.sim.hetero = HeteroSpec::GpuSharing(hl);
  config.sim.accuracy_threshold = 0.85;
  config.sim.max_updates = 30000;
  config.sim.eval_every = 25;
  config.run.seed = seed;
  config.strategy = strategy;
  return config;
}

}  // namespace
}  // namespace pr

int main(int argc, char** argv) {
  bool quick = false;
  size_t seeds = 3;
  std::string csv_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
    if (std::strncmp(argv[i], "--seeds=", 8) == 0) {
      seeds = static_cast<size_t>(std::atoi(argv[i] + 8));
    }
    if (std::strncmp(argv[i], "--csv=", 6) == 0) csv_path = argv[i] + 6;
  }

  const std::vector<std::pair<std::string, std::vector<int>>> workloads = {
      {"resnet34", {1, 3}},
      {"vgg19", {1, 3}},
      {"densenet121", {1, 2}},
  };

  std::vector<std::vector<std::string>> csv_rows;
  for (const auto& [model, hls] : workloads) {
    for (int hl : hls) {
      std::printf("\n=== Table 1: %s on CIFAR10-like task, HL=%d ===\n",
                  model.c_str(), hl);
      pr::TablePrinter table({"strategy", "run time (s)", "#updates",
                              "per-update (s)", "final acc"});
      for (const auto& cell : pr::StrategyCells(quick)) {
        pr::RunConfig config =
            pr::CellConfig(model, hl, cell.options, /*seed=*/17);
        pr::AggregateResult agg = pr::RunExperimentSeeds(config, seeds);
        const bool converged = agg.AllConverged();
        table.AddRow({cell.label,
                      converged ? pr::FormatDouble(agg.mean_run_time, 1)
                                : "N/A",
                      converged ? pr::FormatDouble(agg.mean_updates, 0)
                                : "N/A",
                      pr::FormatDouble(agg.mean_per_update, 3),
                      pr::FormatDouble(agg.mean_final_accuracy, 3)});
        csv_rows.push_back({model, std::to_string(hl), cell.label,
                            pr::FormatDouble(agg.mean_run_time, 3),
                            pr::FormatDouble(agg.mean_updates, 1),
                            pr::FormatDouble(agg.mean_per_update, 4),
                            pr::FormatDouble(agg.mean_final_accuracy, 4),
                            converged ? "1" : "0"});
      }
      table.Print();
    }
  }
  if (!csv_path.empty()) {
    pr::WriteCsv(csv_path,
                 {"model", "HL", "strategy", "run_time_s", "updates",
                  "per_update_s", "final_acc", "converged"},
                 csv_rows);
    std::printf("\nCSV written to %s\n", csv_path.c_str());
  }
  return 0;
}
