// Every synchronization scheme from the paper on real threads: trains the
// same synthetic workload, with one injected straggler, under the PS family
// (BSP/ASP/HETE/BK), all-reduce, eager-reduce, AD-PSGD, and both partial
// reduce variants — all through the one StartRun entry point — and
// compares wall time, update counts, accuracy, and when the fastest worker
// finished.

#include <algorithm>
#include <cstdio>
#include <vector>

#include "train/report.h"
#include "train/run.h"

namespace {

pr::SyntheticSpec DemoDataset() {
  pr::SyntheticSpec spec;
  spec.num_classes = 10;
  spec.dim = 32;
  spec.num_train = 4096;
  spec.num_test = 1024;
  spec.separation = 3.0;
  return spec;
}

}  // namespace

int main() {
  pr::RunConfig config;
  config.run.num_workers = 4;
  config.run.iterations_per_worker = 60;
  config.run.dataset = DemoDataset();
  // Worker 3 sleeps 6 ms per iteration, the others 1 ms.
  config.run.worker_delay_seconds = {0.001, 0.001, 0.001, 0.006};

  std::printf("Threaded runtimes, N=%d, %zu iterations/worker, one "
              "straggler.\n\n",
              config.run.num_workers, config.run.iterations_per_worker);
  pr::TablePrinter table(
      {"strategy", "wall (s)", "updates", "accuracy", "fastest done (s)"});

  const pr::StrategyKind kinds[] = {
      pr::StrategyKind::kPsBsp,        pr::StrategyKind::kPsAsp,
      pr::StrategyKind::kPsHete,       pr::StrategyKind::kPsBackup,
      pr::StrategyKind::kAllReduce,    pr::StrategyKind::kEagerReduce,
      pr::StrategyKind::kAdPsgd,       pr::StrategyKind::kPReduceConst,
      pr::StrategyKind::kPReduceDynamic};

  std::vector<uint64_t> asp_staleness;
  for (pr::StrategyKind kind : kinds) {
    config.strategy.kind = kind;
    config.strategy.group_size = 2;
    config.strategy.backup_workers = 1;
    const pr::RunResult result =
        pr::StartRun(config, pr::EngineKind::kThreaded);
    const double fastest =
        *std::min_element(result.worker_finish_seconds.begin(),
                          result.worker_finish_seconds.end());
    table.AddRow({result.strategy,
                  pr::FormatDouble(result.clock_seconds, 3),
                  std::to_string(result.updates),
                  pr::FormatDouble(result.final_accuracy, 3),
                  pr::FormatDouble(fastest, 3)});
    if (kind == pr::StrategyKind::kPsAsp) {
      // Per-staleness push counts from the ps.push_staleness histogram
      // (bucket i holds pushes at staleness <= upper_bounds[i]).
      const pr::HistogramSnapshot* hist =
          result.metrics.histogram("ps.push_staleness");
      if (hist != nullptr) asp_staleness = hist->counts;
    }
  }

  table.Print();
  std::printf("\nASP staleness histogram (pushes at staleness s): ");
  for (size_t s = 0; s < asp_staleness.size() && s < 8; ++s) {
    std::printf("s=%zu:%llu ", s,
                static_cast<unsigned long long>(asp_staleness[s]));
  }
  std::printf(
      "\n\nBSP pays the straggler every round; ASP avoids the wait but its\n"
      "pushes arrive stale (histogram above); P-Reduce keeps fast workers\n"
      "moving with neither a central model nor stale gradients.\n");
  return 0;
}
