// Quickstart: train a classifier with partial reduce on real threads.
//
// Four worker threads train MLP replicas on shards of a synthetic 10-class
// dataset. Worker 3 is an injected straggler (3x slower). The controller
// forms groups of P=2 from ready signals, so the fast workers keep making
// progress while the straggler catches up — no global barrier. The headline
// number is when the *fast* workers finish their iteration budget: under
// all-reduce they are dragged to the straggler's pace; under partial reduce
// they are not.

#include <algorithm>
#include <cstdio>

#include "train/run.h"

namespace {

double FastestFinish(const pr::RunResult& result) {
  return *std::min_element(result.worker_finish_seconds.begin(),
                           result.worker_finish_seconds.end());
}

}  // namespace

int main() {
  pr::RunConfig config;
  config.run.num_workers = 4;
  config.run.iterations_per_worker = 80;
  config.run.model.hidden = {32};
  config.run.batch_size = 32;

  config.run.dataset.num_classes = 10;
  config.run.dataset.dim = 32;
  config.run.dataset.num_train = 4096;
  config.run.dataset.num_test = 1024;
  config.run.dataset.separation = 3.2;

  // Heterogeneity: worker 3 sleeps 6 ms per iteration, the others 2 ms.
  config.run.worker_delay_seconds = {0.002, 0.002, 0.002, 0.006};

  config.strategy.kind = pr::StrategyKind::kPReduceConst;
  config.strategy.group_size = 2;

  std::printf("Training with partial reduce (N=%d, P=%d)...\n",
              config.run.num_workers, config.strategy.group_size);
  // StartRun is the engine-agnostic entry: the same config also runs under
  // the discrete-event simulator with EngineKind::kSim.
  const pr::RunResult result =
      pr::StartRun(config, pr::EngineKind::kThreaded);

  std::printf("fast worker finished at : %.3f s\n", FastestFinish(result));
  std::printf("straggler finished at   : %.3f s\n",
              result.worker_finish_seconds.back());
  std::printf("group reduces           : %llu\n",
              static_cast<unsigned long long>(result.updates));
  std::printf("final accuracy          : %.3f\n", result.final_accuracy);
  std::printf("replica spread          : %.4f (L-inf across models)\n",
              result.replica_spread);

  // Same workload under classic all-reduce: every iteration waits for the
  // straggler, so even the fast workers finish at the straggler's pace.
  std::printf("\nSame workload with all-reduce (global barrier)...\n");
  config.strategy.kind = pr::StrategyKind::kAllReduce;
  const pr::RunResult ar = pr::StartRun(config, pr::EngineKind::kThreaded);
  std::printf("fast worker finished at : %.3f s\n", FastestFinish(ar));
  std::printf("final accuracy          : %.3f\n", ar.final_accuracy);

  std::printf(
      "\nFast-worker completion speedup (AR / P-Reduce): %.2fx\n"
      "Under the barrier, fast workers run at the straggler's pace;\n"
      "partial reduce lets them proceed and still reach consensus.\n",
      FastestFinish(ar) / FastestFinish(result));
  return 0;
}
