// Checkpoint/restart: survive a kill -9 mid-training.
//
// First invocation trains a partial-reduce run with coordinated checkpoints
// every few iterations. If the process dies mid-training (crash, OOM kill,
// preemption), rerunning the same command finds the latest intact manifest
// in the checkpoint directory and resumes from it: replica parameters,
// optimizer momentum, per-worker iteration counters, and the controller's
// group-history window all come back from disk, and the run finishes the
// remaining budget.
//
//   ./checkpoint_restart /tmp/pr_ckpt     # start (or resume) a run
//   kill -9 <pid>                         # at any point
//   ./checkpoint_restart /tmp/pr_ckpt     # picks up at the last manifest
//
// The CI crash-restart smoke job drives exactly this sequence.

#include <unistd.h>

#include <cstdio>
#include <string>

#include "ckpt/manifest.h"
#include "train/run.h"

namespace {

pr::RunConfig MakeConfig(const std::string& ckpt_dir) {
  pr::RunConfig config;
  config.run.num_workers = 4;
  config.run.iterations_per_worker = 60;
  config.run.model.hidden = {32};
  config.run.batch_size = 32;

  config.run.dataset.num_classes = 10;
  config.run.dataset.dim = 32;
  config.run.dataset.num_train = 4096;
  config.run.dataset.num_test = 1024;
  config.run.dataset.separation = 3.2;

  // Slow the workers down enough that a run takes a few seconds — long
  // enough to kill it somewhere interesting.
  config.run.worker_delay_seconds.assign(4, 0.03);

  config.strategy.kind = pr::StrategyKind::kPReduceConst;
  config.strategy.group_size = 2;

  config.run.ckpt.dir = ckpt_dir;
  config.run.ckpt.every_iterations = 5;
  return config;
}

void PrintResult(const char* label, const pr::RunResult& result,
                 size_t budget) {
  std::printf("%s: final loss %.4f, accuracy %.3f\n", label,
              result.final_loss, result.final_accuracy);
  for (size_t w = 0; w < result.worker_iterations.size(); ++w) {
    std::printf("  worker %zu: %zu/%zu iterations\n", w,
                result.worker_iterations[w], budget);
  }
  std::printf("  manifests written this run: %.0f, restores: %.0f\n",
              result.metrics.counter("ckpt.manifests_written"),
              result.metrics.counter("ckpt.restore_count"));
}

}  // namespace

int main(int argc, char** argv) {
  const std::string ckpt_dir = argc > 1 ? argv[1] : "/tmp/pr_ckpt_example";
  const pr::RunConfig config = MakeConfig(ckpt_dir);
  const size_t budget = config.run.iterations_per_worker;

  pr::RunManifest manifest;
  std::string manifest_path;
  pr::RunResult result;
  if (pr::FindLatestManifest(ckpt_dir, &manifest, &manifest_path).ok()) {
    std::printf("Resuming from %s (epoch %llu, %llu updates done)...\n",
                manifest_path.c_str(),
                static_cast<unsigned long long>(manifest.epoch),
                static_cast<unsigned long long>(manifest.updates_done));
    result = pr::ResumeRun(config, pr::EngineKind::kThreaded, manifest_path);
    PrintResult("resumed run", result, budget);
  } else {
    std::printf("No manifest under %s — starting fresh (pid %d).\n",
                ckpt_dir.c_str(), static_cast<int>(::getpid()));
    result = pr::StartRun(config, pr::EngineKind::kThreaded);
    PrintResult("fresh run", result, budget);
  }

  // A completed run (fresh or resumed) must have spent the full budget on
  // every worker; the CI smoke test checks this exit code after the kill.
  for (size_t iters : result.worker_iterations) {
    if (iters != budget) {
      std::printf("FAILED: a worker stopped short of its budget\n");
      return 1;
    }
  }
  std::printf("run complete\n");
  return 0;
}
