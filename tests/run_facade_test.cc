#include <gtest/gtest.h>

#include <filesystem>
#include <string>

#include "ckpt/manifest.h"
#include "train/run.h"

namespace pr {
namespace {

RunConfig SmallConfig() {
  RunConfig config;
  config.strategy.kind = StrategyKind::kPReduceConst;
  config.strategy.group_size = 2;
  config.run.num_workers = 3;
  config.run.iterations_per_worker = 6;
  config.run.batch_size = 8;
  config.run.model.hidden = {8};
  config.run.dataset.num_train = 96;
  config.run.dataset.num_test = 48;
  config.run.dataset.dim = 8;
  config.run.dataset.num_classes = 3;
  config.run.seed = 11;
  return config;
}

TEST(EngineKindTest, NamesRoundTrip) {
  for (EngineKind kind : {EngineKind::kThreaded, EngineKind::kSim}) {
    EngineKind parsed = EngineKind::kThreaded;
    ASSERT_TRUE(ParseEngineKind(EngineKindName(kind), &parsed));
    EXPECT_EQ(parsed, kind);
  }
  EngineKind parsed = EngineKind::kThreaded;
  EXPECT_FALSE(ParseEngineKind("warp", &parsed));
}

TEST(StartRunTest, ThreadedOutcomeMatchesDirectEntryPoint) {
  const RunConfig config = SmallConfig();
  RunOutcome outcome = StartRun(config, EngineKind::kThreaded);
  EXPECT_EQ(outcome.engine, EngineKind::kThreaded);
  EXPECT_EQ(outcome.strategy, "CON");
  EXPECT_GT(outcome.sync_rounds, 0u);
  EXPECT_GT(outcome.clock_seconds, 0.0);
  // The engine-specific record is the full ThreadedRunResult.
  ASSERT_EQ(outcome.threaded.worker_iterations.size(), 3u);
  for (size_t iterations : outcome.threaded.worker_iterations) {
    EXPECT_EQ(iterations, 6u);
  }
  EXPECT_DOUBLE_EQ(outcome.final_accuracy, outcome.threaded.final_accuracy);
  EXPECT_GT(outcome.metrics.counter("worker.0.iterations"), 0.0);
}

TEST(StartRunTest, SimEngineRunsTheSameConfig) {
  const RunConfig config = SmallConfig();
  RunOutcome outcome = StartRun(config, EngineKind::kSim);
  EXPECT_EQ(outcome.engine, EngineKind::kSim);
  EXPECT_EQ(outcome.strategy, "CON");
  // 3 workers x 6 iterations / group_size 2 = 9 global updates.
  EXPECT_EQ(outcome.sync_rounds, 9u);
  EXPECT_GT(outcome.clock_seconds, 0.0);
  EXPECT_EQ(outcome.sim.updates, outcome.sync_rounds);
}

TEST(StartRunTest, SimBudgetMatchesStrategySemantics) {
  RunConfig config = SmallConfig();
  config.strategy.kind = StrategyKind::kAllReduce;
  // 3 x 6 gradients / 3 per round = 6 rounds.
  EXPECT_EQ(ToExperimentConfig(config).training.max_updates, 6u);
  config.strategy.kind = StrategyKind::kPsAsp;
  EXPECT_EQ(ToExperimentConfig(config).training.max_updates, 18u);
  // Eager-Reduce rounds close at the majority quorum floor(3/2) + 1 = 2.
  config.strategy.kind = StrategyKind::kEagerReduce;
  EXPECT_EQ(ToExperimentConfig(config).training.max_updates, 9u);
}

TEST(ResumeRunTest, ThreadedResumeContinuesFromManifest) {
  const std::string dir =
      (std::filesystem::temp_directory_path() / "pr_facade_resume").string();
  std::filesystem::remove_all(dir);

  RunConfig config = SmallConfig();
  config.run.ckpt.dir = dir;
  config.run.ckpt.every_iterations = 2;
  RunOutcome first = StartRun(config, EngineKind::kThreaded);
  EXPECT_GT(first.final_accuracy, 0.0);

  RunManifest manifest;
  std::string manifest_path;
  Status found = FindLatestManifest(dir, &manifest, &manifest_path);
  ASSERT_TRUE(found.ok()) << found.message();
  RunOutcome resumed =
      ResumeRun(config, EngineKind::kThreaded, manifest_path);
  EXPECT_EQ(resumed.engine, EngineKind::kThreaded);
  // The resumed run restores from the last epoch and finishes the budget.
  EXPECT_EQ(resumed.metrics.counter("ckpt.restore_count"), 1.0);
  ASSERT_EQ(resumed.threaded.worker_iterations.size(), 3u);
  for (size_t iterations : resumed.threaded.worker_iterations) {
    EXPECT_EQ(iterations, 6u);
  }
  std::filesystem::remove_all(dir);
}

TEST(ResumeRunTest, SimResumeContinuesFromManifest) {
  const std::string dir =
      (std::filesystem::temp_directory_path() / "pr_facade_sim_resume")
          .string();
  std::filesystem::remove_all(dir);

  RunConfig config = SmallConfig();
  config.run.ckpt.dir = dir;
  config.run.ckpt.every_iterations = 2;
  // The sim cuts on the same key as the threaded engine.
  RunOutcome first = StartRun(config, EngineKind::kSim);
  EXPECT_GE(first.metrics.counter("ckpt.manifests_written"), 1.0);

  RunManifest manifest;
  std::string manifest_path;
  Status found = FindLatestManifest(dir, &manifest, &manifest_path);
  ASSERT_TRUE(found.ok()) << found.message();
  EXPECT_EQ(manifest.engine, "sim");
  RunOutcome resumed = ResumeRun(config, EngineKind::kSim, manifest_path);
  EXPECT_EQ(resumed.engine, EngineKind::kSim);
  EXPECT_EQ(resumed.metrics.counter("ckpt.restore_count"), 1.0);
  // The resumed run picks up the update count at the cut and finishes the
  // same budget.
  EXPECT_EQ(resumed.sim.updates, first.sim.updates);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace pr
