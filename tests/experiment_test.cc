#include <gtest/gtest.h>

#include "train/run.h"

namespace pr {
namespace {

RunConfig TinyConfig() {
  RunConfig config = PaperSimConfig();
  config.run.num_workers = 4;
  config.sim.timing_only = true;
  config.sim.timing_updates = 100;
  config.run.seed = 1;
  config.strategy.kind = StrategyKind::kPReduceConst;
  config.strategy.group_size = 2;
  return config;
}

TEST(ExperimentTest, RunsToUpdateBudget) {
  RunResult result = StartRun(TinyConfig(), EngineKind::kSim);
  EXPECT_EQ(result.updates, 100u);
  EXPECT_EQ(result.strategy, "CON");
  EXPECT_GT(result.clock_seconds, 0.0);
}

TEST(ExperimentTest, PerUpdateIsTimeOverUpdates) {
  RunResult result = StartRun(TinyConfig(), EngineKind::kSim);
  EXPECT_NEAR(result.per_update_seconds,
              result.clock_seconds / static_cast<double>(result.updates),
              1e-12);
}

TEST(ExperimentTest, MaxSimSecondsCapsRun) {
  RunConfig config = TinyConfig();
  config.sim.timing_updates = 1000000;
  config.sim.max_sim_seconds = 5.0;
  RunResult result = StartRun(config, EngineKind::kSim);
  EXPECT_LE(result.clock_seconds, 5.0 + 1.0);  // last event may land past cap
  EXPECT_LT(result.updates, 1000000u);
}

TEST(ExperimentTest, SeedsChangeTimingUnderHeterogeneity) {
  RunConfig config = TinyConfig();
  config.sim.hetero = HeteroSpec::Production();
  RunResult a = StartRun(config, EngineKind::kSim);
  config.run.seed = 2;
  RunResult b = StartRun(config, EngineKind::kSim);
  EXPECT_NE(a.clock_seconds, b.clock_seconds);
}

TEST(ExperimentSeedsTest, AggregatesAcrossSeeds) {
  RunConfig config = TinyConfig();
  config.sim.hetero = HeteroSpec::Production();
  AggregateResult agg = RunExperimentSeeds(config, 3);
  EXPECT_EQ(agg.num_runs, 3u);
  EXPECT_EQ(agg.runs.size(), 3u);
  EXPECT_EQ(agg.strategy, "CON");
  double mean = 0.0;
  for (const auto& run : agg.runs) mean += run.clock_seconds / 3.0;
  EXPECT_NEAR(agg.mean_run_time, mean, 1e-9);
}

TEST(ExperimentSeedsTest, ConvergenceCounting) {
  RunConfig config = PaperSimConfig();
  config.run.num_workers = 4;
  config.run.model.hidden = {16};
  SyntheticSpec spec;
  spec.num_train = 512;
  spec.num_test = 256;
  spec.dim = 16;
  spec.num_classes = 2;
  spec.separation = 5.0;
  config.run.dataset = spec;
  config.sim.accuracy_threshold = 0.85;
  config.sim.max_updates = 3000;
  config.sim.eval_every = 10;
  config.strategy.kind = StrategyKind::kAllReduce;
  AggregateResult agg = RunExperimentSeeds(config, 2);
  EXPECT_TRUE(agg.AllConverged());
  EXPECT_GT(agg.mean_final_accuracy, 0.8);
}

}  // namespace
}  // namespace pr
