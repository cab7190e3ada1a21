#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <map>
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
  RunResult outcome = StartRun(config, EngineKind::kThreaded);
  EXPECT_EQ(outcome.engine, EngineKind::kThreaded);
  EXPECT_EQ(outcome.strategy, "CON");
  EXPECT_GT(outcome.updates, 0u);
  EXPECT_GT(outcome.clock_seconds, 0.0);
  ASSERT_EQ(outcome.worker_iterations.size(), 3u);
  for (size_t iterations : outcome.worker_iterations) {
    EXPECT_EQ(iterations, 6u);
  }
  EXPECT_DOUBLE_EQ(static_cast<double>(outcome.updates),
                   outcome.metrics.counter("run.updates"));
  EXPECT_GT(outcome.metrics.counter("worker.0.iterations"), 0.0);
}

TEST(StartRunTest, SimEngineRunsTheSameConfig) {
  const RunConfig config = SmallConfig();
  RunResult outcome = StartRun(config, EngineKind::kSim);
  EXPECT_EQ(outcome.engine, EngineKind::kSim);
  EXPECT_EQ(outcome.strategy, "CON");
  // 3 workers x 6 iterations / group_size 2 = 9 global updates.
  EXPECT_EQ(outcome.updates, 9u);
  EXPECT_GT(outcome.clock_seconds, 0.0);
  EXPECT_DOUBLE_EQ(static_cast<double>(outcome.updates),
                   outcome.metrics.counter("run.updates"));
}

TEST(StartRunTest, SimBudgetMatchesStrategySemantics) {
  RunConfig config = SmallConfig();
  config.strategy.backup_workers = 1;
  auto sim_updates = [&](StrategyKind kind) {
    config.strategy.kind = kind;
    return StartRun(config, EngineKind::kSim).updates;
  };
  // 3 x 6 gradients / 3 per round = 6 rounds.
  EXPECT_EQ(sim_updates(StrategyKind::kAllReduce), 6u);
  EXPECT_EQ(sim_updates(StrategyKind::kPsAsp), 18u);
  // Eager-Reduce rounds close at the majority quorum floor(3/2) + 1 = 2.
  EXPECT_EQ(sim_updates(StrategyKind::kEagerReduce), 9u);
  // A gossip exchange averages a pair: 18 / 2.
  EXPECT_EQ(sim_updates(StrategyKind::kAdPsgd), 9u);
  // A backup-worker round counts against all N workers' budgets.
  EXPECT_EQ(sim_updates(StrategyKind::kPsBackup), 6u);
  // Dynamic partial reduce forms groups of P = 2, like CON.
  EXPECT_EQ(sim_updates(StrategyKind::kPReduceDynamic), 9u);
}

std::map<std::string, double> ScenarioCounters(const MetricsSnapshot& m) {
  std::map<std::string, double> out;
  for (const auto& [name, value] : m.counters) {
    if (name.rfind("scenario.", 0) == 0) out[name] = value;
  }
  return out;
}

size_t CountEvents(const TraceLog& trace, TraceEventKind kind, int worker) {
  return static_cast<size_t>(std::count_if(
      trace.events.begin(), trace.events.end(), [&](const TraceEvent& e) {
        return e.kind == kind && e.worker == worker;
      }));
}

TEST(StartRunTest, ScenarioChurnRunsOnBothEngines) {
  RunConfig config = SmallConfig();
  config.run.num_workers = 4;
  config.run.iterations_per_worker = 8;
  config.run.trace_capacity = 4096;
  // Scenario time means local iterations for every worker event on both
  // engines (one per 1/32 s here); a window's length runs on the engine's
  // clock. The default cost model makes a simulated step far longer than
  // any window below, and each window still takes effect: worker 1 departs
  // after 3 iterations for 0.1 s, worker 2 joins 1/16 s into the run, and
  // worker 3 (after 5 iterations) and worker 0 (at the start) sit out
  // 1/128 s.
  const double step = 1.0 / 32.0;
  const double blip = 1.0 / 128.0;
  config.run.scenario.expected_iteration_seconds = step;
  config.run.scenario.events = {
      {ScenarioEventKind::kDepart, 3 * step, /*worker=*/1, /*node=*/-1,
       /*duration=*/0.1},
      {ScenarioEventKind::kArrive, 2 * step, /*worker=*/2},
      {ScenarioEventKind::kDepart, 5 * step, /*worker=*/3, /*node=*/-1,
       /*duration=*/blip},
      {ScenarioEventKind::kArrive, blip, /*worker=*/0},
  };
  const RunResult threaded = StartRun(config, EngineKind::kThreaded);
  const RunResult sim = StartRun(config, EngineKind::kSim);

  const std::map<std::string, double> counters =
      ScenarioCounters(threaded.metrics);
  EXPECT_EQ(counters.at("scenario.departs"), 2.0);
  EXPECT_EQ(counters.at("scenario.arrives"), 2.0);
  EXPECT_EQ(counters, ScenarioCounters(sim.metrics));
  for (const RunResult* r : {&threaded, &sim}) {
    SCOPED_TRACE(EngineKindName(r->engine));
    // Every window took effect: each worker left the pool and came back.
    for (int worker : {0, 1, 2, 3}) {
      EXPECT_GE(CountEvents(r->trace, TraceEventKind::kChurnLeave, worker),
                1u)
          << "worker " << worker;
      EXPECT_GE(CountEvents(r->trace, TraceEventKind::kChurnRejoin, worker),
                1u)
          << "worker " << worker;
    }
  }
  ASSERT_EQ(threaded.worker_iterations.size(), 4u);
  for (size_t iterations : threaded.worker_iterations) {
    EXPECT_EQ(iterations, 8u);
  }
}

TEST(ResumeRunTest, ThreadedResumeContinuesFromManifest) {
  const std::string dir =
      (std::filesystem::temp_directory_path() / "pr_facade_resume").string();
  std::filesystem::remove_all(dir);

  RunConfig config = SmallConfig();
  config.run.ckpt.dir = dir;
  config.run.ckpt.every_iterations = 2;
  RunResult first = StartRun(config, EngineKind::kThreaded);
  EXPECT_GT(first.final_accuracy, 0.0);

  RunManifest manifest;
  std::string manifest_path;
  Status found = FindLatestManifest(dir, &manifest, &manifest_path);
  ASSERT_TRUE(found.ok()) << found.message();
  RunResult resumed =
      ResumeRun(config, EngineKind::kThreaded, manifest_path);
  EXPECT_EQ(resumed.engine, EngineKind::kThreaded);
  // The resumed run restores from the last epoch and finishes the budget.
  EXPECT_EQ(resumed.metrics.counter("ckpt.restore_count"), 1.0);
  ASSERT_EQ(resumed.worker_iterations.size(), 3u);
  for (size_t iterations : resumed.worker_iterations) {
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
  RunResult first = StartRun(config, EngineKind::kSim);
  EXPECT_GE(first.metrics.counter("ckpt.manifests_written"), 1.0);

  RunManifest manifest;
  std::string manifest_path;
  Status found = FindLatestManifest(dir, &manifest, &manifest_path);
  ASSERT_TRUE(found.ok()) << found.message();
  EXPECT_EQ(manifest.engine, "sim");
  RunResult resumed = ResumeRun(config, EngineKind::kSim, manifest_path);
  EXPECT_EQ(resumed.engine, EngineKind::kSim);
  EXPECT_EQ(resumed.metrics.counter("ckpt.restore_count"), 1.0);
  // The resumed run picks up the update count at the cut and finishes the
  // same budget.
  EXPECT_EQ(resumed.updates, first.updates);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace pr
