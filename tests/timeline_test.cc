#include <gtest/gtest.h>

#include "sim/sim_training.h"
#include "sim/timeline.h"
#include "train/run.h"

namespace pr {
namespace {

TEST(TimelineTest, RecordsAndTotals) {
  Timeline t(2);
  t.Record(0, WorkerActivity::kCompute, 0.0, 2.0);
  t.Record(0, WorkerActivity::kIdle, 2.0, 3.0);
  t.Record(0, WorkerActivity::kCompute, 3.0, 4.5);
  t.Record(1, WorkerActivity::kComm, 1.0, 2.0);
  EXPECT_DOUBLE_EQ(t.TotalTime(0, WorkerActivity::kCompute), 3.5);
  EXPECT_DOUBLE_EQ(t.TotalTime(0, WorkerActivity::kIdle), 1.0);
  EXPECT_DOUBLE_EQ(t.TotalTime(0, WorkerActivity::kComm), 0.0);
  EXPECT_DOUBLE_EQ(t.TotalTime(1, WorkerActivity::kComm), 1.0);
  EXPECT_DOUBLE_EQ(t.EndTime(), 4.5);
}

TEST(TimelineTest, ZeroLengthIntervalsIgnored) {
  Timeline t(1);
  t.Record(0, WorkerActivity::kCompute, 1.0, 1.0);
  EXPECT_TRUE(t.intervals().empty());
}

TEST(TimelineTest, ActivityChars) {
  EXPECT_EQ(ActivityChar(WorkerActivity::kCompute), '#');
  EXPECT_EQ(ActivityChar(WorkerActivity::kComm), '=');
  EXPECT_EQ(ActivityChar(WorkerActivity::kIdle), '.');
}

TEST(TimelineTest, RenderAsciiShowsDominantActivity) {
  Timeline t(1);
  t.Record(0, WorkerActivity::kCompute, 0.0, 5.0);
  t.Record(0, WorkerActivity::kIdle, 5.0, 10.0);
  const std::string render = t.RenderAscii(0.0, 10.0, 10);
  // One row: 5 compute cells then 5 idle cells.
  EXPECT_NE(render.find("#####....."), std::string::npos);
}

TEST(TimelineTest, RenderAsciiEmptyCellsAreSpaces) {
  Timeline t(1);
  t.Record(0, WorkerActivity::kCompute, 0.0, 1.0);
  const std::string render = t.RenderAscii(0.0, 4.0, 4);
  EXPECT_NE(render.find("#   "), std::string::npos);
}

TEST(TimelineTest, RenderHasOneRowPerWorker) {
  Timeline t(3);
  const std::string render = t.RenderAscii(0.0, 1.0, 5);
  EXPECT_EQ(std::count(render.begin(), render.end(), '\n'), 3);
}

TEST(TimelineIntegrationTest, AllReduceTimelineCoversRun) {
  RunConfig config = PaperSimConfig();
  config.run.num_workers = 3;
  config.sim.timing_only = true;
  config.sim.timing_updates = 50;
  config.run.record_timeline = true;
  config.run.seed = 3;
  config.strategy.kind = StrategyKind::kAllReduce;

  SimTraining ctx(config);
  auto strategy = MakeStrategy(config.strategy, &ctx);
  strategy->Start();
  ctx.engine()->RunUntil([&] { return ctx.stopped(); });

  const Timeline* timeline = ctx.timeline();
  ASSERT_NE(timeline, nullptr);
  // Every worker's compute + comm + idle should cover most of the run
  // (small tail slack for the last in-flight intervals).
  const double end = ctx.engine()->now();
  for (int w = 0; w < 3; ++w) {
    const double covered =
        timeline->TotalTime(w, WorkerActivity::kCompute) +
        timeline->TotalTime(w, WorkerActivity::kComm) +
        timeline->TotalTime(w, WorkerActivity::kIdle);
    EXPECT_GT(covered, 0.9 * end) << "worker " << w;
    EXPECT_LT(covered, 1.1 * end) << "worker " << w;
  }
  // AR must show nonzero idle for the fast workers under jitter, and comm
  // for everyone.
  double total_comm = 0.0;
  for (int w = 0; w < 3; ++w) {
    total_comm += timeline->TotalTime(w, WorkerActivity::kComm);
  }
  EXPECT_GT(total_comm, 0.0);
}

TEST(TimelineIntegrationTest, PReduceIdleBelowAllReduceUnderStraggler) {
  auto run = [](StrategyKind kind, int p) {
    RunConfig config = PaperSimConfig();
    config.run.num_workers = 3;
    config.sim.timing_only = true;
    config.sim.timing_updates = 300;
    config.run.record_timeline = true;
    config.sim.hetero = HeteroSpec::FixedFactors({2.0, 1.0, 1.0});
    config.run.seed = 9;
    config.strategy.kind = kind;
    config.strategy.group_size = p;
    SimTraining ctx(config);
    auto strategy = MakeStrategy(config.strategy, &ctx);
    strategy->Start();
    ctx.engine()->RunUntil([&] { return ctx.stopped(); });
    double idle = 0.0;
    for (int w = 0; w < 3; ++w) {
      idle += ctx.timeline()->TotalTime(w, WorkerActivity::kIdle);
    }
    return idle / ctx.engine()->now();
  };
  EXPECT_LT(run(StrategyKind::kPReduceConst, 2),
            run(StrategyKind::kAllReduce, 3));
}

TEST(TimelineIntegrationTest, DisabledByDefault) {
  RunConfig config = PaperSimConfig();
  config.run.num_workers = 2;
  config.sim.timing_only = true;
  config.sim.timing_updates = 5;
  SimTraining ctx(config);
  EXPECT_EQ(ctx.timeline(), nullptr);
}

}  // namespace
}  // namespace pr
