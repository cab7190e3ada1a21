#include <gtest/gtest.h>

#include <cmath>

#include "sim/sim_training.h"
#include "train/run.h"

namespace pr {
namespace {

RunConfig SmallOptions() {
  RunConfig opt = PaperSimConfig();
  opt.run.num_workers = 4;
  opt.run.model.hidden = {16};
  opt.run.batch_size = 16;
  SyntheticSpec spec;
  spec.num_train = 512;
  spec.num_test = 128;
  spec.dim = 16;
  spec.num_classes = 4;
  opt.run.dataset = spec;
  opt.sim.eval_every = 10;
  opt.sim.max_updates = 1000;
  opt.run.seed = 2;
  return opt;
}

TEST(SimTrainingTest, ReplicasStartIdentical) {
  SimTraining ctx(SmallOptions());
  for (int w = 1; w < ctx.num_workers(); ++w) {
    EXPECT_EQ(ctx.params(0), ctx.params(w));
  }
}

TEST(SimTrainingTest, ComputeTimesArePositiveAndHeterogeneityAware) {
  RunConfig opt = SmallOptions();
  opt.sim.hetero = HeteroSpec::GpuSharing(2);
  SimTraining ctx(opt);
  double shared = 0.0, dedicated = 0.0;
  for (int i = 0; i < 500; ++i) {
    shared += ctx.SampleComputeSeconds(0);     // worker 0 shares a GPU
    dedicated += ctx.SampleComputeSeconds(3);  // worker 3 is dedicated
  }
  EXPECT_GT(shared, 1.5 * dedicated);
}

TEST(SimTrainingTest, GradientAtSnapshotUsesSnapshotNotCurrent) {
  SimTraining ctx(SmallOptions());
  ctx.TakeSnapshot(0);
  // Perturb current params massively; snapshot gradient must be unaffected.
  std::vector<float> grad_before;
  // Note: the sampler advances per call, so compare via two contexts with
  // the same seed instead.
  SimTraining ctx2(SmallOptions());
  ctx2.TakeSnapshot(0);
  for (auto& p : ctx2.params(0)) p += 100.0f;
  std::vector<float> g1, g2;
  ctx.GradientAtSnapshot(0, &g1);
  ctx2.GradientAtSnapshot(0, &g2);
  EXPECT_EQ(g1, g2);
  (void)grad_before;
}

TEST(SimTrainingTest, LocalStepChangesOnlyThatWorker) {
  SimTraining ctx(SmallOptions());
  std::vector<float> grad(ctx.num_params(), 0.1f);
  const auto before1 = ctx.params(1);
  ctx.LocalStep(0, grad.data());
  EXPECT_NE(ctx.params(0), before1);
  EXPECT_EQ(ctx.params(1), before1);
}

TEST(SimTrainingTest, RecordUpdateCountsAndIntervals) {
  SimTraining ctx(SmallOptions());
  ctx.engine()->ScheduleAt(1.0, [&] { ctx.RecordUpdate(); });
  ctx.engine()->ScheduleAt(3.0, [&] { ctx.RecordUpdate(); });
  while (ctx.engine()->RunOne()) {
  }
  EXPECT_EQ(ctx.updates(), 2u);
  RunResult result = ctx.BuildResult("test");
  ASSERT_EQ(result.update_intervals.size(), 2u);
  EXPECT_DOUBLE_EQ(result.update_intervals.samples()[0], 1.0);
  EXPECT_DOUBLE_EQ(result.update_intervals.samples()[1], 2.0);
  EXPECT_DOUBLE_EQ(result.per_update_seconds, 1.5);
}

TEST(SimTrainingTest, StopsAtMaxUpdates) {
  RunConfig opt = SmallOptions();
  opt.sim.max_updates = 5;
  opt.sim.accuracy_threshold = 2.0;  // unreachable
  SimTraining ctx(opt);
  for (int i = 0; i < 10; ++i) ctx.RecordUpdate();
  EXPECT_TRUE(ctx.stopped());
}

TEST(SimTrainingTest, TimingOnlySkipsMathAndStopsAtBudget) {
  RunConfig opt = SmallOptions();
  opt.sim.timing_only = true;
  opt.sim.timing_updates = 7;
  SimTraining ctx(opt);
  std::vector<float> grad;
  const float loss = ctx.GradientAtSnapshot(0, &grad);
  EXPECT_EQ(loss, 0.0f);
  for (float g : grad) EXPECT_EQ(g, 0.0f);
  for (int i = 0; i < 7; ++i) ctx.RecordUpdate();
  EXPECT_TRUE(ctx.stopped());
  RunResult result = ctx.BuildResult("t");
  EXPECT_EQ(result.updates, 7u);
  EXPECT_TRUE(result.curve.empty());
}

TEST(SimTrainingTest, ConvergenceStopsAtThreshold) {
  RunConfig opt = SmallOptions();
  opt.sim.accuracy_threshold = -1.0;  // disabled
  SimTraining ctx(opt);
  ctx.EvaluateNow();
  EXPECT_FALSE(ctx.stopped());

  RunConfig opt2 = SmallOptions();
  opt2.sim.accuracy_threshold = 0.01;  // trivially reached even untrained
  SimTraining ctx2(opt2);
  ctx2.EvaluateNow();
  EXPECT_TRUE(ctx2.stopped());
  RunResult r = ctx2.BuildResult("t");
  EXPECT_TRUE(r.converged);
}

TEST(SimTrainingTest, EvalProviderOverridesDefault) {
  SimTraining ctx(SmallOptions());
  // Provider hands back a zero model: accuracy should be chance-like and
  // loss near log(num_classes), regardless of worker replicas.
  std::vector<float> zeros(ctx.num_params(), 0.0f);
  ctx.SetEvalProvider([&]() { return zeros.data(); });
  ctx.EvaluateNow();
  RunResult r = ctx.BuildResult("t");
  ASSERT_FALSE(r.curve.empty());
  EXPECT_NEAR(r.curve.back().loss, std::log(4.0), 0.05);
}

TEST(SimTrainingTest, WaitAccountingAccumulates) {
  SimTraining ctx(SmallOptions());
  ctx.engine()->ScheduleAt(1.0, [&] { ctx.MarkWaitStart(0); });
  ctx.engine()->ScheduleAt(4.0, [&] { ctx.MarkWaitEnd(0); });
  while (ctx.engine()->RunOne()) {
  }
  RunResult r = ctx.BuildResult("t");
  // Worker 0 waited 3 of 4 seconds; others none. Mean = 0.75/4.
  EXPECT_NEAR(r.mean_idle_fraction, 0.75 / 4.0, 1e-9);
}

TEST(SimTrainingTest, UnfinishedWaitCountsUpToEnd) {
  SimTraining ctx(SmallOptions());
  ctx.engine()->ScheduleAt(2.0, [&] { ctx.MarkWaitStart(1); });
  ctx.engine()->ScheduleAt(4.0, [] {});
  while (ctx.engine()->RunOne()) {
  }
  RunResult r = ctx.BuildResult("t");
  EXPECT_NEAR(r.mean_idle_fraction, (2.0 / 4.0) / 4.0, 1e-9);
}

TEST(SimTrainingTest, IterationCounters) {
  SimTraining ctx(SmallOptions());
  EXPECT_EQ(ctx.iteration(2), 0);
  ctx.increment_iteration(2);
  ctx.increment_iteration(2);
  EXPECT_EQ(ctx.iteration(2), 2);
  ctx.set_iteration(2, 10);
  EXPECT_EQ(ctx.iteration(2), 10);
  EXPECT_EQ(ctx.iteration(1), 0);
}

TEST(SimTrainingTest, LrDecayAppliedByUpdateCount) {
  RunConfig opt = SmallOptions();
  opt.sim.lr_decay.enabled = true;
  opt.sim.lr_decay.factor = 0.1;
  opt.sim.lr_decay.every_updates = 2;
  opt.run.sgd.learning_rate = 1.0;
  opt.run.sgd.momentum = 0.0;
  opt.run.sgd.weight_decay = 0.0;
  opt.sim.accuracy_threshold = -1.0;
  SimTraining ctx(opt);

  std::vector<float> grad(ctx.num_params(), 1.0f);
  const float before = ctx.params(0)[0];
  ctx.LocalStep(0, grad.data());
  EXPECT_NEAR(ctx.params(0)[0], before - 1.0f, 1e-5);

  ctx.RecordUpdate();
  ctx.RecordUpdate();  // now stage 1 -> lr 0.1
  const float mid = ctx.params(0)[0];
  ctx.LocalStep(0, grad.data());
  EXPECT_NEAR(ctx.params(0)[0], mid - 0.1f, 1e-5);
}

}  // namespace
}  // namespace pr
