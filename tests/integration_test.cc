// Cross-module integration tests: end-to-end properties the paper's
// evaluation relies on, checked at small scale so they stay fast.

#include <gtest/gtest.h>

#include "core/spectral.h"
#include "sim/sim_training.h"
#include "train/run.h"

namespace pr {
namespace {

RunConfig BaseConfig() {
  RunConfig config = PaperSimConfig();
  config.run.num_workers = 8;
  config.run.model.hidden = {16};
  config.run.batch_size = 16;
  SyntheticSpec spec;
  spec.num_train = 2048;
  spec.num_test = 512;
  spec.dim = 16;
  spec.num_classes = 4;
  spec.separation = 3.0;
  config.run.dataset = spec;
  config.sim.paper_model = "resnet34";
  config.sim.accuracy_threshold = 0.9;
  config.sim.max_updates = 8000;
  config.sim.eval_every = 25;
  config.run.seed = 21;
  config.strategy.group_size = 3;
  return config;
}

TEST(IntegrationTest, PReduceBeatsAllReduceUnderHeterogeneity) {
  // The paper's headline: under HL>1, P-Reduce's total run time beats AR.
  RunConfig ar = BaseConfig();
  ar.strategy.kind = StrategyKind::kAllReduce;
  ar.sim.hetero = HeteroSpec::GpuSharing(3);
  RunConfig con = BaseConfig();
  con.strategy.kind = StrategyKind::kPReduceConst;
  con.sim.hetero = HeteroSpec::GpuSharing(3);

  auto r_ar = StartRun(ar, EngineKind::kSim);
  auto r_con = StartRun(con, EngineKind::kSim);
  ASSERT_TRUE(r_ar.converged);
  ASSERT_TRUE(r_con.converged);
  EXPECT_LT(r_con.clock_seconds, r_ar.clock_seconds);
}

TEST(IntegrationTest, PReducePerUpdateTimeWellBelowAllReduce) {
  RunConfig ar = BaseConfig();
  ar.strategy.kind = StrategyKind::kAllReduce;
  ar.sim.hetero = HeteroSpec::GpuSharing(3);
  RunConfig con = BaseConfig();
  con.strategy.kind = StrategyKind::kPReduceConst;
  con.sim.hetero = HeteroSpec::GpuSharing(3);

  auto r_ar = StartRun(ar, EngineKind::kSim);
  auto r_con = StartRun(con, EngineKind::kSim);
  EXPECT_LT(r_con.per_update_seconds, 0.5 * r_ar.per_update_seconds);
}

TEST(IntegrationTest, PReduceNeedsMoreUpdatesButLessTime) {
  // Table 1 shape: #updates(P-Reduce) > #updates(AR), run time smaller.
  RunConfig ar = BaseConfig();
  ar.strategy.kind = StrategyKind::kAllReduce;
  ar.sim.hetero = HeteroSpec::GpuSharing(3);
  RunConfig con = BaseConfig();
  con.strategy.kind = StrategyKind::kPReduceConst;
  con.sim.hetero = HeteroSpec::GpuSharing(3);

  auto r_ar = StartRun(ar, EngineKind::kSim);
  auto r_con = StartRun(con, EngineKind::kSim);
  ASSERT_TRUE(r_ar.converged);
  ASSERT_TRUE(r_con.converged);
  EXPECT_GT(r_con.updates, r_ar.updates);
}

TEST(IntegrationTest, MeasuredRhoMatchesClosedFormInHomogeneousRun) {
  RunConfig config = BaseConfig();
  config.strategy.kind = StrategyKind::kPReduceConst;
  config.strategy.group_size = 3;
  config.strategy.record_sync_matrices = true;
  config.sim.timing_only = true;
  config.sim.timing_updates = 8000;

  SimTraining ctx(config);
  auto strategy = MakeStrategy(config.strategy, &ctx);
  strategy->Start();
  ctx.engine()->RunUntil([&] { return ctx.stopped(); });
  const double rho = SpectralRho(strategy->controller()->ExpectedSyncMatrix());
  // Homogeneous N=8, P=3: closed form 1 - 2/7 ~= 0.714. Group formation is
  // arrival-order (not i.i.d. uniform), so allow a loose band.
  EXPECT_NEAR(rho, HomogeneousRho(8, 3), 0.15);
}

TEST(IntegrationTest, HeterogeneityRaisesMeasuredRho) {
  auto measure = [](const HeteroSpec& hetero) {
    RunConfig config = PaperSimConfig();
    config.run.num_workers = 4;
    config.sim.timing_only = true;
    config.sim.timing_updates = 6000;
    config.sim.hetero = hetero;
    config.run.seed = 9;
    config.strategy.kind = StrategyKind::kPReduceConst;
    config.strategy.group_size = 2;
    config.strategy.record_sync_matrices = true;
    SimTraining ctx(config);
    auto strategy = MakeStrategy(config.strategy, &ctx);
    strategy->Start();
    ctx.engine()->RunUntil([&] { return ctx.stopped(); });
    return SpectralRho(strategy->controller()->ExpectedSyncMatrix());
  };
  const double rho_hom = measure(HeteroSpec::Homogeneous());
  const double rho_het = measure(HeteroSpec::GpuSharing(2));
  // Fig. 4's lesson: heterogeneity widens the spectral bound.
  EXPECT_GT(rho_het, rho_hom);
}

TEST(IntegrationTest, FrozenAvoidanceKeepsAccuracyUnderAdversarialDelays) {
  // Two speed classes that naturally pair with themselves (group frozen
  // risk). With avoidance on, all replicas converge together.
  HeteroSpec spec;
  spec.kind = HeteroSpec::Kind::kGpuSharing;
  spec.sharing_level = 2;
  spec.jitter_sigma = 0.001;  // nearly deterministic -> stable pairing

  RunConfig on = BaseConfig();
  on.run.num_workers = 4;
  on.strategy.kind = StrategyKind::kPReduceConst;
  on.strategy.group_size = 2;
  on.sim.hetero = spec;
  on.strategy.frozen_avoidance = true;
  auto r_on = StartRun(on, EngineKind::kSim);
  EXPECT_TRUE(r_on.converged);
}

TEST(IntegrationTest, CurvesAreMonotoneInTimeAndUpdates) {
  RunConfig config = BaseConfig();
  config.strategy.kind = StrategyKind::kPReduceConst;
  auto result = StartRun(config, EngineKind::kSim);
  ASSERT_GE(result.curve.size(), 2u);
  for (size_t i = 1; i < result.curve.size(); ++i) {
    EXPECT_GE(result.curve[i].time, result.curve[i - 1].time);
    EXPECT_GT(result.curve[i].updates, result.curve[i - 1].updates);
  }
}

TEST(IntegrationTest, ScalingWorkersReducesTimeToAccuracyForPReduce) {
  RunConfig small = BaseConfig();
  small.strategy.kind = StrategyKind::kPReduceConst;
  small.run.num_workers = 2;
  small.strategy.group_size = 2;
  RunConfig large = BaseConfig();
  large.strategy.kind = StrategyKind::kPReduceConst;
  large.run.num_workers = 8;
  large.strategy.group_size = 2;

  auto r_small = StartRun(small, EngineKind::kSim);
  auto r_large = StartRun(large, EngineKind::kSim);
  ASSERT_TRUE(r_small.converged);
  ASSERT_TRUE(r_large.converged);
  EXPECT_LT(r_large.clock_seconds, r_small.clock_seconds);
}

}  // namespace
}  // namespace pr
