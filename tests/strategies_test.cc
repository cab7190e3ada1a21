#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "sim/sim_training.h"
#include "train/run.h"

namespace pr {
namespace {

/// Small, fast configuration shared across strategy tests.
RunConfig SmallConfig(StrategyKind kind) {
  RunConfig config = PaperSimConfig();
  config.run.num_workers = 4;
  config.run.model.hidden = {16};
  config.run.batch_size = 16;
  SyntheticSpec spec;
  spec.num_train = 1024;
  spec.num_test = 512;
  spec.dim = 16;
  spec.num_classes = 4;
  spec.separation = 3.0;
  config.run.dataset = spec;
  config.sim.paper_model = "resnet18";
  config.sim.accuracy_threshold = 0.9;
  config.sim.max_updates = 6000;
  config.sim.eval_every = 20;
  config.run.seed = 3;
  config.strategy.kind = kind;
  config.strategy.group_size = 2;
  config.strategy.backup_workers = 1;
  return config;
}

RunConfig TimingConfig(StrategyKind kind, int n, const HeteroSpec& hetero,
                       size_t updates) {
  RunConfig config = PaperSimConfig();
  config.run.num_workers = n;
  config.sim.timing_only = true;
  config.sim.timing_updates = updates;
  config.sim.hetero = hetero;
  config.sim.paper_model = "resnet34";
  config.run.seed = 7;
  config.strategy.kind = kind;
  config.strategy.group_size = 3;
  config.strategy.backup_workers = n / 4 + 1;
  return config;
}

/// Departure of `worker` at scenario second `time` for `duration` seconds.
ScenarioEvent Depart(double time, int worker, double duration) {
  return {ScenarioEventKind::kDepart, time, worker, /*node=*/-1, duration};
}
/// A departure that outlasts every run here.
constexpr double kForGood = 1e9;

/// Runs `config` with `events` on the simulator. Scenario time lands on
/// local iterations, so the trace's iteration scale is the simulated step a
/// churn-free probe run measures (bench_scenarios calibrates the same way):
/// its virtual clock over the local iterations a worker ran, P gradients
/// per update over N workers. Each departure must have fired.
RunResult RunWithChurn(RunConfig config, std::vector<ScenarioEvent> events) {
  const RunResult probe = StartRun(config, EngineKind::kSim);
  const double iterations = static_cast<double>(probe.updates) *
                            config.strategy.group_size /
                            config.run.num_workers;
  config.run.scenario.expected_iteration_seconds =
      probe.clock_seconds / iterations;
  config.run.scenario.events = std::move(events);
  config.run.trace_capacity = 1 << 16;
  RunResult result = StartRun(config, EngineKind::kSim);
  for (const ScenarioEvent& e : config.run.scenario.events) {
    EXPECT_TRUE(std::any_of(result.trace.events.begin(),
                            result.trace.events.end(),
                            [&](const TraceEvent& t) {
                              return t.kind == TraceEventKind::kChurnLeave &&
                                     t.worker == e.worker;
                            }))
        << "worker " << e.worker << "'s departure never fired";
  }
  return result;
}

class AllStrategiesTest : public ::testing::TestWithParam<StrategyKind> {};

TEST_P(AllStrategiesTest, ConvergesToThresholdOrReportsHonestly) {
  RunConfig config = SmallConfig(GetParam());
  RunResult result = StartRun(config, EngineKind::kSim);
  EXPECT_GT(result.updates, 0u);
  EXPECT_GT(result.clock_seconds, 0.0);
  // Every strategy except Eager-Reduce should reach 90% on this easy task.
  if (GetParam() != StrategyKind::kEagerReduce) {
    EXPECT_TRUE(result.converged)
        << StrategyKindName(GetParam()) << " final acc "
        << result.final_accuracy;
  }
  EXPECT_GE(result.best_accuracy, 0.2);
}

TEST_P(AllStrategiesTest, DeterministicInSeed) {
  // Timing-only runs are cheap; determinism must hold bit-for-bit.
  RunConfig config =
      TimingConfig(GetParam(), 4, HeteroSpec::Production(), 200);
  RunResult a = StartRun(config, EngineKind::kSim);
  RunResult b = StartRun(config, EngineKind::kSim);
  EXPECT_EQ(a.clock_seconds, b.clock_seconds);
  EXPECT_EQ(a.updates, b.updates);
}

INSTANTIATE_TEST_SUITE_P(
    Kinds, AllStrategiesTest,
    ::testing::Values(StrategyKind::kAllReduce, StrategyKind::kEagerReduce,
                      StrategyKind::kAdPsgd, StrategyKind::kPsBsp,
                      StrategyKind::kPsAsp, StrategyKind::kPsHete,
                      StrategyKind::kPsBackup, StrategyKind::kPReduceConst,
                      StrategyKind::kPReduceDynamic),
    [](const ::testing::TestParamInfo<StrategyKind>& info) {
      std::string name = StrategyKindName(info.param);
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

TEST(StrategyNamesTest, AllDistinct) {
  std::set<std::string> names;
  for (StrategyKind kind :
       {StrategyKind::kAllReduce, StrategyKind::kEagerReduce,
        StrategyKind::kAdPsgd, StrategyKind::kPsBsp, StrategyKind::kPsAsp,
        StrategyKind::kPsHete, StrategyKind::kPsBackup,
        StrategyKind::kPReduceConst, StrategyKind::kPReduceDynamic}) {
    names.insert(StrategyKindName(kind));
  }
  EXPECT_EQ(names.size(), 9u);
}

// ---------------------------------------------------------------------------
// Hardware-efficiency semantics (timing-only, cheap)
// ---------------------------------------------------------------------------

TEST(AllReduceSemanticsTest, RoundTimeTracksSlowestWorker) {
  // Under GPU sharing (HL=2) the straggler sets the AR round time.
  auto hom = StartRun(TimingConfig(StrategyKind::kAllReduce, 4,
                                   HeteroSpec::Homogeneous(), 200),
                      EngineKind::kSim);
  auto het = StartRun(TimingConfig(StrategyKind::kAllReduce, 4,
                                   HeteroSpec::GpuSharing(2), 200),
                      EngineKind::kSim);
  EXPECT_GT(het.per_update_seconds, 1.5 * hom.per_update_seconds);
}

TEST(PReduceSemanticsTest, LessSensitiveToStragglersThanAllReduce) {
  auto ar_h = StartRun(TimingConfig(StrategyKind::kAllReduce, 8,
                                    HeteroSpec::GpuSharing(3), 400),
                       EngineKind::kSim);
  auto pr_h = StartRun(TimingConfig(StrategyKind::kPReduceConst, 8,
                                    HeteroSpec::GpuSharing(3), 400),
                       EngineKind::kSim);
  // Normalize per-update times by gradients incorporated per update:
  // AR incorporates N per update, P-Reduce incorporates P.
  const double ar_per_grad = ar_h.per_update_seconds / 8.0;
  const double pr_per_grad = pr_h.per_update_seconds / 3.0;
  EXPECT_LT(pr_per_grad, ar_per_grad);
}

TEST(PReduceSemanticsTest, IdleFractionFarBelowAllReduce) {
  auto ar = StartRun(TimingConfig(StrategyKind::kAllReduce, 8,
                                  HeteroSpec::GpuSharing(3), 300),
                     EngineKind::kSim);
  auto pred = StartRun(TimingConfig(StrategyKind::kPReduceConst, 8,
                                    HeteroSpec::GpuSharing(3), 300),
                       EngineKind::kSim);
  EXPECT_LT(pred.mean_idle_fraction, ar.mean_idle_fraction);
}

TEST(PReduceSemanticsTest, UpdateCadenceScalesWithGroupSize) {
  // With fixed worker speed, P-Reduce emits ~N/P updates per iteration
  // span: doubling P should roughly double per-update spacing.
  auto p2 = TimingConfig(StrategyKind::kPReduceConst, 8,
                         HeteroSpec::Homogeneous(), 400);
  p2.strategy.group_size = 2;
  auto p4 = TimingConfig(StrategyKind::kPReduceConst, 8,
                         HeteroSpec::Homogeneous(), 400);
  p4.strategy.group_size = 4;
  auto r2 = StartRun(p2, EngineKind::kSim);
  auto r4 = StartRun(p4, EngineKind::kSim);
  EXPECT_GT(r4.per_update_seconds, 1.5 * r2.per_update_seconds);
}

TEST(MomentumAveragingTest, ConvergesWithMergedOptimizerState) {
  RunConfig config = SmallConfig(StrategyKind::kPReduceConst);
  config.strategy.average_momentum = true;
  RunResult result = StartRun(config, EngineKind::kSim);
  EXPECT_TRUE(result.converged);
}

TEST(MomentumAveragingTest, ChangesTrajectory) {
  // Same seed, with vs without momentum merging: trajectories must differ
  // (the knob is actually wired through).
  RunConfig base = SmallConfig(StrategyKind::kPReduceConst);
  base.sim.accuracy_threshold = -1.0;
  base.sim.max_updates = 60;
  RunConfig merged = base;
  merged.strategy.average_momentum = true;
  SimTraining a(base), b(merged);
  auto sa = MakeStrategy(base.strategy, &a);
  auto sb = MakeStrategy(merged.strategy, &b);
  sa->Start();
  sb->Start();
  a.engine()->RunUntil([&] { return a.stopped(); });
  b.engine()->RunUntil([&] { return b.stopped(); });
  EXPECT_NE(a.params(0), b.params(0));
}

TEST(ElasticMembershipTest, LeaveAndRejoinKeepsTrainingConverging) {
  RunConfig config = SmallConfig(StrategyKind::kPReduceConst);
  config.run.num_workers = 6;
  config.strategy.group_size = 2;
  // Worker 5 leaves early and rejoins later with its (stale) model.
  RunResult result =
      RunWithChurn(config, {Depart(2.0, 5, /*duration=*/28.0)});
  EXPECT_TRUE(result.converged) << "final acc " << result.final_accuracy;
}

TEST(ElasticMembershipTest, PermanentDeparturesStillConverge) {
  RunConfig config = SmallConfig(StrategyKind::kPReduceDynamic);
  config.run.num_workers = 6;
  config.strategy.group_size = 2;
  RunResult result = RunWithChurn(
      config, {Depart(1.0, 4, kForGood), Depart(3.0, 5, kForGood)});
  EXPECT_TRUE(result.converged);
}

TEST(ElasticMembershipTest, TimingOnlyChurnKeepsCadence) {
  RunConfig config =
      TimingConfig(StrategyKind::kPReduceConst, 6, HeteroSpec::Homogeneous(),
                   400);
  config.strategy.group_size = 2;
  RunResult result =
      RunWithChurn(config, {Depart(10.0, 0, /*duration=*/30.0)});
  EXPECT_EQ(result.updates, 400u);
}

TEST(OverlapSemanticsTest, OverlapSpeedsUpAllReduceOnly) {
  auto run = [](StrategyKind kind, double overlap) {
    RunConfig config =
        TimingConfig(kind, 8, HeteroSpec::Homogeneous(), 200);
    config.sim.paper_model = "vgg19";  // comm-heavy
    config.sim.cost.gradient_overlap = overlap;
    return StartRun(config, EngineKind::kSim).clock_seconds;
  };
  // AR aggregates gradients: overlap hides most of its collective.
  EXPECT_LT(run(StrategyKind::kAllReduce, 0.9),
            0.95 * run(StrategyKind::kAllReduce, 0.0));
  // P-Reduce averages models: overlap cannot apply.
  EXPECT_DOUBLE_EQ(run(StrategyKind::kPReduceConst, 0.9),
                   run(StrategyKind::kPReduceConst, 0.0));
}

TEST(PsBackupSemanticsTest, DropsStragglerGradients) {
  auto result = StartRun(TimingConfig(StrategyKind::kPsBackup, 8,
                                      HeteroSpec::GpuSharing(3), 400),
                         EngineKind::kSim);
  EXPECT_GT(result.metrics.counter("ps.wasted_gradients"), 0.0);
}

TEST(PsBackupSemanticsTest, NoWasteWithoutBackupsInHomogeneousCluster) {
  auto config = TimingConfig(StrategyKind::kPsBackup, 4,
                             HeteroSpec::Homogeneous(), 200);
  config.strategy.backup_workers = 0;
  auto result = StartRun(config, EngineKind::kSim);
  EXPECT_EQ(result.metrics.counter("ps.wasted_gradients"), 0.0);
}

TEST(PReduceSemanticsTest, FrozenAvoidanceStatsSurface) {
  auto config = TimingConfig(StrategyKind::kPReduceConst, 4,
                             HeteroSpec::Homogeneous(), 500);
  config.strategy.group_size = 2;
  auto result = StartRun(config, EngineKind::kSim);
  // Stats plumbed through (bridging may or may not trigger here; the
  // adversarial case is covered in controller_test).
  EXPECT_GE(result.controller_stats.frozen_detections, 0u);
}

// ---------------------------------------------------------------------------
// Statistical-efficiency semantics
// ---------------------------------------------------------------------------

TEST(StatisticalSemanticsTest, AsyncNeedsMoreUpdatesThanBsp) {
  // ASP counts one update per worker push, BSP one per N-gradient round;
  // per gradient consumed, staleness costs ASP efficiency. Compare
  // gradient counts to convergence: ASP >= BSP's N * rounds is not
  // guaranteed on an easy task, but ASP should need at least as many
  // gradients.
  auto bsp = StartRun(SmallConfig(StrategyKind::kPsBsp), EngineKind::kSim);
  auto asp = StartRun(SmallConfig(StrategyKind::kPsAsp), EngineKind::kSim);
  ASSERT_TRUE(bsp.converged);
  ASSERT_TRUE(asp.converged);
  // ASP counts one update per worker push; BSP one per N-gradient round.
  EXPECT_GT(asp.updates, bsp.updates);
}

TEST(StatisticalSemanticsTest, EagerReducePlateausBelowStrictThreshold) {
  RunConfig config = SmallConfig(StrategyKind::kEagerReduce);
  config.sim.hetero = HeteroSpec::GpuSharing(2);
  config.sim.accuracy_threshold = 0.93;
  config.sim.max_updates = 4000;
  auto er = StartRun(config, EngineKind::kSim);

  RunConfig ar_config = SmallConfig(StrategyKind::kAllReduce);
  ar_config.sim.hetero = HeteroSpec::GpuSharing(2);
  ar_config.sim.accuracy_threshold = 0.93;
  ar_config.sim.max_updates = 4000;
  auto ar = StartRun(ar_config, EngineKind::kSim);

  EXPECT_TRUE(ar.converged);
  EXPECT_LT(er.best_accuracy, ar.best_accuracy + 1e-9);
}

TEST(StatisticalSemanticsTest, PReduceReplicasReachConsensusAccuracy) {
  // After convergence, the averaged model must actually be good — the
  // consensus across replicas is what Alg. 2 line 8 evaluates.
  auto result =
      StartRun(SmallConfig(StrategyKind::kPReduceConst), EngineKind::kSim);
  ASSERT_TRUE(result.converged);
  EXPECT_GE(result.final_accuracy, 0.9);
}

TEST(StatisticalSemanticsTest, DynamicWeightsHelpUnderSevereStaleness) {
  // With a severe straggler, DYN should need no more updates than CON
  // (weighted aggregation damps the stale model).
  HeteroSpec severe;
  severe.kind = HeteroSpec::Kind::kGpuSharing;
  severe.sharing_level = 2;

  RunConfig con = SmallConfig(StrategyKind::kPReduceConst);
  con.sim.hetero = severe;
  con.run.seed = 13;
  RunConfig dyn = SmallConfig(StrategyKind::kPReduceDynamic);
  dyn.sim.hetero = severe;
  dyn.run.seed = 13;

  auto rc = StartRun(con, EngineKind::kSim);
  auto rd = StartRun(dyn, EngineKind::kSim);
  ASSERT_TRUE(rc.converged);
  ASSERT_TRUE(rd.converged);
  // The effect is statistical at this tiny scale; assert DYN stays in the
  // same ballpark (the directional comparison is benchmarked in
  // bench_fig5_staleness / bench_ablation_dynamic over seeds).
  EXPECT_LT(static_cast<double>(rd.updates),
            2.0 * static_cast<double>(rc.updates));
}

TEST(StatisticalSemanticsTest, AllReduceMatchesSequentialLargeBatchSgd) {
  // AR with N workers is equivalent to one worker with an N-fold batch: all
  // replicas stay identical. Verify replicas remain equal by checking the
  // evaluated accuracy equals a single replica's accuracy.
  RunConfig config = SmallConfig(StrategyKind::kAllReduce);
  config.sim.max_updates = 50;
  config.sim.accuracy_threshold = -1.0;
  SimTraining ctx(config);
  auto strategy = MakeStrategy(config.strategy, &ctx);
  strategy->Start();
  ctx.engine()->RunUntil([&] { return ctx.stopped(); });
  for (int w = 1; w < 4; ++w) {
    EXPECT_EQ(ctx.params(0), ctx.params(w)) << "replica " << w << " diverged";
  }
}

TEST(StatisticalSemanticsTest, PReduceGroupMembersLeaveWithEqualModels) {
  RunConfig config = SmallConfig(StrategyKind::kPReduceConst);
  config.strategy.group_size = 4;  // P = N: every reduce merges everyone
  config.sim.max_updates = 9;
  config.sim.accuracy_threshold = -1.0;
  SimTraining ctx(config);
  auto strategy = MakeStrategy(config.strategy, &ctx);
  strategy->Start();
  ctx.engine()->RunUntil([&] { return ctx.stopped(); });
  // With P = N the last completed reduce synchronized all replicas; any
  // replicas that have since computed diverge, so compare only pairs that
  // are in sync at the stop point is fragile. Instead check the spread is
  // bounded (all within one local step of each other).
  double spread = 0.0;
  for (size_t i = 0; i < ctx.num_params(); ++i) {
    float lo = ctx.params(0)[i], hi = lo;
    for (int w = 1; w < 4; ++w) {
      lo = std::min(lo, ctx.params(w)[i]);
      hi = std::max(hi, ctx.params(w)[i]);
    }
    spread = std::max(spread, static_cast<double>(hi - lo));
  }
  EXPECT_LT(spread, 1.0);
}

TEST(StatisticalSemanticsTest, PsHeteDampsStaleUpdates) {
  // Under strong heterogeneity, HETE (damped stale gradients) should reach
  // the threshold in no more updates than ASP, seed-for-seed, on average.
  int hete_wins = 0;
  for (uint64_t seed : {3u, 4u, 5u}) {
    RunConfig asp = SmallConfig(StrategyKind::kPsAsp);
    asp.sim.hetero = HeteroSpec::GpuSharing(2);
    asp.run.seed = seed;
    RunConfig hete = SmallConfig(StrategyKind::kPsHete);
    hete.sim.hetero = HeteroSpec::GpuSharing(2);
    hete.run.seed = seed;
    auto ra = StartRun(asp, EngineKind::kSim);
    auto rh = StartRun(hete, EngineKind::kSim);
    if (rh.converged &&
        (!ra.converged || rh.updates <= ra.updates * 12 / 10)) {
      ++hete_wins;
    }
  }
  EXPECT_GE(hete_wins, 2);
}

}  // namespace
}  // namespace pr
