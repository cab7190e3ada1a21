#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <string>
#include <vector>

#include "runtime/threaded_runtime.h"
#include "train/run.h"

namespace pr {
namespace {

RunOptions SmallOptions() {
  RunOptions opt;
  opt.num_workers = 4;
  opt.iterations_per_worker = 30;
  opt.model.hidden = {16};
  opt.batch_size = 16;
  opt.dataset.num_train = 1024;
  opt.dataset.num_test = 512;
  opt.dataset.dim = 16;
  opt.dataset.num_classes = 4;
  opt.dataset.separation = 3.0;
  opt.seed = 5;
  return opt;
}

StrategyOptions Strat(StrategyKind kind, int group_size = 2) {
  StrategyOptions s;
  s.kind = kind;
  s.group_size = group_size;
  return s;
}

ThreadedRunResult RunPair(const StrategyOptions& strategy,
                      const RunOptions& run) {
  RunConfig config;
  config.strategy = strategy;
  config.run = run;
  return RunThreaded(config);
}

TEST(ThreadedRuntimeTest, PReduceCompletesAndLearns) {
  ThreadedRunResult result =
      RunPair(Strat(StrategyKind::kPReduceConst), SmallOptions());
  EXPECT_EQ(result.strategy, "CON");
  EXPECT_GT(result.group_reduces, 0u);
  EXPECT_GT(result.final_accuracy, 0.6);
  EXPECT_EQ(result.worker_iterations.size(), 4u);
  // Each ready signal that grouped consumed exactly P signals.
  EXPECT_LE(result.group_reduces, 4u * 30u / 2u);
}

TEST(ThreadedRuntimeTest, AllReduceCompletesAndLearns) {
  ThreadedRunResult result =
      RunPair(Strat(StrategyKind::kAllReduce), SmallOptions());
  EXPECT_EQ(result.strategy, "AR");
  EXPECT_GT(result.final_accuracy, 0.6);
  // AR keeps replicas bitwise identical.
  EXPECT_EQ(result.replica_spread, 0.0);
}

TEST(ThreadedRuntimeTest, PReduceReplicasStayClose) {
  ThreadedRunResult result =
      RunPair(Strat(StrategyKind::kPReduceConst), SmallOptions());
  // Replicas drift between reduces but must remain in the same basin.
  EXPECT_LT(result.replica_spread, 2.0);
}

TEST(ThreadedRuntimeTest, GroupSizeEqualsWorkers) {
  ThreadedRunResult result = RunPair(
      Strat(StrategyKind::kPReduceConst, /*group_size=*/4), SmallOptions());
  EXPECT_GT(result.group_reduces, 0u);
  EXPECT_GT(result.final_accuracy, 0.6);
}

TEST(ThreadedRuntimeTest, LargerGroupSizeFewerReduces) {
  auto p2 = RunPair(Strat(StrategyKind::kPReduceConst, 2),
                        SmallOptions());
  auto p4 = RunPair(Strat(StrategyKind::kPReduceConst, 4),
                        SmallOptions());
  EXPECT_GT(p2.group_reduces, p4.group_reduces);
}

TEST(ThreadedRuntimeTest, DynamicModeRuns) {
  StrategyOptions strat = Strat(StrategyKind::kPReduceDynamic);
  strat.dynamic.alpha = 0.5;
  RunOptions opt = SmallOptions();
  opt.worker_delay_seconds = {0.0, 0.0, 0.0, 0.003};  // a straggler
  ThreadedRunResult result = RunPair(strat, opt);
  EXPECT_EQ(result.strategy, "DYN");
  EXPECT_GT(result.group_reduces, 0u);
  EXPECT_GT(result.final_accuracy, 0.6);
}

TEST(ThreadedRuntimeTest, StragglerDoesNotBlockPReduceCompletion) {
  RunOptions opt = SmallOptions();
  opt.iterations_per_worker = 15;
  opt.worker_delay_seconds = {0.0, 0.0, 0.0, 0.01};
  ThreadedRunResult result =
      RunPair(Strat(StrategyKind::kPReduceConst), opt);
  // Run completes despite the straggler; all workers did their iterations.
  for (size_t iters : result.worker_iterations) EXPECT_EQ(iters, 15u);
}

TEST(ThreadedRuntimeTest, ControllerStatsPropagated) {
  ThreadedRunResult result =
      RunPair(Strat(StrategyKind::kPReduceConst), SmallOptions());
  EXPECT_EQ(result.controller_stats.groups_formed, result.group_reduces);
  EXPECT_GT(result.controller_stats.signals_received,
            result.controller_stats.groups_formed);
}

TEST(ThreadedRuntimeTest, FastWorkersFinishEarlyUnderPReduce) {
  RunOptions opt = SmallOptions();
  opt.iterations_per_worker = 25;
  opt.worker_delay_seconds = {0.001, 0.001, 0.001, 0.008};
  ThreadedRunResult pr_run =
      RunPair(Strat(StrategyKind::kPReduceConst), opt);
  ThreadedRunResult ar_run =
      RunPair(Strat(StrategyKind::kAllReduce), opt);
  ASSERT_EQ(pr_run.worker_finish_seconds.size(), 4u);
  const double pr_fast =
      *std::min_element(pr_run.worker_finish_seconds.begin(),
                        pr_run.worker_finish_seconds.end());
  const double ar_fast =
      *std::min_element(ar_run.worker_finish_seconds.begin(),
                        ar_run.worker_finish_seconds.end());
  // Under the barrier even the fastest worker is dragged to straggler pace.
  EXPECT_LT(pr_fast, 0.8 * ar_fast);
}

TEST(ThreadedRuntimeTest, AdversarialSpeedClassesDoNotDeadlock) {
  // Two deterministic speed classes, P=2: the frozen-avoidance hold path
  // (queue held until a cross-component signal or departure) is exercised
  // constantly. The run must terminate with every worker completing, even
  // though holds and Leaves race at the end.
  RunOptions opt = SmallOptions();
  opt.iterations_per_worker = 25;
  opt.worker_delay_seconds = {0.0, 0.0, 0.003, 0.003};
  ThreadedRunResult result =
      RunPair(Strat(StrategyKind::kPReduceConst), opt);
  for (size_t iters : result.worker_iterations) EXPECT_EQ(iters, 25u);
  EXPECT_GT(result.group_reduces, 0u);
}

TEST(ThreadedRuntimeTest, RepeatedRunsTerminate) {
  // Shake out rare interleavings in the termination protocol.
  for (int trial = 0; trial < 10; ++trial) {
    RunOptions opt = SmallOptions();
    opt.iterations_per_worker = 8;
    opt.seed = 100 + static_cast<uint64_t>(trial);
    ThreadedRunResult result =
        RunPair(Strat(StrategyKind::kPReduceConst), opt);
    EXPECT_EQ(result.worker_iterations.size(), 4u);
  }
}

TEST(ThreadedRuntimeTest, ManyWorkersSmokeTest) {
  RunOptions opt = SmallOptions();
  opt.num_workers = 8;
  opt.iterations_per_worker = 12;
  ThreadedRunResult result =
      RunPair(Strat(StrategyKind::kPReduceConst, 3), opt);
  EXPECT_GT(result.group_reduces, 0u);
}

// ---------------------------------------------------------------------------
// Baselines on real threads (new with the pluggable strategy layer).
// ---------------------------------------------------------------------------

TEST(ThreadedRuntimeTest, EagerReduceCompletesAndLearns) {
  ThreadedRunResult result =
      RunPair(Strat(StrategyKind::kEagerReduce), SmallOptions());
  EXPECT_EQ(result.strategy, "ER");
  EXPECT_GT(result.group_reduces, 0u);
  EXPECT_GT(result.final_accuracy, 0.6);
}

TEST(ThreadedRuntimeTest, AdPsgdCompletesAndLearns) {
  ThreadedRunResult result =
      RunPair(Strat(StrategyKind::kAdPsgd), SmallOptions());
  EXPECT_EQ(result.strategy, "AD");
  // group_reduces counts completed pair averages.
  EXPECT_GT(result.group_reduces, 0u);
  EXPECT_GT(result.final_accuracy, 0.6);
}

TEST(ThreadedRuntimeTest, PsHeteLearnsAndVersionsPerPush) {
  RunOptions opt = SmallOptions();
  opt.iterations_per_worker = 60;
  opt.worker_delay_seconds = {0.0, 0.0, 0.0, 0.002};
  ThreadedRunResult result =
      RunPair(Strat(StrategyKind::kPsHete), opt);
  EXPECT_EQ(result.strategy, "PS-HETE");
  // HETE is asynchronous: one version per push.
  EXPECT_EQ(result.versions, 4u * 60u);
  EXPECT_GT(result.final_accuracy, 0.6);
}

TEST(ThreadedRuntimeTest, PsBackupDropsStaleGradients) {
  StrategyOptions strat = Strat(StrategyKind::kPsBackup);
  strat.backup_workers = 1;
  RunOptions opt = SmallOptions();
  opt.iterations_per_worker = 20;
  opt.worker_delay_seconds = {0.0, 0.0, 0.0, 0.004};
  ThreadedRunResult result = RunPair(strat, opt);
  EXPECT_EQ(result.strategy, "PS-BK");
  EXPECT_GT(result.versions, 0u);
  // The straggler's gradients target superseded versions and are dropped.
  EXPECT_GT(result.metrics.counter("ps.wasted_gradients"), 0.0);
  EXPECT_GT(result.final_accuracy, 0.6);
}

TEST(ThreadedRuntimeTest, PsBspMatchesWrapperSemantics) {
  ThreadedRunResult result =
      RunPair(Strat(StrategyKind::kPsBsp), SmallOptions());
  EXPECT_EQ(result.strategy, "PS-BSP");
  // BSP: one version per round, zero staleness everywhere.
  EXPECT_EQ(result.versions, 30u);
  const HistogramSnapshot* hist =
      result.metrics.histogram("ps.push_staleness");
  ASSERT_NE(hist, nullptr);
  ASSERT_FALSE(hist->counts.empty());
  EXPECT_GT(hist->total_count, 0u);
  EXPECT_EQ(hist->counts[0], hist->total_count);
}

TEST(ThreadedRuntimeTest, EveryStrategyKindRunsOnThreads) {
  const StrategyKind kinds[] = {
      StrategyKind::kAllReduce,    StrategyKind::kEagerReduce,
      StrategyKind::kAdPsgd,       StrategyKind::kPsBsp,
      StrategyKind::kPsAsp,        StrategyKind::kPsHete,
      StrategyKind::kPsBackup,     StrategyKind::kPReduceConst,
      StrategyKind::kPReduceDynamic};
  for (StrategyKind kind : kinds) {
    StrategyOptions strat = Strat(kind);
    strat.backup_workers = 1;
    RunOptions opt = SmallOptions();
    opt.iterations_per_worker = 6;
    opt.worker_delay_seconds = {0.0, 0.0, 0.001, 0.002};
    ThreadedRunResult result = RunPair(strat, opt);
    EXPECT_EQ(result.strategy, StrategyKindName(kind));
    EXPECT_EQ(result.worker_iterations.size(), 4u);
    for (size_t iters : result.worker_iterations) EXPECT_EQ(iters, 6u);
  }
}

// ---------------------------------------------------------------------------
// Elastic membership, ConvNet proxy, timeline recording.
// ---------------------------------------------------------------------------

TEST(ThreadedRuntimeTest, ElasticWorkerPausesAndRejoins) {
  // Worker 1 leaves the pool mid-run, naps, and rejoins through
  // Controller::NotifyWorkerRejoined — the run must finish every budget.
  RunOptions opt = SmallOptions();
  // Scenario time counts iterations: worker 1 departs after 5 of them.
  opt.scenario.expected_iteration_seconds = 1.0;
  opt.scenario.events.push_back({ScenarioEventKind::kDepart, /*time=*/5.0,
                                 /*worker=*/1, /*node=*/-1,
                                 /*duration=*/0.02});
  ThreadedRunResult result =
      RunPair(Strat(StrategyKind::kPReduceConst), opt);
  for (size_t iters : result.worker_iterations) EXPECT_EQ(iters, 30u);
  EXPECT_GT(result.group_reduces, 0u);
  EXPECT_GT(result.final_accuracy, 0.6);
  // The pause keeps worker 1 busy at least that long.
  EXPECT_GE(result.worker_finish_seconds[1], 0.02);
}

TEST(ThreadedRuntimeTest, ConvNetTrainsOnThreads) {
  RunOptions opt = SmallOptions();
  opt.model.kind = ProxyModelSpec::Kind::kConvNet;
  opt.model.conv_filters = 8;  // dataset dim 16 -> 4x4 single-channel
  ThreadedRunResult result =
      RunPair(Strat(StrategyKind::kPReduceConst), opt);
  EXPECT_GT(result.group_reduces, 0u);
  EXPECT_GT(result.final_accuracy, 0.5);
}

TEST(ThreadedRuntimeTest, TimelineRecordsWorkerActivity) {
  RunOptions opt = SmallOptions();
  opt.iterations_per_worker = 10;
  opt.record_timeline = true;
  opt.worker_delay_seconds = {0.001, 0.001, 0.001, 0.002};
  ThreadedRunResult result =
      RunPair(Strat(StrategyKind::kPReduceConst), opt);
  EXPECT_EQ(result.timeline.num_workers(), 4);
  EXPECT_FALSE(result.timeline.intervals().empty());
  for (int w = 0; w < 4; ++w) {
    EXPECT_GT(result.timeline.TotalTime(w, WorkerActivity::kCompute), 0.0);
  }
  // Waiting on the controller's verdict shows up as idle time somewhere.
  double idle = 0.0;
  for (int w = 0; w < 4; ++w) {
    idle += result.timeline.TotalTime(w, WorkerActivity::kIdle);
  }
  EXPECT_GT(idle, 0.0);
  EXPECT_GT(result.timeline.EndTime(), 0.0);
}

// ---------------------------------------------------------------------------
// Observability: metrics agree with the legacy diagnostics, and the sim and
// threaded engines publish the same metric names.
// ---------------------------------------------------------------------------

TEST(ThreadedRuntimeTest, ControllerMetricsMatchControllerStats) {
  ThreadedRunResult result =
      RunPair(Strat(StrategyKind::kPReduceConst), SmallOptions());
  EXPECT_EQ(result.metrics.counter("controller.groups_formed"),
            static_cast<double>(result.controller_stats.groups_formed));
  EXPECT_EQ(result.metrics.counter("controller.signals_received"),
            static_cast<double>(result.controller_stats.signals_received));
  // Every decision was timed.
  const HistogramSnapshot* latency =
      result.metrics.histogram("controller.decision_latency_seconds");
  ASSERT_NE(latency, nullptr);
  EXPECT_EQ(latency->total_count, result.controller_stats.signals_received);
  EXPECT_GT(latency->Mean(), 0.0);
}

TEST(ThreadedRuntimeTest, RunLevelMetricsPublished) {
  ThreadedRunResult result =
      RunPair(Strat(StrategyKind::kPReduceConst), SmallOptions());
  EXPECT_GT(result.metrics.gauge("run.wall_seconds"), 0.0);
  EXPECT_EQ(result.metrics.counter("run.updates"),
            static_cast<double>(result.group_reduces));
  for (int w = 0; w < 4; ++w) {
    const std::string prefix = "worker." + std::to_string(w) + ".";
    EXPECT_EQ(result.metrics.counter(prefix + "iterations"), 30.0);
    const double idle = result.metrics.gauge(prefix + "idle_fraction");
    EXPECT_GE(idle, 0.0);
    EXPECT_LE(idle, 1.0);
  }
}

TEST(ThreadedRuntimeTest, SimAndThreadedShareMetricNames) {
  // Both engines count the controller, per-worker, run-level and data-plane
  // families (MetricSchemaTest pins the name sets themselves).
  ThreadedRunResult threaded =
      RunPair(Strat(StrategyKind::kPReduceConst), SmallOptions());

  RunConfig sim = PaperSimConfig();
  sim.run.num_workers = 4;
  sim.sim.max_updates = 60;
  sim.sim.accuracy_threshold = -1.0;
  sim.strategy.kind = StrategyKind::kPReduceConst;
  sim.strategy.group_size = 2;
  RunResult simulated = StartRun(sim, EngineKind::kSim);

  const char* shared_counters[] = {
      "controller.signals_received", "controller.groups_formed",
      "run.updates", "worker.0.iterations", "worker.3.iterations",
      "transport.bytes_sent", "transport.bytes_received",
      "transport.payload_copies"};
  for (const char* name : shared_counters) {
    EXPECT_GT(threaded.metrics.counter(name), 0.0) << "threaded: " << name;
    EXPECT_GT(simulated.metrics.counter(name), 0.0) << "sim: " << name;
  }
  // Engine-specific clocks keep distinct names on purpose.
  EXPECT_GT(threaded.metrics.gauge("run.wall_seconds"), 0.0);
  EXPECT_GT(simulated.metrics.gauge("run.sim_seconds"), 0.0);
}

TEST(ThreadedRuntimeTest, SimChargesTheThreadedRingTrafficPerReduce) {
  // Two AR workers on an MLP {256, 256}: each ring chunk spans two
  // segments. Per reduce, the simulator must charge the data-plane counters
  // the threaded ring counts, raw and int8.
  for (CompressionKind codec :
       {CompressionKind::kNone, CompressionKind::kInt8}) {
    StrategyOptions strat = Strat(StrategyKind::kAllReduce);
    strat.compression = codec;
    RunOptions opt = SmallOptions();
    opt.num_workers = 2;
    opt.iterations_per_worker = 2;
    opt.model.hidden = {256, 256};
    ThreadedRunResult threaded = RunPair(strat, opt);

    RunConfig sim = PaperSimConfig();
    sim.run.num_workers = 2;
    sim.sim.max_updates = 3;
    sim.sim.accuracy_threshold = -1.0;
    sim.run.model = opt.model;
    sim.run.dataset = opt.dataset;
    sim.strategy = strat;
    RunResult simulated = StartRun(sim, EngineKind::kSim);

    ASSERT_EQ(threaded.group_reduces, 2u);
    ASSERT_GT(simulated.updates, 0u);
    for (const char* name :
         {"transport.bytes_sent", "transport.payload_copies",
          "compress.bytes_in", "compress.bytes_out"}) {
      EXPECT_EQ(threaded.metrics.counter(name) / 2.0,
                simulated.metrics.counter(name) /
                    static_cast<double>(simulated.updates))
          << name << " codec " << CompressionKindName(codec);
    }
  }
}

TEST(ThreadedRuntimeTest, TopologyMetricsAgreeAcrossEngines) {
  // Hierarchical run on 2x2 nodes in both engines: the topo.* and
  // transport.inter_node_bytes families must be live (non-zero) under the
  // same names, and the group split must mirror the controller stats.
  StrategyOptions strat = Strat(StrategyKind::kPReduceConst);
  strat.hierarchy.enabled = true;
  strat.hierarchy.cross_period = 2;

  RunOptions opt = SmallOptions();
  ASSERT_TRUE(Topology::FromNodes({{0, 1}, {2, 3}}, &opt.topology).ok());
  ThreadedRunResult threaded = RunPair(strat, opt);

  RunConfig sim = PaperSimConfig();
  sim.run.num_workers = 4;
  sim.sim.max_updates = 60;
  sim.sim.accuracy_threshold = -1.0;
  ASSERT_TRUE(
      Topology::FromNodes({{0, 1}, {2, 3}}, &sim.run.topology).ok());
  sim.strategy = strat;
  RunResult simulated = StartRun(sim, EngineKind::kSim);

  for (const auto* r : {&threaded.metrics, &simulated.metrics}) {
    EXPECT_GT(r->counter("topo.intra_node_groups"), 0.0);
    EXPECT_GT(r->counter("topo.cross_node_groups"), 0.0);
    EXPECT_GT(r->counter("transport.inter_node_bytes"), 0.0);
  }
  EXPECT_EQ(threaded.metrics.counter("topo.intra_node_groups"),
            static_cast<double>(threaded.controller_stats.intra_node_groups));
  EXPECT_EQ(threaded.metrics.counter("topo.cross_node_groups"),
            static_cast<double>(threaded.controller_stats.cross_node_groups));
  // Inter-node traffic must be a strict subset of total traffic.
  EXPECT_LT(threaded.metrics.counter("transport.inter_node_bytes"),
            threaded.metrics.counter("transport.bytes_sent"));
}

TEST(ThreadedRuntimeTest, TraceDisabledByDefaultAndBoundedWhenOn) {
  RunOptions opt = SmallOptions();
  ThreadedRunResult off =
      RunPair(Strat(StrategyKind::kPReduceConst), opt);
  EXPECT_TRUE(off.trace.events.empty());

  RunConfig config;
  config.strategy = Strat(StrategyKind::kPReduceConst);
  config.run = SmallOptions();
  config.run.trace_capacity = 64;
  ThreadedRunResult on = RunThreaded(config);
  EXPECT_FALSE(on.trace.events.empty());
  EXPECT_LE(on.trace.events.size(), 64u);
  // A run of 4x30 iterations generates far more than 64 events; the ring
  // must report the overflow.
  EXPECT_GT(on.trace.dropped, 0u);
}

TEST(ThreadedRuntimeTest, TimelineOffByDefault) {
  RunOptions opt = SmallOptions();
  opt.iterations_per_worker = 5;
  ThreadedRunResult result =
      RunPair(Strat(StrategyKind::kAllReduce), opt);
  EXPECT_TRUE(result.timeline.intervals().empty());
}

}  // namespace
}  // namespace pr
