#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "fault/fault_plan.h"
#include "scenario/scale_policy.h"
#include "scenario/scenario.h"
#include "topo/topology.h"
#include "train/run.h"

namespace pr {
namespace {

// A hand-written spec touching every event kind, worker- and node-keyed.
ScenarioSpec AllKindsSpec() {
  ScenarioSpec spec;
  spec.name = "all-kinds";
  spec.seed = 42;
  spec.expected_iteration_seconds = 0.02;
  ScenarioEvent e;
  e.kind = ScenarioEventKind::kDepart;
  e.time = 0.1;
  e.worker = 1;
  e.duration = 0.05;
  spec.events.push_back(e);
  e = ScenarioEvent();
  e.kind = ScenarioEventKind::kArrive;
  e.time = 0.2;
  e.worker = 2;
  spec.events.push_back(e);
  e = ScenarioEvent();
  e.kind = ScenarioEventKind::kSlowdown;
  e.time = 0.3;
  e.worker = 0;
  e.duration = 0.1;
  e.factor = 2.5;
  spec.events.push_back(e);
  e = ScenarioEvent();
  e.kind = ScenarioEventKind::kCrash;
  e.time = 0.4;
  e.worker = 3;
  spec.events.push_back(e);
  e = ScenarioEvent();
  e.kind = ScenarioEventKind::kHang;
  e.time = 0.5;
  e.worker = 1;
  e.duration = 0.2;
  spec.events.push_back(e);
  e = ScenarioEvent();
  e.kind = ScenarioEventKind::kPartition;
  e.time = 0.6;
  e.node = 1;
  e.duration = 0.15;
  spec.events.push_back(e);
  return spec;
}

bool SpecsEqual(const ScenarioSpec& a, const ScenarioSpec& b) {
  if (a.name != b.name || a.seed != b.seed ||
      a.expected_iteration_seconds != b.expected_iteration_seconds ||
      a.events.size() != b.events.size()) {
    return false;
  }
  for (size_t i = 0; i < a.events.size(); ++i) {
    const ScenarioEvent& x = a.events[i];
    const ScenarioEvent& y = b.events[i];
    if (x.kind != y.kind || x.time != y.time || x.worker != y.worker ||
        x.node != y.node || x.duration != y.duration ||
        x.factor != y.factor) {
      return false;
    }
  }
  return true;
}

// ---------------------------------------------------------------------------
// Dialects.
// ---------------------------------------------------------------------------

TEST(ScenarioIoTest, TextDialectRoundTripsByteIdentically) {
  const ScenarioSpec spec = AllKindsSpec();
  const std::string text = SerializeScenario(spec);
  ScenarioSpec parsed;
  ASSERT_TRUE(ParseScenario(text, &parsed).ok());
  EXPECT_TRUE(SpecsEqual(spec, parsed));
  EXPECT_EQ(text, SerializeScenario(parsed));
}

TEST(ScenarioIoTest, JsonDialectRoundTrips) {
  const ScenarioSpec spec = AllKindsSpec();
  const std::string json = ScenarioToJson(spec);
  ScenarioSpec parsed;
  ASSERT_TRUE(ScenarioFromJson(json, &parsed).ok());
  EXPECT_TRUE(SpecsEqual(spec, parsed));
  EXPECT_EQ(SerializeScenario(spec), SerializeScenario(parsed));
}

TEST(ScenarioIoTest, MalformedTracesAreRejected) {
  ScenarioSpec out;
  // Wrong header version.
  EXPECT_FALSE(ParseScenario("prtrace 2\nname x\n", &out).ok());
  // Missing header entirely.
  EXPECT_FALSE(ParseScenario("name x\n", &out).ok());
  // Unknown key is version skew, not noise.
  EXPECT_FALSE(ParseScenario("prtrace 1\nbogus 3\n", &out).ok());
  // Unknown event kind.
  EXPECT_FALSE(
      ParseScenario("prtrace 1\nevent explode time 1\n", &out).ok());
  // Event without a time.
  EXPECT_FALSE(
      ParseScenario("prtrace 1\nevent depart worker 1\n", &out).ok());
  // Unknown event field.
  EXPECT_FALSE(
      ParseScenario("prtrace 1\nevent depart time 1 blast 3\n", &out).ok());
  // JSON dialect: bad kind, unknown key, missing marker.
  EXPECT_FALSE(ScenarioFromJson(
                   R"({"prtrace": 1, "events": [{"kind": "explode", "time": 1}]})",
                   &out)
                   .ok());
  EXPECT_FALSE(
      ScenarioFromJson(R"({"prtrace": 1, "bogus": 3})", &out).ok());
  EXPECT_FALSE(ScenarioFromJson(R"({"name": "x"})", &out).ok());
}

TEST(ScenarioIoTest, ValidateRejectsOutOfRangeTargets) {
  const Topology flat;
  const Topology racks = Topology::Uniform(2, 2);
  ScenarioSpec spec;
  spec.events.push_back(ScenarioEvent());
  spec.events[0].kind = ScenarioEventKind::kDepart;
  spec.events[0].time = 0.5;
  spec.events[0].duration = 0.1;

  // Neither worker nor node set.
  EXPECT_FALSE(ValidateScenario(spec, 4, flat).ok());
  // Worker out of range.
  spec.events[0].worker = 9;
  EXPECT_FALSE(ValidateScenario(spec, 4, flat).ok());
  spec.events[0].worker = 1;
  EXPECT_TRUE(ValidateScenario(spec, 4, flat).ok());
  // Node-keyed event needs a non-flat topology.
  spec.events[0].worker = -1;
  spec.events[0].node = 1;
  EXPECT_FALSE(ValidateScenario(spec, 4, flat).ok());
  EXPECT_TRUE(ValidateScenario(spec, 4, racks).ok());
  spec.events[0].node = 7;
  EXPECT_FALSE(ValidateScenario(spec, 4, racks).ok());
  // Negative time / slowdown factor below 1.
  spec.events[0].node = 1;
  spec.events[0].time = -0.1;
  EXPECT_FALSE(ValidateScenario(spec, 4, racks).ok());
  spec.events[0].time = 0.5;
  spec.events[0].kind = ScenarioEventKind::kSlowdown;
  spec.events[0].factor = 0.5;
  EXPECT_FALSE(ValidateScenario(spec, 4, racks).ok());
}

// ---------------------------------------------------------------------------
// Generators: pure functions of their options.
// ---------------------------------------------------------------------------

TEST(ScenarioGeneratorTest, GeneratorsAreDeterministicInTheirOptions) {
  PoissonChurnOptions churn;
  churn.seed = 9;
  EXPECT_EQ(SerializeScenario(MakePoissonChurnTrace(churn)),
            SerializeScenario(MakePoissonChurnTrace(churn)));
  PoissonChurnOptions churn2 = churn;
  churn2.seed = 10;
  EXPECT_NE(SerializeScenario(MakePoissonChurnTrace(churn)),
            SerializeScenario(MakePoissonChurnTrace(churn2)));

  HeavyTailSlowdownOptions slow;
  slow.seed = 9;
  const ScenarioSpec tail = MakeHeavyTailSlowdownTrace(slow);
  EXPECT_EQ(SerializeScenario(tail),
            SerializeScenario(MakeHeavyTailSlowdownTrace(slow)));
  for (const ScenarioEvent& e : tail.events) {
    EXPECT_EQ(e.kind, ScenarioEventKind::kSlowdown);
    EXPECT_LT(e.time, slow.horizon_seconds);
    EXPECT_GE(e.factor, slow.min_factor);
    EXPECT_LE(e.factor, slow.max_factor);
  }

  const Topology topo = Topology::Uniform(3, 2);
  RackChurnOptions rack;
  rack.seed = 9;
  rack.departures_per_second = 1.0;
  const ScenarioSpec racks = MakeRackChurnTrace(topo, rack);
  EXPECT_EQ(SerializeScenario(racks),
            SerializeScenario(MakeRackChurnTrace(topo, rack)));
  for (const ScenarioEvent& e : racks.events) {
    EXPECT_EQ(e.worker, -1);
    EXPECT_GE(e.node, 0);
    EXPECT_LT(e.node, topo.num_nodes());
  }
}

// ---------------------------------------------------------------------------
// Compilation.
// ---------------------------------------------------------------------------

TEST(ScenarioCompileTest, ReferenceTraceExpandsNodeEventsAndCounts) {
  const Topology topo = Topology::Uniform(2, 2);  // workers {0,1} | {2,3}
  const ScenarioSpec spec = MakeReferenceTrace(4, topo, 20);
  ASSERT_EQ(spec.events.size(), 3u);

  CompiledScenario compiled;
  ASSERT_TRUE(CompileScenario(spec, 4, topo, FaultPlan(), &compiled).ok());

  // One lone departure plus the whole last node (workers 2 and 3).
  ASSERT_EQ(compiled.churn.size(), 3u);
  std::vector<int> churn_workers;
  for (const ChurnWindow& w : compiled.churn) {
    churn_workers.push_back(w.worker);
  }
  EXPECT_EQ(churn_workers, (std::vector<int>{1, 2, 3}));

  // The slowdown window became one iteration-keyed fault on worker 0.
  ASSERT_EQ(compiled.fault.worker_events.size(), 1u);
  EXPECT_EQ(compiled.fault.worker_events[0].worker, 0);
  EXPECT_EQ(compiled.fault.worker_events[0].kind,
            WorkerFaultEvent::Kind::kSlowdown);

  // Compile counts are the authored per-kind totals, not the expansion.
  const auto counts = ScenarioMetricCounts(spec);
  EXPECT_EQ(compiled.counts, counts);
  for (const auto& [name, value] : counts) {
    if (name == "scenario.events_total") {
      EXPECT_EQ(value, 3.0);
    } else if (name == "scenario.departs") {
      EXPECT_EQ(value, 2.0);
    } else if (name == "scenario.slowdowns") {
      EXPECT_EQ(value, 1.0);
    } else if (name == "scenario.crashes") {
      EXPECT_EQ(value, 0.0);
    }
  }
}

// The multi-seed determinism regression: a combined crash + hang + slowdown
// + depart + partition trace compiled over a base plan that already carries
// link delays and a controller sever must produce the identical event
// stream every time — this one compiler feeds both engines, so compile
// determinism is what makes threaded-vs-sim replay agree.
TEST(ScenarioCompileTest, CombinedFaultCompileIsDeterministicAcrossSeeds) {
  const Topology topo = Topology::Uniform(2, 2);
  FaultPlan base;
  base.link_delay_seconds[{0, 2}] = 0.002;
  ControllerFaultEvent sever;
  sever.after_groups = 2;
  sever.down_seconds = 0.1;
  base.controller_events.push_back(sever);

  for (uint64_t seed = 1; seed <= 3; ++seed) {
    ScenarioSpec spec = AllKindsSpec();
    spec.seed = seed;
    CompiledScenario a, b;
    ASSERT_TRUE(CompileScenario(spec, 4, topo, base, &a).ok());
    ASSERT_TRUE(CompileScenario(spec, 4, topo, base, &b).ok());

    // Identical event sequences, field by field.
    ASSERT_EQ(a.fault.worker_events.size(), b.fault.worker_events.size());
    for (size_t i = 0; i < a.fault.worker_events.size(); ++i) {
      const WorkerFaultEvent& x = a.fault.worker_events[i];
      const WorkerFaultEvent& y = b.fault.worker_events[i];
      EXPECT_EQ(x.worker, y.worker);
      EXPECT_EQ(x.kind, y.kind);
      EXPECT_EQ(x.after_iterations, y.after_iterations);
      EXPECT_EQ(x.slowdown_factor, y.slowdown_factor);
    }
    ASSERT_EQ(a.churn.size(), b.churn.size());
    for (size_t i = 0; i < a.churn.size(); ++i) {
      EXPECT_EQ(a.churn[i].worker, b.churn[i].worker);
      EXPECT_EQ(a.churn[i].after_iterations, b.churn[i].after_iterations);
      EXPECT_EQ(a.churn[i].pause_seconds, b.churn[i].pause_seconds);
    }
    ASSERT_EQ(a.fault.partition_events.size(),
              b.fault.partition_events.size());

    // The base plan survives the merge: link delays and the controller
    // sever are still there, and the combined faults force the hardened
    // protocol.
    EXPECT_EQ(a.fault.link_delay_seconds.size(), 1u);
    EXPECT_EQ(a.fault.controller_events.size(), 1u);
    EXPECT_TRUE(a.fault.enabled());
    EXPECT_EQ(a.fault.seed, seed);

    // The partition event targeted node 1 = workers {2, 3}.
    ASSERT_EQ(a.fault.partition_events.size(), 2u);
    EXPECT_EQ(a.fault.partition_events[0].worker, 2);
    EXPECT_EQ(a.fault.partition_events[1].worker, 3);
  }
}

// ---------------------------------------------------------------------------
// ScalePolicy / ScaleDirector units.
// ---------------------------------------------------------------------------

ScaleSample Sample(double time, double idle, int active) {
  ScaleSample s;
  s.time = time;
  s.mean_idle_fraction = idle;
  s.active_workers = active;
  return s;
}

TEST(ScalePolicyTest, ThresholdHysteresisWithClamps) {
  ScalePolicyConfig config;
  config.kind = ScalePolicyKind::kThreshold;
  config.idle_high = 0.5;
  config.idle_low = 0.15;
  config.min_workers = 2;
  ScalePolicy policy(config, 8);

  // In the dead band: no change.
  EXPECT_EQ(policy.Decide(Sample(0.0, 0.3, 8)), 8);
  // Above idle_high: shrink by one.
  EXPECT_EQ(policy.Decide(Sample(1.0, 0.8, 8)), 7);
  // Below idle_low: grow by one.
  EXPECT_EQ(policy.Decide(Sample(2.0, 0.05, 7)), 8);
  // Clamped at max (= num_workers when max_workers is 0).
  EXPECT_EQ(policy.Decide(Sample(3.0, 0.01, 8)), 8);
  // Clamped at min_workers.
  EXPECT_EQ(policy.Decide(Sample(4.0, 0.9, 2)), 2);
}

TEST(ScalePolicyTest, TrendFiresOnRisingIdleBeforeThreshold) {
  ScalePolicyConfig config;
  config.kind = ScalePolicyKind::kTrend;
  config.idle_high = 0.5;
  config.idle_low = 0.1;
  config.trend_window = 3;
  config.min_workers = 2;
  ScalePolicy policy(config, 8);

  // Idle climbing through the band midpoint but still below idle_high:
  // the threshold policy would hold; the trend shrinks early.
  EXPECT_EQ(policy.Decide(Sample(0.0, 0.20, 8)), 8);  // window filling
  EXPECT_EQ(policy.Decide(Sample(1.0, 0.32, 8)), 8);  // window filling
  EXPECT_EQ(policy.Decide(Sample(2.0, 0.44, 8)), 7);  // slope > 0, > mid
  // Falling idle below the midpoint grows again.
  ScalePolicy recover(config, 8);
  EXPECT_EQ(recover.Decide(Sample(0.0, 0.30, 6)), 6);
  EXPECT_EQ(recover.Decide(Sample(1.0, 0.18, 6)), 6);
  EXPECT_EQ(recover.Decide(Sample(2.0, 0.06, 6)), 7);
}

TEST(ScaleDirectorTest, PausesHighestIdsFirstAndResumesInReverse) {
  ScaleDirector director(6);
  EXPECT_EQ(director.active(), 6);

  // Shrink to 4: workers 5 then 4 pause; the active set stays a prefix.
  EXPECT_EQ(director.SetTarget(4), -2);
  EXPECT_EQ(director.active(), 4);
  EXPECT_TRUE(director.ShouldPause(5));
  EXPECT_TRUE(director.ShouldPause(4));
  for (int w = 0; w < 4; ++w) EXPECT_FALSE(director.ShouldPause(w));

  // Grow back to 5: the lowest paused id (4) resumes first.
  EXPECT_EQ(director.SetTarget(5), 1);
  EXPECT_FALSE(director.ShouldPause(4));
  EXPECT_TRUE(director.ShouldPause(5));

  // Targets clamp to [1, num_workers]; no-op returns 0.
  EXPECT_EQ(director.SetTarget(5), 0);
  EXPECT_EQ(director.SetTarget(100), 1);
  EXPECT_EQ(director.active(), 6);
  EXPECT_EQ(director.SetTarget(-3), -5);
  EXPECT_EQ(director.active(), 1);
}

// ---------------------------------------------------------------------------
// Cross-engine replay: the acceptance gate. The reference trace must run
// through both engines with identical scenario.* metric names and compile
// counts, and the fault.* family present on both sides.
// ---------------------------------------------------------------------------

RunConfig ReferenceRunConfig(uint64_t seed) {
  RunConfig config;
  config.strategy.kind = StrategyKind::kPReduceConst;
  config.strategy.group_size = 2;
  config.run.num_workers = 4;
  config.run.iterations_per_worker = 12;
  config.run.model.hidden = {8};
  config.run.batch_size = 8;
  config.run.dataset.num_train = 256;
  config.run.dataset.num_test = 64;
  config.run.dataset.dim = 8;
  config.run.dataset.num_classes = 2;
  config.run.seed = seed;
  config.run.worker_delay_seconds.assign(4, 0.01);
  config.run.topology = Topology::Uniform(2, 2);
  config.run.scenario = MakeReferenceTrace(4, config.run.topology, 12);
  return config;
}

std::set<std::string> ScenarioCounterNames(const MetricsSnapshot& metrics) {
  std::set<std::string> names;
  for (const auto& [name, value] : metrics.counters) {
    if (name.rfind("scenario.", 0) == 0) names.insert(name);
  }
  return names;
}

TEST(ScenarioReplayTest, ReferenceTraceReplaysInBothEnginesWithNameParity) {
  const RunConfig config = ReferenceRunConfig(5);
  const RunOutcome threaded = StartRun(config, EngineKind::kThreaded);
  const RunOutcome sim = StartRun(config, EngineKind::kSim);

  // Both engines expose the identical scenario.* counter name set.
  const std::set<std::string> threaded_names =
      ScenarioCounterNames(threaded.metrics);
  const std::set<std::string> sim_names = ScenarioCounterNames(sim.metrics);
  EXPECT_FALSE(threaded_names.empty());
  EXPECT_EQ(threaded_names, sim_names);

  // The compile counts agree with the authored trace on both sides.
  for (const auto& [name, value] :
       ScenarioMetricCounts(config.run.scenario)) {
    EXPECT_EQ(threaded.metrics.counter(name), value)
        << "threaded " << name;
    EXPECT_EQ(sim.metrics.counter(name), value) << "sim " << name;
  }

  // The fault.* family is present under both engines too.
  for (const char* name :
       {"fault.injected_drops", "fault.injected_dups",
        "fault.injected_delays", "fault.evictions", "fault.aborted_groups",
        "fault.retries"}) {
    EXPECT_TRUE(threaded.metrics.counters.count(name) != 0)
        << "threaded missing " << name;
    EXPECT_TRUE(sim.metrics.counters.count(name) != 0)
        << "sim missing " << name;
  }

  // The threaded run completed: every worker (departures rejoin) finished
  // its full budget.
  for (size_t iters : threaded.threaded.worker_iterations) {
    EXPECT_EQ(iters, config.run.iterations_per_worker);
  }
  EXPECT_GT(sim.sync_rounds, 0u);
}

TEST(ScenarioReplayTest, SimReplayIsDeterministicAcrossRepeatsAndSeeds) {
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    const RunConfig config = ReferenceRunConfig(seed);
    const RunOutcome a = StartRun(config, EngineKind::kSim);
    const RunOutcome b = StartRun(config, EngineKind::kSim);
    EXPECT_EQ(a.final_loss, b.final_loss) << "seed " << seed;
    EXPECT_EQ(a.clock_seconds, b.clock_seconds) << "seed " << seed;
    EXPECT_EQ(a.metrics.counters, b.metrics.counters) << "seed " << seed;
  }
}

// ---------------------------------------------------------------------------
// Autoscaling + graceful degradation through real runs.
// ---------------------------------------------------------------------------

TEST(ScenarioReplayTest, SimAutoscaleShrinksOnSustainedIdle) {
  RunConfig config = ReferenceRunConfig(6);
  config.run.scenario = ScenarioSpec();  // policy only, no trace
  config.run.iterations_per_worker = 30;
  config.strategy.scale_policy.kind = ScalePolicyKind::kThreshold;
  config.strategy.scale_policy.idle_high = 0.0;  // always "too idle"
  config.strategy.scale_policy.min_workers = 2;
  config.strategy.scale_policy.interval_seconds = 0.02;

  const RunOutcome outcome = StartRun(config, EngineKind::kSim);
  EXPECT_GE(outcome.metrics.counter("scenario.scale.shrink"), 1.0);
  EXPECT_GT(outcome.sync_rounds, 0u);
}

// Scenario traces are authored in scenario-seconds; the simulator runs on
// its cost model's virtual clock. Measure one local step's virtual
// duration on a fault-free run so events land at intended iterations
// (bench_scenarios calibrates the same way).
double ProbeSimStepSeconds(RunConfig config) {
  config.run.scenario = ScenarioSpec();
  config.strategy.scale_policy = ScalePolicyConfig();
  const RunOutcome probe = StartRun(config, EngineKind::kSim);
  EXPECT_GT(probe.clock_seconds, 0.0);
  return probe.clock_seconds /
         static_cast<double>(config.run.iterations_per_worker);
}

// Two workers gone from iteration ~3 for ~12 steps: only 2 of 4 live.
ScenarioSpec TwoWorkerOutageSpec(const std::string& name, double step) {
  ScenarioSpec spec;
  spec.name = name;
  spec.expected_iteration_seconds = step;
  for (int w = 2; w <= 3; ++w) {
    ScenarioEvent e;
    e.kind = ScenarioEventKind::kDepart;
    e.time = 3.0 * step;
    e.worker = w;
    e.duration = 12.0 * step;
    spec.events.push_back(e);
  }
  return spec;
}

TEST(ScenarioReplayTest, SimDegradesToSmallGroupsUnderChurn) {
  RunConfig config = ReferenceRunConfig(7);
  config.strategy.group_size = 3;
  config.strategy.scale_policy.min_group_size = 2;
  config.run.iterations_per_worker = 20;
  const double step = ProbeSimStepSeconds(config);
  // Two workers gone for most of the run: only 2 live < P = 3.
  config.run.scenario = TwoWorkerOutageSpec("churn-degrade", step);

  const RunOutcome outcome = StartRun(config, EngineKind::kSim);
  EXPECT_GE(outcome.metrics.counter("scenario.degrade.small_groups"), 1.0);
  EXPECT_GT(outcome.sync_rounds, 0u);
}

TEST(ScenarioReplayTest, SimTakesLocalStepsBelowLivenessFloor) {
  RunConfig config = ReferenceRunConfig(8);
  config.strategy.scale_policy.liveness_floor = 3;
  config.run.iterations_per_worker = 20;
  const double step = ProbeSimStepSeconds(config);
  config.run.scenario = TwoWorkerOutageSpec("floor-degrade", step);

  const RunOutcome outcome = StartRun(config, EngineKind::kSim);
  EXPECT_GE(outcome.metrics.counter("scenario.degrade.local_steps"), 1.0);
  EXPECT_GT(outcome.sync_rounds, 0u);
}

TEST(ScenarioReplayTest, ThreadedAutoscaleShrinksAndStillCompletes) {
  RunConfig config = ReferenceRunConfig(9);
  config.run.scenario = ScenarioSpec();  // policy only, no trace
  config.run.iterations_per_worker = 25;
  config.run.worker_delay_seconds.assign(4, 0.005);
  config.strategy.scale_policy.kind = ScalePolicyKind::kThreshold;
  config.strategy.scale_policy.idle_high = 0.0;  // always "too idle"
  config.strategy.scale_policy.min_workers = 2;
  config.strategy.scale_policy.interval_seconds = 0.02;

  const RunOutcome outcome = StartRun(config, EngineKind::kThreaded);
  EXPECT_GE(outcome.metrics.counter("scenario.scale.shrink"), 1.0);
  // Paused workers resume (deadline-bounded) and finish their budgets.
  for (size_t iters : outcome.threaded.worker_iterations) {
    EXPECT_EQ(iters, config.run.iterations_per_worker);
  }
}

}  // namespace
}  // namespace pr
