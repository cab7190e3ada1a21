#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "fault/fault_plan.h"
#include "runtime/threaded_runtime.h"
#include "sim/sim_training.h"
#include "train/run.h"
#include "train/report.h"

namespace pr {
namespace {

// One mid-group crash on worker 5 plus 1% uniform message drops — the
// ISSUE's acceptance scenario. N=8, P=4: the crash kills one group (whose
// survivors must be re-queued) and shrinks the pool to 7.
constexpr int kWorkers = 8;
constexpr int kGroupSize = 4;
constexpr int kCrashWorker = 5;
// The crash fires in the crash worker's first group. The service groups a
// signal only while P workers are active and releases it once fewer remain,
// so a crash keyed to a later group is skipped whenever the crash worker
// falls behind until the other seven have finished: a few dropped ring
// segments (each aborted group costs it ~0.2 s) were enough under load.
// The first group forms while all eight workers are still active.
constexpr int kCrashAfter = 0;
constexpr double kDropProb = 0.01;
constexpr size_t kIterations = 8;

RunConfig ChaosConfig(uint64_t seed, StrategyKind kind) {
  RunConfig config;
  config.strategy.kind = kind;
  config.strategy.group_size = kGroupSize;
  config.run.num_workers = kWorkers;
  config.run.iterations_per_worker = kIterations;
  config.run.model.hidden = {16};
  config.run.batch_size = 16;
  config.run.dataset.num_train = 1024;
  config.run.dataset.num_test = 256;
  config.run.dataset.dim = 16;
  config.run.dataset.num_classes = 4;
  config.run.seed = seed;
  config.run.worker_delay_seconds.assign(kWorkers, 0.001);
  config.run.fault =
      MakeChaosPlan(seed, kCrashWorker, kCrashAfter, kDropProb);
  return config;
}

void CheckReportJson(const std::string& json, const std::string& engine) {
  for (const char* name : {"fault.injected_drops", "fault.evictions",
                           "fault.aborted_groups", "fault.retries"}) {
    EXPECT_NE(json.find(name), std::string::npos)
        << engine << " JSON report is missing " << name;
  }
}

// ---------------------------------------------------------------------------
// Threaded engine.
// ---------------------------------------------------------------------------

void RunThreadedChaos(uint64_t seed, StrategyKind kind) {
  SCOPED_TRACE("seed=" + std::to_string(seed));
  RunResult result = StartRun(ChaosConfig(seed, kind), EngineKind::kThreaded);

  // The run completed (no deadlock) and the controller noticed the death.
  EXPECT_GE(result.metrics.counter("fault.evictions"), 1.0);
  EXPECT_GE(result.metrics.counter("fault.aborted_groups"), 1.0);

  // Survivors finish their budgets; the crashed worker stops short.
  ASSERT_EQ(result.worker_iterations.size(),
            static_cast<size_t>(kWorkers));
  for (int w = 0; w < kWorkers; ++w) {
    if (w == kCrashWorker) {
      EXPECT_LT(result.worker_iterations[static_cast<size_t>(w)],
                kIterations)
          << "crashed worker ran its full budget";
    } else {
      EXPECT_EQ(result.worker_iterations[static_cast<size_t>(w)],
                kIterations)
          << "survivor " << w << " did not finish";
    }
  }

  // The fault.* family shows up in the JSON report.
  CheckReportJson(RunReportJson(result), "threaded");
}

TEST(ChaosTest, ThreadedSurvivesCrashAndDropsAcrossSeeds) {
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    RunThreadedChaos(seed, StrategyKind::kPReduceConst);
  }
}

TEST(ChaosTest, ThreadedDynamicModeSurvivesChaos) {
  RunThreadedChaos(17, StrategyKind::kPReduceDynamic);
}

TEST(ChaosTest, DropsActuallyInjected) {
  // With 1% drops over a thousands-of-messages run, at least one message
  // should statistically be eaten; the counter proves the injector was live.
  double total_drops = 0.0;
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    ThreadedRunResult result =
        RunThreaded(ChaosConfig(seed, StrategyKind::kPReduceConst));
    total_drops += result.metrics.counter("fault.injected_drops");
  }
  EXPECT_GT(total_drops, 0.0);
}

TEST(ChaosTest, HungWorkerIsEvictedAndReadmitted) {
  RunConfig config = ChaosConfig(3, StrategyKind::kPReduceConst);
  config.run.fault.worker_events.clear();  // keep the drops, swap the crash
  WorkerFaultEvent hang;
  hang.worker = 2;
  hang.kind = WorkerFaultEvent::Kind::kHang;
  hang.after_iterations = 3;
  // Hang well past the eviction horizon (2 * 0.25 s) so the lease lapses.
  hang.hang_seconds =
      config.run.fault.lease_seconds * config.run.fault.missed_threshold +
      0.3;
  config.run.fault.worker_events.push_back(hang);
  ThreadedRunResult result = RunThreaded(config);

  EXPECT_GE(result.metrics.counter("fault.evictions"), 1.0);
  // The hung worker rejoined and still finished its whole budget.
  for (size_t iters : result.worker_iterations) {
    EXPECT_EQ(iters, kIterations);
  }
}

// The service outlives every worker body: a worker evicted while it hangs,
// and waking after its peers have left, still finds a service that
// re-admits it and releases its signals, instead of waiting out a verdict
// valve for every remaining iteration.
TEST(ChaosTest, WorkerWakingAfterItsPeersLeftIsServed) {
  RunConfig config = ChaosConfig(3, StrategyKind::kPReduceConst);
  config.strategy.group_size = 2;
  config.run.num_workers = 3;
  config.run.worker_delay_seconds.assign(3, 0.001);
  FaultPlan& plan = config.run.fault;
  plan = FaultPlan{};
  WorkerFaultEvent hang;
  hang.worker = 2;
  hang.kind = WorkerFaultEvent::Kind::kHang;
  hang.after_iterations = static_cast<int>(kIterations) - 2;
  // Long past the eviction horizon, and past the peers' last iteration.
  hang.hang_seconds = plan.lease_seconds * plan.missed_threshold + 0.3;
  plan.worker_events.push_back(hang);
  const ThreadedRunResult result = RunThreaded(config);

  EXPECT_GE(result.metrics.counter("fault.evictions"), 1.0);
  for (size_t iters : result.worker_iterations) {
    EXPECT_EQ(iters, kIterations);
  }
  EXPECT_LT(result.metrics.counter("worker.2.idle_seconds"),
            plan.max_verdict_wait_seconds);
}

// A depart window pausing `worker` for `pause` seconds after `k` local
// iterations (its scenario counts one second per iteration).
ScenarioEvent DepartAfter(int worker, size_t k, double pause) {
  ScenarioEvent e;
  e.kind = ScenarioEventKind::kDepart;
  e.time = static_cast<double>(k);
  e.worker = worker;
  e.duration = pause;
  return e;
}

// Pause and Rejoin are best-effort sends: a dropped Rejoin, or a Ready that
// overtakes its Rejoin, reaches the service while it still holds the worker
// as paused. Such a Ready is an implicit rejoin, like one from an evicted
// worker, and must not reach the controller for a departed worker.
RunConfig PausedReadyConfig(uint64_t seed, const EdgeFaultSpec& to_service) {
  constexpr int kN = 4;
  RunConfig config = ChaosConfig(seed, StrategyKind::kPReduceConst);
  config.strategy.group_size = 2;
  config.run.num_workers = kN;
  config.run.iterations_per_worker = 40;
  config.run.worker_delay_seconds.assign(kN, 0.001);
  config.run.fault = FaultPlan{};
  config.run.fault.seed = seed;
  config.run.scenario.expected_iteration_seconds = 1.0;
  for (int w = 0; w < kN; ++w) {
    config.run.fault.edges[{w, kN}] = to_service;
    for (size_t k = 5 + static_cast<size_t>(w); k < 40; k += 7) {
      config.run.scenario.events.push_back(DepartAfter(w, k, 0.005));
    }
  }
  return config;
}

void ExpectEveryWorkerFinishes(const RunConfig& config) {
  const ThreadedRunResult result = RunThreaded(config);
  ASSERT_EQ(result.worker_iterations.size(),
            static_cast<size_t>(config.run.num_workers));
  for (size_t iters : result.worker_iterations) {
    EXPECT_EQ(iters, config.run.iterations_per_worker);
  }
}

TEST(ChaosTest, ThreadedReadyFromPausedWorkerRejoinsIt) {
  EdgeFaultSpec drops;
  drops.drop_prob = 0.05;
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    SCOPED_TRACE("drops, seed=" + std::to_string(seed));
    ExpectEveryWorkerFinishes(PausedReadyConfig(seed, drops));
  }
  EdgeFaultSpec delays;
  delays.delay_prob = 0.5;
  delays.delay_seconds = 0.03;
  SCOPED_TRACE("delays, seed=1");
  ExpectEveryWorkerFinishes(PausedReadyConfig(1, delays));
}

TEST(ChaosTest, SlowdownFaultStretchesCompute) {
  RunConfig slow = ChaosConfig(4, StrategyKind::kPReduceConst);
  slow.run.fault.worker_events.clear();
  slow.run.fault.default_edge = EdgeFaultSpec{};  // isolate the slowdown
  WorkerFaultEvent event;
  event.worker = 1;
  event.kind = WorkerFaultEvent::Kind::kSlowdown;
  event.after_iterations = 0;
  event.slowdown_factor = 8.0;
  slow.run.fault.worker_events.push_back(event);
  ThreadedRunResult result = RunThreaded(slow);

  const double slowed =
      result.metrics.counter("worker.1.compute_seconds");
  const double baseline =
      result.metrics.counter("worker.0.compute_seconds");
  EXPECT_GT(slowed, baseline * 2.0);
  for (size_t iters : result.worker_iterations) {
    EXPECT_EQ(iters, kIterations);
  }
}

// ---------------------------------------------------------------------------
// Simulated engine: same plan, same metric names, virtual time.
// ---------------------------------------------------------------------------

// Both engines key a slowdown window on the worker's completed local
// iterations. DYN fast-forwards a group's members to the group's max
// iteration, so a window keyed on that counter would fire early (or be
// jumped over) on a slow worker, whose counter the fast-forward moves most.
TEST(ChaosTest, SimDynSlowdownWindowKeysOnLocalIterations) {
  RunConfig config = PaperSimConfig();
  config.run.num_workers = 4;
  config.sim.timing_only = true;
  config.sim.timing_updates = 60;
  config.sim.hetero = HeteroSpec::FixedFactors({3.0, 1.0, 1.0, 1.0});
  config.run.record_timeline = true;
  config.strategy.kind = StrategyKind::kPReduceDynamic;
  config.strategy.group_size = 2;
  // Worker 0's 7th local step (after 6) runs 10x longer.
  WorkerFaultEvent event;
  event.worker = 0;
  event.kind = WorkerFaultEvent::Kind::kSlowdown;
  event.after_iterations = 6;
  event.slowdown_iterations = 1;
  event.slowdown_factor = 10.0;
  config.run.fault.worker_events.push_back(event);

  SimTraining ctx(config);
  std::unique_ptr<Strategy> strategy = MakeStrategy(config.strategy, &ctx);
  strategy->Start();
  ctx.engine()->RunUntil([&] { return ctx.stopped(); });
  std::vector<double> steps;  // worker 0's compute durations, in order
  for (const TimelineInterval& i : ctx.timeline()->intervals()) {
    if (i.worker == 0 && i.activity == WorkerActivity::kCompute) {
      steps.push_back(i.duration());
    }
  }
  ASSERT_GT(steps.size(), 8u);
  EXPECT_EQ(std::max_element(steps.begin(), steps.end()) - steps.begin(), 6);
  for (size_t k = 0; k < steps.size(); ++k) {
    if (k != 6) {
      EXPECT_LT(5.0 * steps[k], steps[6]) << "step " << k;
    }
  }
}

RunResult RunSimChaos(uint64_t seed) {
  RunConfig config = PaperSimConfig();
  config.run.num_workers = kWorkers;
  config.sim.max_updates = 80;
  config.sim.accuracy_threshold = -1.0;
  config.run.seed = seed;
  config.run.fault =
      MakeChaosPlan(seed, kCrashWorker, kCrashAfter, kDropProb);
  config.strategy.kind = StrategyKind::kPReduceConst;
  config.strategy.group_size = kGroupSize;
  return StartRun(config, EngineKind::kSim);
}

TEST(ChaosTest, SimulatorMirrorsCrashRecoveryAcrossSeeds) {
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    RunResult result = RunSimChaos(seed);
    // The crashed worker was evicted in virtual time, its group aborted,
    // and the run still made progress afterwards.
    EXPECT_GE(result.metrics.counter("fault.evictions"), 1.0);
    EXPECT_GE(result.metrics.counter("fault.aborted_groups"), 1.0);
    EXPECT_GT(result.updates, 0u);
    CheckReportJson(RunReportJson(result), "sim");
  }
}

// ---------------------------------------------------------------------------
// Controller failover: crash, restart, re-registration recovery.
// ---------------------------------------------------------------------------

// Small learning rate: by the end of these short runs every trajectory sits
// on the same shallow stretch of the loss surface, so an uninterrupted run
// and a failover run agree on the final loss to well under the 1e-3 bar
// even though the group compositions (and, in the threaded engine, the
// timing-dependent group schedule) differ.
constexpr double kFailoverLr = 0.001;

RunConfig ThreadedFailoverConfig(uint64_t seed, bool restart) {
  RunConfig config = ChaosConfig(seed, StrategyKind::kPReduceConst);
  config.run.sgd.learning_rate = kFailoverLr;
  config.run.fault =
      restart ? MakeControllerRestartPlan(seed, /*after_groups=*/2,
                                          /*down_seconds=*/0.3,
                                          /*drop_prob=*/0.0)
              : MakeControllerCrashPlan(seed, /*after_groups=*/2,
                                        /*drop_prob=*/0.0);
  return config;
}

TEST(ChaosTest, ThreadedControllerRestartRecovers) {
  for (uint64_t seed = 1; seed <= 2; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    RunConfig faulty = ThreadedFailoverConfig(seed, /*restart=*/true);
    RunConfig clean = faulty;
    clean.run.fault = FaultPlan{};
    ThreadedRunResult with_failover = RunThreaded(faulty);
    ThreadedRunResult uninterrupted = RunThreaded(clean);

    // The controller died once and came back; at least one parked worker
    // re-registered with the new incarnation.
    EXPECT_EQ(with_failover.metrics.counter("controller.failovers"), 1.0);
    EXPECT_GE(with_failover.metrics.counter("controller.reregistrations"),
              1.0);

    // Recovery is complete: every worker finishes the same budget as an
    // uninterrupted run, and training lands at the same final loss.
    ASSERT_EQ(with_failover.worker_iterations.size(),
              uninterrupted.worker_iterations.size());
    for (size_t w = 0; w < with_failover.worker_iterations.size(); ++w) {
      EXPECT_EQ(with_failover.worker_iterations[w],
                uninterrupted.worker_iterations[w])
          << "worker " << w << " lost iterations to the failover";
    }
    EXPECT_NEAR(with_failover.final_loss, uninterrupted.final_loss, 1e-3);
  }
}

TEST(ChaosTest, ThreadedPermanentControllerCrashFinishesLocally) {
  RunConfig config = ThreadedFailoverConfig(3, /*restart=*/false);
  // Tighten the park-loop valves so the test doesn't spend wall-clock
  // waiting on a controller that is never coming back.
  config.run.fault.max_verdict_wait_seconds = 0.3;
  config.run.fault.max_controller_outage_seconds = 0.3;
  config.run.fault.reregister_backoff_seconds = 0.02;
  config.run.fault.reregister_backoff_max_seconds = 0.1;
  ThreadedRunResult result = RunThreaded(config);

  // No restart ever happened, the severed endpoint ate traffic, and every
  // worker still finished its budget through the local-progress valve.
  EXPECT_EQ(result.metrics.counter("controller.failovers"), 0.0);
  EXPECT_GE(result.metrics.counter("fault.severed_drops"), 1.0);
  for (size_t iters : result.worker_iterations) {
    EXPECT_EQ(iters, kIterations);
  }
}

RunResult RunSimFailover(uint64_t seed, bool restart) {
  RunConfig config = PaperSimConfig();
  config.run.num_workers = kWorkers;
  config.sim.max_updates = 60;
  config.sim.accuracy_threshold = -1.0;
  config.run.seed = seed;
  config.run.sgd.learning_rate = kFailoverLr;
  config.run.fault =
      restart ? MakeControllerRestartPlan(seed, /*after_groups=*/5,
                                          /*down_seconds=*/0.2,
                                          /*drop_prob=*/0.0)
              : MakeControllerCrashPlan(seed, /*after_groups=*/5,
                                        /*drop_prob=*/0.0);
  config.strategy.kind = StrategyKind::kPReduceConst;
  config.strategy.group_size = kGroupSize;
  return StartRun(config, EngineKind::kSim);
}

TEST(ChaosTest, SimulatorMirrorsControllerRestart) {
  for (uint64_t seed = 1; seed <= 2; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    RunResult with_failover = RunSimFailover(seed, /*restart=*/true);

    RunConfig clean_config = PaperSimConfig();
    clean_config.run.num_workers = kWorkers;
    clean_config.sim.max_updates = 60;
    clean_config.sim.accuracy_threshold = -1.0;
    clean_config.run.seed = seed;
    clean_config.run.sgd.learning_rate = kFailoverLr;
    clean_config.strategy.kind = StrategyKind::kPReduceConst;
    clean_config.strategy.group_size = kGroupSize;
    RunResult uninterrupted = StartRun(clean_config, EngineKind::kSim);

    EXPECT_EQ(with_failover.metrics.counter("controller.failovers"), 1.0);
    EXPECT_GE(with_failover.metrics.counter("controller.reregistrations"),
              1.0);
    // The outage parked signals instead of losing them: the run still
    // reaches the same update budget and the same final loss.
    EXPECT_EQ(with_failover.updates, uninterrupted.updates);
    ASSERT_FALSE(with_failover.curve.empty());
    ASSERT_FALSE(uninterrupted.curve.empty());
    EXPECT_NEAR(with_failover.curve.back().loss,
                uninterrupted.curve.back().loss, 1e-3);
  }
}

TEST(ChaosTest, SimulatorPermanentControllerCrashStallsUpdates) {
  RunResult result = RunSimFailover(7, /*restart=*/false);
  // Signals die at the severed endpoint; with nobody to form groups the
  // update counter freezes and the run winds down short of its budget.
  EXPECT_GE(result.metrics.counter("fault.severed_drops"), 1.0);
  EXPECT_EQ(result.metrics.counter("controller.failovers"), 0.0);
  EXPECT_GE(result.updates, 5u);
  EXPECT_LT(result.updates, 60u);
}

TEST(ChaosTest, SimulatorControllerFailoverIsDeterministic) {
  RunResult a = RunSimFailover(9, /*restart=*/true);
  RunResult b = RunSimFailover(9, /*restart=*/true);
  EXPECT_EQ(a.updates, b.updates);
  EXPECT_EQ(a.clock_seconds, b.clock_seconds);
  EXPECT_EQ(a.metrics.counter("controller.reregistrations"),
            b.metrics.counter("controller.reregistrations"));
  EXPECT_EQ(a.metrics.counter("fault.severed_drops"),
            b.metrics.counter("fault.severed_drops"));
}

TEST(ChaosTest, SimControllerStatsSurviveRestart) {
  // The run result sums the controller stats of every incarnation, so it
  // agrees with the controller.* counters all incarnations increment.
  for (uint64_t seed : {2u, 3u}) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    RunConfig config = PaperSimConfig();
    config.run.num_workers = 6;
    config.sim.max_updates = 60;
    config.sim.accuracy_threshold = -1.0;
    config.run.seed = seed;
    config.run.sgd.learning_rate = kFailoverLr;
    config.run.fault =
        MakeControllerRestartPlan(seed, /*after_groups=*/5,
                                  /*down_seconds=*/0.2, /*drop_prob=*/0.0);
    config.strategy.kind = StrategyKind::kPReduceConst;
    config.strategy.group_size = 2;
    const RunResult result = StartRun(config, EngineKind::kSim);
    ASSERT_EQ(result.metrics.counter("controller.failovers"), 1.0);
    EXPECT_EQ(static_cast<double>(result.controller_stats.frozen_detections),
              result.metrics.counter("controller.frozen_detections"));
    EXPECT_EQ(static_cast<double>(result.controller_stats.bridged_groups),
              result.metrics.counter("controller.bridged_groups"));
  }
}

// ---------------------------------------------------------------------------
// Compressed chaos: the int8 codec under the same crash + 1% drop plan.
// Compression must change the bytes, not the fault story or the training
// outcome.
// ---------------------------------------------------------------------------

TEST(ChaosTest, ThreadedCompressedChaosKeepsLossParity) {
  // Same shallow-trajectory trick as the failover tests: with a small
  // learning rate both runs sit on the same stretch of the loss surface, so
  // the quantization noise is the only thing that could separate them.
  RunConfig plain = ChaosConfig(2, StrategyKind::kPReduceConst);
  plain.run.sgd.learning_rate = kFailoverLr;
  RunConfig compressed = plain;
  compressed.strategy.compression = CompressionKind::kInt8;

  ThreadedRunResult plain_run = RunThreaded(plain);
  ThreadedRunResult compressed_run = RunThreaded(compressed);

  // The fault machinery is codec-blind: crash noticed, group aborted,
  // survivors finish their budgets.
  EXPECT_GE(compressed_run.metrics.counter("fault.evictions"), 1.0);
  EXPECT_GE(compressed_run.metrics.counter("fault.aborted_groups"), 1.0);
  for (int w = 0; w < kWorkers; ++w) {
    if (w == kCrashWorker) continue;
    EXPECT_EQ(compressed_run.worker_iterations[static_cast<size_t>(w)],
              kIterations)
        << "survivor " << w << " did not finish under compression";
  }

  // The codec was actually in the path: the compress.* family is live and
  // the blobs are ~3.9x smaller than the fp32 they encode.
  const double in = compressed_run.metrics.counter("compress.bytes_in");
  const double out = compressed_run.metrics.counter("compress.bytes_out");
  ASSERT_GT(in, 0.0);
  ASSERT_GT(out, 0.0);
  EXPECT_GE(in / out, 3.0);
  EXPECT_EQ(plain_run.metrics.counter("compress.bytes_in"), 0.0);

  // Loss parity: int8 with error feedback lands within 2% of fp32.
  ASSERT_GT(plain_run.final_loss, 0.0);
  EXPECT_NEAR(compressed_run.final_loss, plain_run.final_loss,
              0.02 * plain_run.final_loss);
}

TEST(ChaosTest, SimulatorCompressedChaosKeepsLossParity) {
  RunConfig config = PaperSimConfig();
  config.run.num_workers = kWorkers;
  config.sim.max_updates = 80;
  config.sim.accuracy_threshold = -1.0;
  config.run.seed = 5;
  config.run.fault =
      MakeChaosPlan(5, kCrashWorker, kCrashAfter, kDropProb);
  config.strategy.kind = StrategyKind::kPReduceConst;
  config.strategy.group_size = kGroupSize;
  RunResult plain_run = StartRun(config, EngineKind::kSim);

  config.strategy.compression = CompressionKind::kInt8;
  RunResult compressed_run = StartRun(config, EngineKind::kSim);

  // Quantization perturbs values, never virtual time: the schedule, the
  // fault story, and the update budget are identical.
  EXPECT_EQ(compressed_run.updates, plain_run.updates);
  EXPECT_EQ(compressed_run.metrics.counter("fault.evictions"),
            plain_run.metrics.counter("fault.evictions"));

  // The traffic model now counts encoded bytes.
  const double plain_bytes =
      plain_run.metrics.counter("transport.bytes_sent");
  const double compressed_bytes =
      compressed_run.metrics.counter("transport.bytes_sent");
  ASSERT_GT(compressed_bytes, 0.0);
  EXPECT_GE(plain_bytes / compressed_bytes, 3.0);
  EXPECT_GT(compressed_run.metrics.counter("compress.bytes_in"), 0.0);

  // And the training outcome holds parity.
  ASSERT_FALSE(plain_run.curve.empty());
  ASSERT_FALSE(compressed_run.curve.empty());
  const double plain_loss = plain_run.curve.back().loss;
  EXPECT_NEAR(compressed_run.curve.back().loss, plain_loss,
              0.02 * plain_loss);
}

// A healthy ring is never reported stuck, however long it runs: 30 ms on
// every worker->worker link stretches each P=4 reduce to about 0.2 s, past
// stuck_report_ticks x recv_timeout_seconds (0.15 s). Like the threaded
// ring, whose segment waits only time out on a silent peer, a ring whose
// members have all joined gets no ticks, so no member sends GroupStuck.
TEST(ChaosTest, SimulatorLongHealthyRingIsNeverAborted) {
  RunConfig config = PaperSimConfig();
  config.run.num_workers = kWorkers;
  config.sim.max_updates = 30;
  config.sim.accuracy_threshold = -1.0;
  config.run.seed = 4;
  FaultPlan& plan = config.run.fault;
  plan.force_fault_tolerant = true;
  for (int a = 0; a < kWorkers; ++a) {
    for (int b = 0; b < kWorkers; ++b) {
      if (a != b) plan.link_delay_seconds[{a, b}] = 0.03;
    }
  }
  ASSERT_GT(6 * 0.03, plan.stuck_report_ticks * plan.recv_timeout_seconds);
  config.strategy.kind = StrategyKind::kPReduceConst;
  config.strategy.group_size = kGroupSize;
  const RunResult result = StartRun(config, EngineKind::kSim);

  EXPECT_EQ(result.updates, 30u);
  EXPECT_EQ(result.metrics.counter("fault.aborted_groups"), 0.0);
}

TEST(ChaosTest, SimulatorChaosIsDeterministic) {
  RunResult a = RunSimChaos(9);
  RunResult b = RunSimChaos(9);
  EXPECT_EQ(a.updates, b.updates);
  EXPECT_EQ(a.clock_seconds, b.clock_seconds);
  EXPECT_EQ(a.metrics.counter("fault.evictions"),
            b.metrics.counter("fault.evictions"));
  EXPECT_EQ(a.metrics.counter("fault.aborted_groups"),
            b.metrics.counter("fault.aborted_groups"));
  EXPECT_EQ(a.metrics.counter("fault.retries"),
            b.metrics.counter("fault.retries"));
}

}  // namespace
}  // namespace pr
