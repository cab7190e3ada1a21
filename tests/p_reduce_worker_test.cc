#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "strategies/p_reduce_service.h"
#include "strategies/p_reduce_worker.h"

namespace pr {
namespace {

using Kind = WorkerAction::Kind;
using Phase = PReduceWorker::Phase;

StrategyOptions Con() {
  StrategyOptions options;
  options.group_size = 2;
  return options;
}

/// A plan with a controller outage: waits probe with re-registrations.
FaultPlan ControllerFaultPlan() {
  FaultPlan plan;
  plan.controller_events.push_back(ControllerFaultEvent{});
  return plan;
}

/// Worker 0's core after its first boundary: waiting at iteration 1,
/// the wait begun at time 0.
PReduceWorker Waiting(const FaultPlan& plan, MetricsShard* metrics = nullptr) {
  PReduceWorker core(0, Con(), plan, {metrics, nullptr});
  core.Start();
  core.Boundary(0.0);
  return core;
}

bool Has(const WorkerActions& actions, Kind kind, int message = 0) {
  for (const WorkerAction& a : actions) {
    if (a.kind == kind && (kind != Kind::kSend || a.message == message)) {
      return true;
    }
  }
  return false;
}

// Over sockets a service message's ints come from another process, so the
// decoder checks the shape of every message before it touches any state.
TEST(PReduceWorkerTest, DecoderDropsMalformedMessages) {
  struct Row {
    const char* name;
    int kind;
    std::vector<int64_t> ints;
    std::vector<double> weights;
    Kind taken;  ///< the action a well-formed message yields
    bool valid;
  };
  const Row rows[] = {
      {"GroupInfo", kKindGroupInfo, {5, 1, 0, 1}, {0.5, 0.5},
       Kind::kStartReduce, true},
      {"GroupInfo without members", kKindGroupInfo, {5, 1}, {},
       Kind::kStartReduce, false},
      {"GroupInfo without ints", kKindGroupInfo, {}, {}, Kind::kStartReduce,
       false},
      {"GroupInfo short of weights", kKindGroupInfo, {5, 1, 0, 1}, {1.0},
       Kind::kStartReduce, false},
      {"GroupInfo with a spare weight", kKindGroupInfo, {5, 1, 0, 1},
       {0.4, 0.3, 0.3}, Kind::kStartReduce, false},
      {"GroupInfo for other workers", kKindGroupInfo, {5, 1, 2, 3},
       {0.5, 0.5}, Kind::kStartReduce, false},
      {"Abort", kKindAbort, {5, 3}, {}, Kind::kPurgePeer, true},
      {"Abort without the dead member", kKindAbort, {5}, {},
       Kind::kPurgePeer, false},
      {"Abort with a spare int", kKindAbort, {5, 3, 7}, {}, Kind::kPurgePeer,
       false},
      {"Release", kKindRelease, {1}, {}, Kind::kProceed, true},
      {"Release without its iteration", kKindRelease, {}, {}, Kind::kProceed,
       false},
      {"Release for another iteration", kKindRelease, {0}, {},
       Kind::kProceed, false},
      {"unknown kind", 99, {1}, {}, Kind::kProceed, false},
  };
  for (const Row& row : rows) {
    SCOPED_TRACE(row.name);
    PReduceWorker core = Waiting(FaultPlan{});
    const WorkerActions actions =
        core.Receive(0.1, row.kind, row.ints, row.weights);
    EXPECT_EQ(Has(actions, row.taken), row.valid);
    if (!row.valid) {
      EXPECT_TRUE(actions.empty());
      EXPECT_EQ(core.phase(), Phase::kWaiting);
      // Nothing was adopted: the well-formed group 5 still starts.
      EXPECT_TRUE(Has(core.Receive(0.2, kKindGroupInfo, {5, 1, 0, 1},
                                   {0.5, 0.5}),
                      Kind::kStartReduce));
    }
  }
}

TEST(PReduceWorkerTest, GroupInfoIsDedupedByAscendingId) {
  PReduceWorker core = Waiting(FaultPlan{});
  // An Abort for a group never seen adopts its id.
  EXPECT_TRUE(Has(core.Receive(0.1, kKindAbort, {4, -1}), Kind::kPurgeGroup));
  EXPECT_TRUE(core.Receive(0.2, kKindGroupInfo, {4, 1, 0, 1}, {0.5, 0.5})
                  .empty());
  const WorkerActions start =
      core.Receive(0.3, kKindGroupInfo, {6, 3, 1, 0}, {0.25, 0.75});
  ASSERT_EQ(start.size(), 2u);
  EXPECT_EQ(start[0].kind, Kind::kPhaseChange);
  ASSERT_EQ(start[1].kind, Kind::kStartReduce);
  EXPECT_EQ(start[1].group->members, (std::vector<int>{1, 0}));
  EXPECT_EQ(start[1].group->weights, (std::vector<double>{0.25, 0.75}));
  EXPECT_EQ(start[1].group->advanced_iteration, 3);
  EXPECT_EQ(core.phase(), Phase::kReducing);
  // Inside the ring only this group's Abort is taken.
  EXPECT_FALSE(core.Deliverable(kKindAbort, {5, -1}));
  EXPECT_FALSE(core.Deliverable(kKindRelease, {1}));
  EXPECT_TRUE(core.Deliverable(kKindAbort, {6, -1}));
  EXPECT_TRUE(Has(core.Receive(0.4, kKindAbort, {6, -1}), Kind::kStopReduce));
  const WorkerActions retry = core.ReduceEnd(0.5, /*ok=*/false);
  EXPECT_TRUE(Has(retry, Kind::kRollback));
  EXPECT_TRUE(Has(retry, Kind::kSend, kKindReady));
  EXPECT_EQ(core.phase(), Phase::kWaiting);
  // The aborted group's re-sent GroupInfo is a duplicate now.
  EXPECT_TRUE(core.Receive(0.6, kKindGroupInfo, {6, 3, 1, 0}, {0.5, 0.5})
                  .empty());
}

TEST(PReduceWorkerTest, ReadyIsResentEveryFewTicks) {
  FaultPlan plan;
  plan.resend_ready_ticks = 4;
  PReduceWorker core = Waiting(plan);
  std::vector<int> resent;
  for (int tick = 1; tick <= 8; ++tick) {
    const WorkerActions actions = core.WaitTick(0.05 * tick);
    EXPECT_TRUE(Has(actions, Kind::kSend, kKindHeartbeat));
    if (Has(actions, Kind::kSend, kKindReady)) resent.push_back(tick);
  }
  EXPECT_EQ(resent, (std::vector<int>{4, 8}));
}

// Under controller faults the re-send is a re-registration probe whose
// spacing doubles up to its cap; every probe counts as a retry.
TEST(PReduceWorkerTest, ReregistrationBackoffDoublesUpToItsCap) {
  FaultPlan plan = ControllerFaultPlan();
  plan.reregister_backoff_seconds = 0.125;
  plan.reregister_backoff_max_seconds = 1.0;
  plan.max_controller_outage_seconds = 100.0;
  MetricsRegistry registry;
  MetricsShard* shard = registry.NewShard();
  PReduceWorker core = Waiting(plan, shard);
  std::vector<double> probes;
  for (int tick = 1; tick <= 32; ++tick) {
    const double now = 0.125 * tick;  // exact in binary
    for (const WorkerAction& a : core.WaitTick(now)) {
      if (a.kind == Kind::kSend && a.message == kKindReregister) {
        EXPECT_EQ(a.ints, (std::vector<int64_t>{1}));  // iteration, no groups
        probes.push_back(now);
      }
    }
  }
  EXPECT_EQ(probes, (std::vector<double>{0.125, 0.375, 0.875, 1.875, 2.875,
                                         3.875}));
  EXPECT_EQ(shard->GetCounter("fault.retries")->value(), 6.0);
  EXPECT_EQ(core.phase(), Phase::kWaiting);
}

// A ReregisterAck means the controller holds our signal: the verdict wait
// gets its whole budget again.
TEST(PReduceWorkerTest, ReregisterAckRestartsTheWaitBudget) {
  FaultPlan plan = ControllerFaultPlan();
  plan.max_verdict_wait_seconds = 1.0;
  plan.max_controller_outage_seconds = 2.0;  // the budget: max of the two
  {
    PReduceWorker core = Waiting(plan);
    EXPECT_FALSE(Has(core.WaitTick(1.5), Kind::kProceed));
    EXPECT_TRUE(Has(core.WaitTick(2.0), Kind::kProceed));
  }
  PReduceWorker core = Waiting(plan);
  EXPECT_TRUE(core.Receive(1.5, kKindReregisterAck, {}).empty());
  EXPECT_FALSE(Has(core.WaitTick(2.0), Kind::kProceed));
  EXPECT_FALSE(Has(core.WaitTick(3.0), Kind::kProceed));
  EXPECT_TRUE(Has(core.WaitTick(3.5), Kind::kProceed));
  EXPECT_TRUE(core.controller_lost());  // giving up marks it lost
}

// Once a wait gave up on the controller, later waits only probe for
// reregister_backoff_max_seconds; any controller traffic restores the full
// budget.
TEST(PReduceWorkerTest, LostControllerGetsQuickProbesUntilItSpeaks) {
  FaultPlan plan = ControllerFaultPlan();
  plan.max_verdict_wait_seconds = 1.0;
  plan.max_controller_outage_seconds = 2.0;
  plan.reregister_backoff_max_seconds = 0.5;
  PReduceWorker core = Waiting(plan);
  EXPECT_TRUE(Has(core.WaitTick(2.0), Kind::kProceed));
  EXPECT_TRUE(core.controller_lost());

  core.Boundary(2.0);
  EXPECT_FALSE(Has(core.WaitTick(2.25), Kind::kProceed));
  EXPECT_TRUE(Has(core.WaitTick(2.5), Kind::kProceed));
  EXPECT_TRUE(core.controller_lost());

  core.Boundary(3.0);
  EXPECT_TRUE(Has(core.Receive(3.25, kKindAbort, {1, -1}), Kind::kPurgeGroup));
  EXPECT_FALSE(core.controller_lost());
  EXPECT_FALSE(Has(core.WaitTick(5.0), Kind::kProceed));
  EXPECT_TRUE(Has(core.WaitTick(5.25), Kind::kProceed));
}

TEST(PReduceWorkerTest, CompletedGroupsAreReportedAndDynAdopts) {
  FaultPlan plan = ControllerFaultPlan();
  plan.reregister_report_groups = 2;
  plan.reregister_backoff_seconds = 0.125;
  StrategyOptions options = Con();
  options.kind = StrategyKind::kPReduceDynamic;
  PReduceWorker core(0, options, plan, {});
  core.Start();
  for (int64_t g = 1; g <= 3; ++g) {
    core.Boundary(0.0);
    core.Receive(0.0, kKindGroupInfo, {g, 10 * g, 0, 1}, {0.5, 0.5});
    const WorkerActions done = core.ReduceEnd(0.0, /*ok=*/true);
    EXPECT_TRUE(Has(done, Kind::kSend, kKindGroupDone));
    EXPECT_EQ(core.iteration(), 10 * g);
  }
  core.Boundary(0.0);
  for (const WorkerAction& a : core.WaitTick(0.125)) {
    if (a.kind == Kind::kSend && a.message == kKindReregister) {
      EXPECT_EQ(a.ints, (std::vector<int64_t>{31, 2, 3}));
    }
  }
}

TEST(PReduceWorkerTest, PausesBudgetsAndCrashes) {
  FaultPlan plan;
  WorkerFaultEvent crash;
  crash.worker = 0;
  crash.after_iterations = 2;
  crash.in_group = true;
  plan.worker_events.push_back(crash);
  PReduceWorker core(0, Con(), plan, {}, 0, 0, /*budget=*/3);
  core.RequestPause();
  EXPECT_TRUE(Has(core.Start(), Kind::kSend, kKindPause));
  const WorkerActions back = core.Resume(0.0);
  EXPECT_TRUE(Has(back, Kind::kSend, kKindRejoin));
  EXPECT_TRUE(Has(back, Kind::kProceed));
  // A pause that never reached a boundary is cancelled by its resume.
  core.RequestPause();
  EXPECT_TRUE(core.Resume(0.0).empty());
  EXPECT_TRUE(Has(core.Boundary(0.0), Kind::kSend, kKindReady));
  // Armed after two local iterations, the crash fires inside the group.
  core.Receive(0.0, kKindRelease, {1});
  core.Boundary(0.0);
  EXPECT_TRUE(Has(core.Receive(0.0, kKindGroupInfo, {1, 2, 0, 1}, {0.5, 0.5}),
                  Kind::kDie));
  EXPECT_EQ(core.phase(), Phase::kDead);

  PReduceWorker done(1, Con(), FaultPlan{}, {}, 0, 0, /*budget=*/1);
  done.Start();
  const WorkerActions leave = done.Boundary(0.0);
  EXPECT_TRUE(Has(leave, Kind::kFinish));
  EXPECT_TRUE(Has(leave, Kind::kSend, kKindLeave));
}

// The core owns the churn windows: it sits out each at the boundary (or,
// for an arrive window, the Start) where its completed count falls due,
// and reports how long the engine should wait.
TEST(PReduceWorkerTest, WindowPausesAtItsBoundaryForItsLength) {
  const std::vector<ChurnWindow> windows = {
      {1, 2, 0.5},  // another worker's: ignored
      {0, 2, 0.25},
      {0, 2, 0.5},  // due at the same count: one pause, lengths add up
      {0, 4, 1.0},
  };
  PReduceWorker core(0, Con(), FaultPlan{}, {}, 0, 0, /*budget=*/10,
                     windows);
  EXPECT_TRUE(Has(core.Start(), Kind::kProceed));
  EXPECT_TRUE(Has(core.Boundary(0.0), Kind::kSend, kKindReady));
  core.Receive(0.0, kKindRelease, {1});
  const WorkerActions pause = core.Boundary(0.0);
  EXPECT_TRUE(Has(pause, Kind::kSend, kKindPause));
  EXPECT_FALSE(Has(pause, Kind::kSend, kKindReady));
  EXPECT_EQ(core.phase(), Phase::kPaused);
  EXPECT_DOUBLE_EQ(core.pause_seconds(), 0.75);
  // Back from a boundary pause the worker signals that boundary at once.
  const WorkerActions back = core.Resume(1.0);
  EXPECT_TRUE(Has(back, Kind::kSend, kKindRejoin));
  EXPECT_TRUE(Has(back, Kind::kSend, kKindReady));
  EXPECT_DOUBLE_EQ(core.pause_seconds(), 0.0);
  core.Receive(1.0, kKindRelease, {2});
  EXPECT_TRUE(Has(core.Boundary(1.0), Kind::kSend, kKindReady));
  core.Receive(1.0, kKindRelease, {3});
  EXPECT_TRUE(Has(core.Boundary(1.0), Kind::kSend, kKindPause));
  EXPECT_DOUBLE_EQ(core.pause_seconds(), 1.0);
  // A requested pause has no length of its own: its requester ends it.
  core.Resume(2.0);
  core.Receive(2.0, kKindRelease, {4});
  core.RequestPause();
  EXPECT_TRUE(Has(core.Boundary(2.0), Kind::kSend, kKindPause));
  EXPECT_DOUBLE_EQ(core.pause_seconds(), 0.0);
}

TEST(PReduceWorkerTest, ArriveWindowHoldsTheWorkerOutAtStart) {
  PReduceWorker core(0, Con(), FaultPlan{}, {}, 0, 0, /*budget=*/10,
                     {{0, 0, 0.5}});
  const WorkerActions start = core.Start();
  EXPECT_TRUE(Has(start, Kind::kSend, kKindPause));
  EXPECT_FALSE(Has(start, Kind::kProceed));
  EXPECT_EQ(core.phase(), Phase::kPaused);
  EXPECT_DOUBLE_EQ(core.pause_seconds(), 0.5);
  // Back from a pause at Start the worker computes its first step.
  const WorkerActions back = core.Resume(0.5);
  EXPECT_TRUE(Has(back, Kind::kSend, kKindRejoin));
  EXPECT_TRUE(Has(back, Kind::kProceed));
  EXPECT_FALSE(Has(back, Kind::kSend, kKindReady));
}

TEST(PReduceWorkerTest, ResumedStartSkipsWindowsBehindIt) {
  // Resumed after 3 local iterations: the windows at 1 and 2 are history,
  // the one at 5 still falls due.
  PReduceWorker core(0, Con(), FaultPlan{}, {}, /*iteration=*/3,
                     /*completed=*/3, /*budget=*/10,
                     {{0, 1, 0.5}, {0, 2, 0.5}, {0, 5, 0.25}});
  EXPECT_TRUE(Has(core.Start(), Kind::kProceed));
  EXPECT_TRUE(Has(core.Boundary(0.0), Kind::kSend, kKindReady));
  core.Receive(0.0, kKindRelease, {4});
  EXPECT_TRUE(Has(core.Boundary(0.0), Kind::kSend, kKindPause));
  EXPECT_EQ(core.completed(), 5u);
  EXPECT_DOUBLE_EQ(core.pause_seconds(), 0.25);
}

// Engines charge idle and comm time from the core's kPhaseChange actions,
// so every input reports the one phase change it makes, and only that.
TEST(PReduceWorkerTest, EveryInputReportsItsOnePhaseChange) {
  auto change = [](const WorkerActions& actions) {
    std::vector<std::pair<Phase, Phase>> changes;
    for (const WorkerAction& a : actions) {
      if (a.kind == Kind::kPhaseChange) changes.emplace_back(a.from, a.to);
    }
    return changes;
  };
  using Changes = std::vector<std::pair<Phase, Phase>>;
  PReduceWorker core(0, Con(), FaultPlan{}, {}, 0, 0, /*budget=*/2);
  EXPECT_EQ(change(core.Start()), Changes{});
  core.RequestPause();
  EXPECT_EQ(change(core.Boundary(0.0)),
            (Changes{{Phase::kComputing, Phase::kPaused}}));
  // Back from a boundary pause the worker signals at once: straight to the
  // verdict wait, never through kComputing.
  EXPECT_EQ(change(core.Resume(0.1)),
            (Changes{{Phase::kPaused, Phase::kWaiting}}));
  EXPECT_EQ(change(core.Receive(0.2, kKindGroupInfo, {1, 1, 0, 1},
                                {0.5, 0.5})),
            (Changes{{Phase::kWaiting, Phase::kReducing}}));
  EXPECT_EQ(change(core.RingTick(0.3)), Changes{});
  EXPECT_EQ(change(core.ReduceEnd(0.4, /*ok=*/false)),
            (Changes{{Phase::kReducing, Phase::kWaiting}}));
  EXPECT_EQ(change(core.Receive(0.5, kKindRelease, {1})),
            (Changes{{Phase::kWaiting, Phase::kComputing}}));
  EXPECT_EQ(change(core.Boundary(0.6)),
            (Changes{{Phase::kComputing, Phase::kFinished}}));
}

}  // namespace
}  // namespace pr
