#include <gtest/gtest.h>

#include <string>

#include "core/controller.h"
#include "obs/metric_table.h"
#include "strategies/p_reduce_service.h"

namespace pr {
namespace {

bool IsRelease(const ServiceActions& actions, int worker) {
  return actions.size() == 1 &&
         actions[0].kind == ServiceAction::Kind::kRelease &&
         actions[0].worker == worker;
}

// The degradation gates are pure functions of the live-worker count, so
// both engines' behaviour is pinned here without threads or an event queue.
TEST(PReduceServiceTest, GatesAreAFunctionOfTheLiveWorkerCount) {
  enum class Verdict { kQueue, kRelease, kLocalStep };
  struct Row {
    int active;
    int group_size;
    int min_group_size;
    int liveness_floor;
    Verdict verdict;
    int effective_p;
  };
  const Row rows[] = {
      // Gates off: P stays put; fewer than P live workers release waiters.
      {6, 4, 0, 0, Verdict::kQueue, 4},
      {4, 4, 0, 0, Verdict::kQueue, 4},
      {3, 4, 0, 0, Verdict::kRelease, 4},
      // min_group_size lets P follow the pool down to min_p.
      {3, 4, 2, 0, Verdict::kQueue, 3},
      {2, 4, 2, 0, Verdict::kQueue, 2},
      {1, 4, 2, 0, Verdict::kRelease, 2},
      // min_p is clamped to [2, P].
      {1, 4, 1, 0, Verdict::kRelease, 2},
      {3, 4, 9, 0, Verdict::kRelease, 4},
      // Below the liveness floor every signal goes to local SGD.
      {3, 4, 2, 4, Verdict::kLocalStep, 3},
      {4, 4, 2, 4, Verdict::kQueue, 4},
      {1, 4, 2, 3, Verdict::kLocalStep, 2},
      {5, 4, 0, 6, Verdict::kLocalStep, 4},
  };
  for (const Row& row : rows) {
    SCOPED_TRACE("active=" + std::to_string(row.active) +
                 " P=" + std::to_string(row.group_size) +
                 " min_group_size=" + std::to_string(row.min_group_size) +
                 " liveness_floor=" + std::to_string(row.liveness_floor));
    StrategyOptions options;
    options.group_size = row.group_size;
    options.scale_policy.min_group_size = row.min_group_size;
    options.scale_policy.liveness_floor = row.liveness_floor;
    MetricsRegistry registry;
    MetricsShard* shard = registry.NewShard();
    FaultPlan plan;
    plan.controller_events.push_back(ControllerFaultEvent{});
    PReduceService service(options, 8, Topology(), plan,
                           {shard, nullptr, nullptr});

    // Departures learned during an outage reach the restarted controller
    // in one batch, so it moves from P to the effective P in one step and
    // counts one shrink.
    service.Crash();
    for (int w = row.active; w < 8; ++w) service.Pause(w);
    service.BeginRecovery();
    EXPECT_TRUE(service.EndRecovery().empty());
    EXPECT_EQ(service.controller().effective_group_size(), row.effective_p);
    EXPECT_EQ(shard->Get(metric::kScenarioSmallGroups)->value(),
              row.effective_p < row.group_size ? 1.0 : 0.0);

    // A lone ready signal is queued, or released at once by the gates.
    const ServiceActions answer = service.Ready(0, 1);
    if (row.verdict == Verdict::kQueue) {
      EXPECT_TRUE(answer.empty());
    } else {
      EXPECT_TRUE(IsRelease(answer, 0));
    }
    EXPECT_EQ(shard->Get(metric::kScenarioLocalSteps)->value(),
              row.verdict == Verdict::kLocalStep ? 1.0 : 0.0);
  }
}

StrategyOptions Con(int group_size) {
  StrategyOptions options;
  options.group_size = group_size;
  return options;
}

// Pause and Rejoin are best-effort: a Ready from a worker the service holds
// as paused is an implicit rejoin, never a signal from a departed worker.
TEST(PReduceServiceTest, ReadyFromPausedWorkerRejoinsIt) {
  PReduceService service(Con(2), 4, Topology(), FaultPlan{}, {});
  EXPECT_TRUE(service.Pause(1).empty());
  EXPECT_FALSE(service.active(1));
  EXPECT_TRUE(service.Ready(1, 6).empty());
  EXPECT_TRUE(service.active(1));
  EXPECT_FALSE(service.controller().departed(1));
  const ServiceActions formed = service.Ready(0, 6);
  ASSERT_EQ(formed.size(), 2u);
  EXPECT_EQ(formed[0].kind, ServiceAction::Kind::kGroupInfo);
  EXPECT_EQ(formed[0].group->members, (std::vector<int>{1, 0}));
  // The late Rejoin finds the worker active and changes nothing.
  EXPECT_TRUE(service.Rejoin(1).empty());
}

// A late copy of a Ready whose iteration a completed group consumed (for
// example one delayed past the worker's next Pause) is stale.
TEST(PReduceServiceTest, ConsumedReadyIsNeverGroupedTwice) {
  PReduceService service(Con(2), 2, Topology(), FaultPlan{}, {});
  EXPECT_TRUE(service.Ready(0, 3).empty());
  const ServiceActions formed = service.Ready(1, 3);
  ASSERT_EQ(formed.size(), 2u);
  const uint64_t g = formed[0].group_id;
  service.GroupDone(0, g);
  service.GroupDone(1, g);
  EXPECT_TRUE(service.in_flight().empty());

  service.Pause(0);
  EXPECT_TRUE(service.Ready(0, 3).empty());  // stale: no implicit rejoin
  EXPECT_FALSE(service.active(0));
  service.Rejoin(0);
  EXPECT_TRUE(service.Ready(1, 3).empty());
  EXPECT_TRUE(service.Ready(0, 4).empty());
  const ServiceActions next = service.Ready(1, 4);
  ASSERT_EQ(next.size(), 2u);
  EXPECT_EQ(next[0].group->iterations, (std::vector<int64_t>{4, 4}));
}

// A Release consumes the iteration it answers: a duplicated or re-sent
// Ready for it gets the Release again and is never queued, so it cannot be
// grouped after the worker moved on.
TEST(PReduceServiceTest, ReleasedReadyIsAnsweredAgainNotRequeued) {
  PReduceService service(Con(2), 3, Topology(), FaultPlan{}, {});
  EXPECT_TRUE(service.Ready(0, 5).empty());
  service.Pause(1);
  const ServiceActions released = service.Pause(2);  // the pool drops below P
  ASSERT_TRUE(IsRelease(released, 0));
  EXPECT_EQ(released[0].iteration, 5);
  service.Rejoin(1);
  service.Rejoin(2);

  const ServiceActions again = service.Ready(0, 5);
  ASSERT_TRUE(IsRelease(again, 0));
  EXPECT_EQ(again[0].iteration, 5);
  EXPECT_TRUE(service.Ready(1, 7).empty());  // nothing to pair with
  EXPECT_TRUE(service.Ready(0, 4).empty());  // older still: stale
  const ServiceActions formed = service.Ready(0, 6);
  ASSERT_EQ(formed.size(), 2u);
  EXPECT_EQ(formed[0].group->iterations, (std::vector<int64_t>{7, 6}));
}

}  // namespace
}  // namespace pr
