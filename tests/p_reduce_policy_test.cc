#include <gtest/gtest.h>

#include <string>

#include "core/controller.h"
#include "obs/metrics.h"
#include "strategies/p_reduce_policy.h"

namespace pr {
namespace {

// The degradation gates are pure functions of the live-worker count, so
// both engines' behaviour is pinned here without threads or an event queue.
TEST(PReducePolicyTest, GatesAreAFunctionOfTheLiveWorkerCount) {
  struct Row {
    int active;
    int group_size;
    int min_group_size;
    int liveness_floor;
    SignalVerdict verdict;
    int effective_p;
  };
  const Row rows[] = {
      // Gates off: P stays put; fewer than P live workers release waiters.
      {6, 4, 0, 0, SignalVerdict::kQueue, 4},
      {4, 4, 0, 0, SignalVerdict::kQueue, 4},
      {3, 4, 0, 0, SignalVerdict::kRelease, 4},
      // min_group_size lets P follow the pool down to min_p.
      {3, 4, 2, 0, SignalVerdict::kQueue, 3},
      {2, 4, 2, 0, SignalVerdict::kQueue, 2},
      {1, 4, 2, 0, SignalVerdict::kRelease, 2},
      // min_p is clamped to [2, P].
      {1, 4, 1, 0, SignalVerdict::kRelease, 2},
      {3, 4, 9, 0, SignalVerdict::kRelease, 4},
      // Below the liveness floor every signal goes to local SGD.
      {3, 4, 2, 4, SignalVerdict::kLocalStep, 3},
      {4, 4, 2, 4, SignalVerdict::kQueue, 4},
      {1, 4, 2, 3, SignalVerdict::kLocalStep, 2},
      {5, 4, 0, 6, SignalVerdict::kLocalStep, 4},
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
    const ScenarioMetrics metrics =
        RegisterScenarioMetrics(registry.NewShard(), ScenarioSpec{});
    const PReducePolicy policy(options, metrics);

    EXPECT_EQ(policy.Verdict(row.active), row.verdict);
    EXPECT_EQ(policy.TargetGroupSize(row.active), row.effective_p);

    // Retarget moves a fresh controller (at P) to the same effective P and
    // counts a shrink.
    Controller controller(ControllerOptionsFrom(options, 8, Topology()));
    EXPECT_TRUE(policy.Retarget(row.active, &controller).empty());
    EXPECT_EQ(controller.effective_group_size(), row.effective_p);
    EXPECT_EQ(metrics.small_groups->value(),
              row.effective_p < row.group_size ? 1.0 : 0.0);
  }
}

}  // namespace
}  // namespace pr
