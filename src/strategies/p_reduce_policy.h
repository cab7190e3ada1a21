#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "ckpt/manifest.h"
#include "core/controller.h"
#include "fault/fault_plan.h"
#include "obs/metrics.h"
#include "scenario/scenario.h"
#include "strategies/strategy.h"

namespace pr {

// The engine-neutral rules of a P-Reduce run: controller set-up and
// incarnation state, the graceful-degradation gates, and the eagerly
// registered metric families. The simulator and the threaded service both
// build from these, so the engines agree on them by construction.

/// The one place a ControllerOptions is filled in.
ControllerOptions ControllerOptionsFrom(const StrategyOptions& options,
                                        int num_workers,
                                        const Topology& topology);

/// Seeds a fresh controller with a manifest's history window and group-id
/// watermark.
void RestoreController(const RunManifest& manifest, Controller* controller);
/// Stamps the controller's history window and watermark into `manifest`.
void StampManifest(const Controller& controller, RunManifest* manifest);

/// Restore state after a failover, rebuilt from the groups survivors vouch
/// for (group id -> reported members). Groups with fewer than two reported
/// members carry no sync-graph edge and are dropped; ids resume above the
/// largest reported id and `watermark`.
ControllerRestoreState RestoreStateFromGroups(
    const std::map<uint64_t, std::vector<int>>& groups,
    uint64_t watermark = 0);

/// The plan's controller outages ordered by trigger point (cumulative group
/// counts, so they stay meaningful across restarts).
std::vector<ControllerFaultEvent> SortedOutages(const FaultPlan& plan);

/// Adds one controller incarnation's stats into the run total.
void AccumulateControllerStats(const ControllerStats& incarnation,
                               ControllerStats* total);

/// \brief The fault.* family plus controller.failovers and
/// controller.reregistrations. Fault-tolerant runs register every name, so a
/// chaos run's report carries them even when an injector never fired.
struct FaultMetrics {
  Counter* injected_drops = nullptr;
  Counter* injected_delays = nullptr;
  Counter* severed_drops = nullptr;
  Counter* retries = nullptr;
  Counter* evictions = nullptr;
  Counter* aborted_groups = nullptr;
  Counter* heartbeats = nullptr;
  Counter* failovers = nullptr;
  Counter* reregistrations = nullptr;
};
FaultMetrics RegisterFaultMetrics(MetricsShard* metrics);

/// \brief The scenario.* family's runtime counters.
struct ScenarioMetrics {
  Counter* partitions_applied = nullptr;
  Counter* scale_grow = nullptr;
  Counter* scale_shrink = nullptr;
  Counter* small_groups = nullptr;  ///< scenario.degrade.small_groups
  Counter* local_steps = nullptr;   ///< scenario.degrade.local_steps
  Counter* forced_ckpts = nullptr;  ///< scenario.degrade.forced_ckpts
};

/// True when a run carries a scenario, a scale policy or degradation gates;
/// such a run registers the scenario.* family.
bool ScenarioMode(const ScenarioSpec& scenario,
                  const ScalePolicyConfig& scale_policy);

/// Registers the scenario.* family: `scenario`'s compile counts (zeros
/// included) and the scale/degrade counters.
ScenarioMetrics RegisterScenarioMetrics(MetricsShard* metrics,
                                        const ScenarioSpec& scenario);

/// What the degradation gates do with an arriving ready signal.
enum class SignalVerdict {
  kQueue,      ///< hand it to the controller
  kRelease,    ///< fewer than min_p live workers: no group can form
  kLocalStep,  ///< below the liveness floor: take local SGD steps
};

/// \brief The graceful-degradation gates (strategy.scale_policy.*) as pure
/// functions of the live-worker count. `min_p` is the smallest group worth
/// forming when churn pulls the pool below P (P itself when the gate is
/// off); below the liveness floor every waiter takes local SGD steps.
class PReducePolicy {
 public:
  /// Null handles in `metrics` count nothing.
  PReducePolicy(const StrategyOptions& options,
                const ScenarioMetrics& metrics);

  /// Effective P for `active` live workers: clamp(active, min_p, P).
  int TargetGroupSize(int active) const;
  SignalVerdict Verdict(int active) const;

  /// After a membership change: moves the controller's effective P to
  /// TargetGroupSize(active), counting a shrink; returns the groups the
  /// change released.
  std::vector<GroupDecision> Retarget(int active,
                                      Controller* controller) const;
  /// Counts one kLocalStep verdict.
  void CountLocalStep() const;

 private:
  int group_size_;
  int min_p_;
  int liveness_floor_;
  Counter* small_groups_;
  Counter* local_steps_;
};

}  // namespace pr
