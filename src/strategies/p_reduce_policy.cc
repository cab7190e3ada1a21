#include "strategies/p_reduce_policy.h"

#include <algorithm>

namespace pr {

ControllerOptions ControllerOptionsFrom(const StrategyOptions& options,
                                        int num_workers,
                                        const Topology& topology) {
  ControllerOptions copts;
  copts.num_workers = num_workers;
  copts.group_size = options.group_size;
  copts.mode = options.kind == StrategyKind::kPReduceDynamic
                   ? PartialReduceMode::kDynamic
                   : PartialReduceMode::kConstant;
  copts.dynamic = options.dynamic;
  copts.frozen_avoidance = options.frozen_avoidance;
  copts.history_window = options.history_window;
  copts.record_sync_matrices = options.record_sync_matrices;
  copts.topology = topology;
  copts.hierarchy = options.hierarchy;
  copts.group_cost_budget = options.group_cost_budget;
  return copts;
}

void RestoreController(const RunManifest& manifest, Controller* controller) {
  controller->Restore({manifest.history, manifest.next_group_id});
}

void StampManifest(const Controller& controller, RunManifest* manifest) {
  const auto& groups = controller.history().groups();
  manifest->history.assign(groups.begin(), groups.end());
  manifest->next_group_id = controller.next_group_id();
}

ControllerRestoreState RestoreStateFromGroups(
    const std::map<uint64_t, std::vector<int>>& groups, uint64_t watermark) {
  ControllerRestoreState rs;
  for (const auto& [gid, members] : groups) {
    if (members.size() >= 2) rs.history.push_back(members);
    watermark = std::max(watermark, gid);
  }
  rs.next_group_id = watermark + 1;
  return rs;
}

std::vector<ControllerFaultEvent> SortedOutages(const FaultPlan& plan) {
  std::vector<ControllerFaultEvent> outages = plan.controller_events;
  std::sort(outages.begin(), outages.end(),
            [](const ControllerFaultEvent& a, const ControllerFaultEvent& b) {
              return a.after_groups < b.after_groups;
            });
  return outages;
}

void AccumulateControllerStats(const ControllerStats& incarnation,
                               ControllerStats* total) {
  total->signals_received += incarnation.signals_received;
  total->groups_formed += incarnation.groups_formed;
  total->bridged_groups += incarnation.bridged_groups;
  total->frozen_detections += incarnation.frozen_detections;
  total->cross_node_groups += incarnation.cross_node_groups;
  total->intra_node_groups += incarnation.intra_node_groups;
}

FaultMetrics RegisterFaultMetrics(MetricsShard* metrics) {
  FaultMetrics m;
  m.injected_drops = metrics->GetCounter("fault.injected_drops");
  metrics->GetCounter("fault.injected_dups");  // only the injector counts it
  m.injected_delays = metrics->GetCounter("fault.injected_delays");
  m.severed_drops = metrics->GetCounter("fault.severed_drops");
  m.retries = metrics->GetCounter("fault.retries");
  m.evictions = metrics->GetCounter("fault.evictions");
  m.aborted_groups = metrics->GetCounter("fault.aborted_groups");
  m.heartbeats = metrics->GetCounter("fault.heartbeats");
  m.failovers = metrics->GetCounter("controller.failovers");
  m.reregistrations = metrics->GetCounter("controller.reregistrations");
  return m;
}

bool ScenarioMode(const ScenarioSpec& scenario,
                  const ScalePolicyConfig& scale_policy) {
  return scenario.enabled() || scale_policy.enabled() ||
         scale_policy.degradation_enabled();
}

ScenarioMetrics RegisterScenarioMetrics(MetricsShard* metrics,
                                        const ScenarioSpec& scenario) {
  for (const auto& [name, count] : ScenarioMetricCounts(scenario)) {
    metrics->GetCounter(name)->Increment(count);
  }
  ScenarioMetrics m;
  m.partitions_applied = metrics->GetCounter("scenario.partitions_applied");
  m.scale_grow = metrics->GetCounter("scenario.scale.grow");
  m.scale_shrink = metrics->GetCounter("scenario.scale.shrink");
  m.small_groups = metrics->GetCounter("scenario.degrade.small_groups");
  m.local_steps = metrics->GetCounter("scenario.degrade.local_steps");
  m.forced_ckpts = metrics->GetCounter("scenario.degrade.forced_ckpts");
  return m;
}

PReducePolicy::PReducePolicy(const StrategyOptions& options,
                             const ScenarioMetrics& metrics)
    : group_size_(options.group_size),
      min_p_(options.scale_policy.min_group_size > 0
                 ? std::max(2, std::min(options.scale_policy.min_group_size,
                                        options.group_size))
                 : options.group_size),
      liveness_floor_(options.scale_policy.liveness_floor),
      small_groups_(metrics.small_groups),
      local_steps_(metrics.local_steps) {}

int PReducePolicy::TargetGroupSize(int active) const {
  return std::max(min_p_, std::min(active, group_size_));
}

SignalVerdict PReducePolicy::Verdict(int active) const {
  if (liveness_floor_ > 0 && active < liveness_floor_) {
    return SignalVerdict::kLocalStep;
  }
  if (active < min_p_) return SignalVerdict::kRelease;
  return SignalVerdict::kQueue;
}

std::vector<GroupDecision> PReducePolicy::Retarget(
    int active, Controller* controller) const {
  const int target = TargetGroupSize(active);
  const int current = controller->effective_group_size();
  if (target == current) return {};
  if (target < current && small_groups_ != nullptr) {
    small_groups_->Increment();
  }
  return controller->SetEffectiveGroupSize(target);
}

void PReducePolicy::CountLocalStep() const {
  if (local_steps_ != nullptr) local_steps_->Increment();
}

}  // namespace pr
