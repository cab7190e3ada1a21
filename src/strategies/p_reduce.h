#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "compress/compressor.h"
#include "strategies/p_reduce_policy.h"
#include "strategies/strategy.h"

namespace pr {

/// \brief The paper's contribution: partial reduce (Alg. 2).
///
/// Each worker loops independently: compute gradient -> local SGD step ->
/// ready signal to the controller -> wait for a group of P -> weighted model
/// average with the group -> next iteration. Groups form from the P oldest
/// ready signals (with frozen-avoidance bridging) and synchronize *in
/// parallel* with other groups and with other workers' computation — no
/// global barrier ever forms. Constant mode averages with 1/P; dynamic mode
/// uses staleness-aware EMA weights and fast-forwards members' iteration
/// counters to the group max.
class PReduceStrategy : public Strategy {
 public:
  PReduceStrategy(SimTraining* ctx, const StrategyOptions& options);

  void Start() override;
  std::string Name() const override;
  const Controller* controller() const override { return controller_.get(); }
  ControllerStats controller_stats() const override;

 private:
  void BeginCompute(int worker);
  void OnGradientReady(int worker);
  void SendSignal(int worker);
  void OnSignalArrival(int worker);
  void OnGroupReduceDone(const GroupDecision& decision);
  void OnGroupAborted(const GroupDecision& decision,
                      const std::vector<int>& crashed);
  void HandleDecisions(const std::vector<GroupDecision>& decisions);
  /// Lease-horizon eviction of a crashed worker (mirrors the threaded
  /// controller's FailureDetector verdict in virtual time).
  void EvictNow(int worker);
  /// True when `worker` carries an armed crash event of the given placement
  /// that its iteration counter has reached.
  bool CrashArmed(int worker, bool in_group) const;

  /// Controller outage mirroring (see FaultPlan::controller_events): fires
  /// the next scheduled crash once enough groups completed, parks signals
  /// that arrive while the controller is down, and on restart rebuilds a
  /// fresh controller from the state workers can vouch for — the virtual-
  /// time analogue of the threaded incarnation loop.
  void MaybeCrashController();
  void CrashController();
  void RestartController();

  /// Scenario-driven membership changes are *lenient*: a leave for an
  /// already-absent (or crashed) worker is a no-op, a rejoin for an active
  /// worker just cancels its pending leave. Generated traces can overlap
  /// windows; the engines must diverge on none of them.
  void ScenarioLeave(int worker);
  void ScenarioRejoin(int worker);
  /// Degradation gate: retargets the controller's effective group size
  /// after every membership change (PReducePolicy::Retarget).
  void UpdateEffectiveGroupSize();
  /// One autoscaler tick in virtual time: samples the workers' wait-seconds
  /// delta, feeds the policy, and pauses/readmits workers through the
  /// scenario churn paths. Reschedules itself every interval.
  void ScalePolicyTick();

  SimTraining* ctx_;
  StrategyOptions options_;
  std::unique_ptr<Controller> controller_;
  /// Stats of the controller incarnations a restart replaced.
  ControllerStats retired_stats_;
  /// Per-worker compression emulation (empty when compression is none):
  /// each member's contribution is quantize-dequantized through its own
  /// error-feedback residual before the group average, mirroring what the
  /// threaded engine's compressed ring does to the values.
  std::vector<std::unique_ptr<Compressor>> compressors_;
  /// Elastic membership: pending leave requests (applied at the worker's
  /// next gradient boundary) and current activity flags.
  std::vector<bool> leave_requested_;
  std::vector<bool> active_;
  int active_count_ = 0;

  // --- Fault mirroring (see SimTrainingOptions::fault) ---
  std::vector<bool> crashed_;
  /// Per-worker ready-signal sequence numbers for deterministic drop rolls.
  std::vector<uint64_t> signal_seq_;
  /// Registered when the fault plan is enabled; injected_delays mirrors the
  /// threaded FaultyTransport's count for the deterministic link delays.
  FaultMetrics fault_;

  // --- Controller outage mirroring ---
  bool controller_down_ = false;
  size_t next_outage_ = 0;
  /// controller_events sorted by after_groups.
  std::vector<ControllerFaultEvent> outages_;
  uint64_t completed_groups_ = 0;
  /// Workers whose ready signals hit the severed controller; they
  /// re-register when it restarts.
  std::vector<int> parked_;
  /// Recently completed groups (id -> members), bounded by
  /// reregister_report_groups — what re-registration can vouch for.
  std::map<uint64_t, std::vector<int>> recent_groups_;

  // --- Scenario replay + autoscaling + graceful degradation ---
  /// True when the run carries a scenario, a scale policy, or degradation
  /// gates; relaxes the membership invariants deep churn legitimately
  /// violates (never set for hand-written churn schedules).
  bool scenario_mode_ = false;
  /// Registered in scenario mode; null handles otherwise.
  ScenarioMetrics scenario_metrics_;
  PReducePolicy policy_;
  /// Workers currently paused by the scale policy (not by the trace).
  std::vector<bool> scale_paused_;
  /// Last-sampled per-run wait-seconds total, for the policy's idle deltas.
  double last_wait_total_ = 0.0;
  double last_tick_time_ = 0.0;
  size_t last_updates_ = 0;
  std::unique_ptr<ScalePolicy> scale_policy_;
};

}  // namespace pr
