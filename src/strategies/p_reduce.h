#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "compress/compressor.h"
#include "strategies/p_reduce_service.h"
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
  const Controller* controller() const override {
    return &service_.controller();
  }
  ControllerStats controller_stats() const override {
    return service_.stats();
  }

 private:
  void BeginCompute(int worker);
  void OnGradientReady(int worker);
  void SendSignal(int worker);
  void OnSignalArrival(int worker);
  /// The worker re-registers with the recovering service: its iteration
  /// and the recent groups it can vouch for.
  void Reregister(int worker);
  /// Turns the service's actions into virtual-time events: a new group
  /// starts its reduce, a release sends the worker back to compute.
  void Apply(const ServiceActions& actions);
  void StartGroup(const GroupDecision& decision);
  void OnGroupReduceDone(const GroupDecision& decision);
  /// A group with a crashed member stalls until the lease horizon: the
  /// crashed members are evicted and the survivors retry.
  void OnGroupStalled(const GroupDecision& decision,
                      const std::vector<int>& crashed);
  /// True when `worker` carries an armed crash event of the given placement
  /// that its iteration counter has reached.
  bool CrashArmed(int worker, bool in_group) const;

  /// Controller outage mirroring (see FaultPlan::controller_events): fires
  /// the next scheduled crash once enough groups completed, parks signals
  /// that arrive while the controller is down, and on restart opens the
  /// re-registration window — the virtual-time analogue of the threaded
  /// recovery window.
  void MaybeCrashController();
  void RestartController();

  /// Scenario-driven membership changes are *lenient*: a leave for an
  /// already-absent (or crashed) worker is a no-op, a rejoin for an active
  /// worker just cancels its pending leave. Generated traces can overlap
  /// windows; the engines must diverge on none of them.
  void ScenarioLeave(int worker);
  void ScenarioRejoin(int worker);
  /// One autoscaler tick in virtual time: samples the workers' wait-seconds
  /// delta, feeds the policy, and pauses/readmits workers through the
  /// scenario churn paths. Reschedules itself every interval.
  void ScalePolicyTick();

  SimTraining* ctx_;
  StrategyOptions options_;
  /// True when the run carries a scenario, a scale policy, or degradation
  /// gates: deep churn may then legitimately drive the pool below P (never
  /// set for hand-written churn schedules).
  bool scenario_mode_ = false;
  /// Registered in scenario mode; null handles otherwise.
  ScenarioMetrics scenario_metrics_;
  PReduceService service_;
  /// Per-worker compression emulation (empty when compression is none):
  /// each member's contribution is quantize-dequantized through its own
  /// error-feedback residual before the group average, mirroring what the
  /// threaded engine's compressed ring does to the values.
  std::vector<std::unique_ptr<Compressor>> compressors_;
  /// Elastic membership: pending leave requests, applied at the worker's
  /// next gradient boundary.
  std::vector<bool> leave_requested_;

  // --- Fault mirroring (see SimTrainingOptions::fault) ---
  std::vector<bool> crashed_;
  /// Per-worker ready-signal sequence numbers for deterministic drop rolls.
  std::vector<uint64_t> signal_seq_;

  // --- Controller outage mirroring ---
  uint64_t completed_groups_ = 0;
  /// Workers whose ready signals hit the severed controller, in arrival
  /// order; they re-register when it restarts.
  std::vector<int> parked_;
  /// Each worker's recently completed group ids (bounded by
  /// reregister_report_groups), reported on re-registration.
  std::vector<std::deque<uint64_t>> done_groups_;

  // --- Autoscaling ---
  /// Workers currently paused by the scale policy (not by the trace).
  std::vector<bool> scale_paused_;
  /// Last-sampled per-run wait-seconds total, for the policy's idle deltas.
  double last_wait_total_ = 0.0;
  double last_tick_time_ = 0.0;
  std::unique_ptr<ScalePolicy> scale_policy_;
};

}  // namespace pr
