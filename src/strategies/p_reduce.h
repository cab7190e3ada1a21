#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "compress/compressor.h"
#include "sim/sim_training.h"
#include "strategies/p_reduce_service.h"
#include "strategies/p_reduce_worker.h"
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
///
/// The protocol is the engines' shared pair of cores: one PReduceWorker per
/// worker and the PReduceService. This class is their virtual-time pump and
/// keeps only the environment: compute time, the network model (drop
/// rolls, link delay, a severed controller) and the analytic ring.
class PReduceStrategy : public Strategy {
 public:
  PReduceStrategy(SimTraining* ctx, const StrategyOptions& options);

  void Start() override;
  const Controller* controller() const override {
    return &service_.controller();
  }
  ControllerStats controller_stats() const override {
    return service_.stats();
  }

 private:
  /// The engine's side of one worker, next to its protocol core.
  struct WorkerEnv {
    /// Bumped by every phase change and ring break, so a tick scheduled
    /// for an earlier wait or stall is recognised as stale.
    uint64_t epoch = 0;
    double since = 0.0;  ///< when the current phase began
    /// Drop-roll sequence on the worker->controller edge.
    uint64_t send_seq = 0;
    double window_end = 0.0;  ///< when the current pause's windows end
    int partitions = 0;       ///< partition windows open on the worker
  };
  /// The analytic ring of one group: it completes `comm` seconds after its
  /// last member joins, unless a member stopped first.
  struct Ring {
    std::shared_ptr<const GroupDecision> group;
    size_t joined = 0;
    bool broken = false;
  };

  void BeginCompute(int worker);
  void OnGradientReady(int worker);
  /// Carries out a core's actions.
  void Run(int worker, WorkerActions actions);
  /// Charges the phase that ended and starts the new one's clocks.
  void Transition(int worker, PReduceWorker::Phase from,
                  PReduceWorker::Phase to);
  /// The worker->controller hop: drop roll, link delay, severed endpoint.
  void SendToService(int worker, int kind, std::vector<int64_t> ints);
  /// Service messages arrive at once (the ring charges the GroupInfo
  /// broadcast); one the core does not take on arrival is lost, and the
  /// protocol's re-sends recover as from a drop.
  void Apply(const ServiceActions& actions);
  void Join(const std::shared_ptr<const GroupDecision>& group);
  void CompleteRing(uint64_t group_id);
  /// The next receive timeout of the worker's stall `epoch`, one
  /// recv_timeout_seconds from now (enabled plans only).
  void ScheduleTick(int worker, uint64_t epoch);
  /// True for a core that times out: one in a verdict wait, or in a ring
  /// that a member has not joined yet or has stopped. A running ring times
  /// nothing out, like the threaded ring's segment waits while segments
  /// flow.
  bool Stalled(int worker) const;
  void Tick(int worker, uint64_t epoch);
  /// Ends the run once every worker not dead or paused has given up on a
  /// permanently lost controller: no group can form again, and the
  /// simulator has no per-worker budget to finish locally.
  void MaybeStopWithoutController();

  /// Controller outage mirroring (see FaultPlan::controller_events): fires
  /// the next scheduled crash once enough groups completed and, on restart,
  /// opens the re-registration window — the virtual-time analogue of the
  /// threaded recovery window.
  void MaybeCrashController();
  void RestartController();

  /// Ends `worker`'s pause once its windows ended, no partition holds it
  /// and the autoscaler lets it go (a pause not begun is cancelled).
  void MaybeResume(int worker);
  /// One autoscaler tick in virtual time: samples the workers' wait-seconds
  /// delta, feeds the policy, moves the ScaleDirector's target and
  /// schedules the next tick (ScheduleScaleTick).
  void ScalePolicyTick();
  void ScheduleScaleTick();

  SimTraining* ctx_;
  StrategyOptions options_;
  PReduceService service_;
  // fault.* and scenario.* handles; null when the run's gates leave them
  // closed.
  Counter* injected_drops_;
  Counter* injected_delays_;
  Counter* severed_drops_;
  Counter* partitions_applied_;
  Counter* scale_grow_;
  Counter* scale_shrink_;
  std::vector<PReduceWorker> workers_;
  std::vector<WorkerEnv> envs_;
  std::map<uint64_t, Ring> rings_;
  /// Per-worker compression emulation (empty when compression is none):
  /// each member's contribution is quantize-dequantized through its own
  /// error-feedback residual before the group average, mirroring what the
  /// threaded engine's compressed ring does to the values.
  std::vector<std::unique_ptr<Compressor>> compressors_;

  // --- Controller outage mirroring ---
  uint64_t completed_groups_ = 0;
  bool controller_gone_ = false;  ///< crashed without a restart

  // --- Autoscaling ---
  /// Last-sampled per-run wait-seconds total, for the policy's idle deltas.
  double last_wait_total_ = 0.0;
  double last_tick_time_ = 0.0;
  std::unique_ptr<ScalePolicy> scale_policy_;
  std::unique_ptr<ScaleDirector> scale_director_;
};

}  // namespace pr
