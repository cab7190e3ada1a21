#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <optional>
#include <vector>

#include "core/group_filter.h"
#include "core/group_history.h"
#include "core/sync_matrix.h"
#include "core/weight_generator.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace pr {

/// \brief Aggregation rule selector for the controller's weight generator.
enum class PartialReduceMode {
  kConstant,  ///< weights 1/P (§3.1)
  kDynamic,   ///< staleness-aware EMA weights (§3.3)
};

/// \brief Controller configuration.
struct ControllerOptions {
  int num_workers = 0;
  int group_size = 0;  ///< the paper's P; 2 <= P <= N
  PartialReduceMode mode = PartialReduceMode::kConstant;
  DynamicWeightOptions dynamic;
  /// Enable group-frozen avoidance (sync-graph connectivity repair).
  bool frozen_avoidance = true;
  /// History window T; 0 selects the paper's minimum ceil((N-1)/(P-1)).
  size_t history_window = 0;
  /// Accumulate E[W_k] for spectral diagnostics (small N only; the matrix
  /// is N x N).
  bool record_sync_matrices = false;
  /// Cluster placement; flat (the default) preserves historical behavior.
  Topology topology;
  /// Two-level hierarchical scheduling (requires a non-flat topology).
  HierarchyOptions hierarchy;
  /// Ring-cost budget for the group filter's connectivity check; 0 disables.
  double group_cost_budget = 0.0;
};

/// \brief A formed partial-reduce group, ready to broadcast to its members.
struct GroupDecision {
  uint64_t group_id = 0;
  std::vector<int> members;            ///< worker ids, FIFO-selection order
  std::vector<int64_t> iterations;     ///< members' iteration counters
  std::vector<double> weights;         ///< aggregation weights, sum to 1
  /// Iteration counter every member adopts after the reduce: max of
  /// `iterations` (§3.3.3 — "their models are the latest").
  int64_t advanced_iteration = 0;
  bool bridged = false;                ///< formed by frozen-avoidance repair
};

/// \brief Rebuilt or persisted controller state, applied to a fresh
/// controller on failover (rebuilt from worker re-registrations) or on a
/// checkpoint restore (read from the manifest).
struct ControllerRestoreState {
  /// Group-history window, oldest first. Member sets may be partial after a
  /// failover (only surviving workers report their memberships); the
  /// sync-graph built from partial groups has a subset of the true edges,
  /// which can only make frozen detection more eager, never less.
  std::vector<std::vector<int>> history;
  /// Group-id watermark: ids handed out after the restore start here, so
  /// workers' ascending-id GroupInfo dedup keeps rejecting stale re-sends.
  uint64_t next_group_id = 1;
};

/// \brief Counters exposed for tests and reports.
struct ControllerStats {
  uint64_t signals_received = 0;
  uint64_t groups_formed = 0;
  uint64_t bridged_groups = 0;
  uint64_t frozen_detections = 0;
  /// Groups whose members span >1 node / stay within one node. Both stay 0
  /// on a flat topology (no placement to classify against).
  uint64_t cross_node_groups = 0;
  uint64_t intra_node_groups = 0;
};

/// \brief The partial-reduce controller (Fig. 6): signal queue -> group
/// filter (+ group history DB) -> weight generator -> decisions.
///
/// This class is the engine-agnostic control plane. The discrete-event
/// simulator calls OnReadySignal directly; the threaded runtime wraps it in
/// a server thread that receives signals off the transport and broadcasts
/// decisions back (the "group broadcaster"). The controller never touches
/// model parameters or gradients — exactly the paper's point that it is not
/// a parameter-server-style bottleneck.
///
/// Not thread-safe; callers serialize access (the runtime's server thread
/// owns it).
class Controller {
 public:
  explicit Controller(const ControllerOptions& options);

  /// Attaches observability sinks (all optional; pass null to skip).
  ///
  /// `metrics` receives the controller.* counters, the pending-queue
  /// high-water gauge, and the controller.decision_latency_seconds
  /// histogram (real CPU time per OnReadySignal, measured on a steady
  /// clock — the paper's "the controller is not a bottleneck" quantity,
  /// meaningful under both the simulator and the threaded runtime).
  /// `trace` receives signal/group/hold events stamped with `now()` —
  /// virtual time in the simulator, wall-clock seconds in the runtime.
  /// Call before the first signal; not thread-safe against concurrent use.
  void AttachObservers(MetricsShard* metrics, TraceRecorder* trace,
                       std::function<double()> now);

  /// Ingests one ready signal; returns the groups formed by it (usually
  /// zero or one).
  ///
  /// When frozen avoidance detects a disconnected sync-graph, the queue
  /// holds only workers from a single component, and another component has
  /// at least P live workers, formation is *held* until a signal from
  /// another component arrives — the filter "interacts with the signal
  /// queue" (§4) to guarantee a bridging group. The signal that finally
  /// bridges can therefore release several held groups at once.
  std::vector<GroupDecision> OnReadySignal(int worker, int64_t iteration);

  /// Marks a worker as departed (it will send no more ready signals until
  /// it rejoins). Holds that were waiting for that worker's component
  /// re-check and may release groups — returned like OnReadySignal's. The
  /// history window T stays sized for the original N: the frozen bound
  /// T >= ceil((N-1)/(P-1)) only loosens as N falls.
  std::vector<GroupDecision> NotifyWorkerLeft(int worker);

  /// Re-admits a previously departed worker (elastic membership): it may
  /// signal again and counts for frozen-avoidance bridging.
  std::vector<GroupDecision> NotifyWorkerRejoined(int worker);

  /// Number of signals currently queued.
  size_t PendingSignals() const { return pending_.size(); }
  /// The queued signals, oldest first.
  const std::deque<ReadySignal>& pending() const { return pending_; }

  /// Removes and returns all queued signals. Used by the runtime's
  /// termination protocol: when fewer than P workers remain active, queued
  /// waiters can never form a group and must be released.
  std::vector<ReadySignal> DrainPending();

  /// Removes `worker`'s queued signals; returns how many were purged.
  /// A dead worker's stale signals must not be matched into future groups.
  size_t PurgePending(int worker);

  /// Seeds a fresh controller with recovered state. Call before the first
  /// signal: the history window resumes frozen-avoidance with pre-crash
  /// knowledge and the id watermark never moves backwards.
  void Restore(const ControllerRestoreState& state);

  /// Graceful degradation: temporarily shrinks (or restores) the effective
  /// group size used for formation, clamped to [2, options().group_size].
  /// Shrinking can release queued signals immediately, so formed groups are
  /// returned like OnReadySignal's. The history window T stays sized for the
  /// configured P — a smaller effective P only tightens the frozen bound, so
  /// frozen detection may fire more eagerly while degraded, never less.
  std::vector<GroupDecision> SetEffectiveGroupSize(int p);
  int effective_group_size() const { return effective_group_size_; }
  /// True between NotifyWorkerLeft and NotifyWorkerRejoined.
  bool departed(int worker) const {
    return departed_[static_cast<size_t>(worker)];
  }

  const ControllerOptions& options() const { return options_; }
  const ControllerStats& stats() const { return stats_; }
  const GroupHistory& history() const { return history_; }
  uint64_t next_group_id() const { return next_group_id_; }

  /// E[W_k] accumulated so far; requires record_sync_matrices and at least
  /// one formed group.
  SyncMatrix ExpectedSyncMatrix() const;

 private:
  /// True when some topology node still has group_size live (not departed)
  /// workers, i.e. a node-complete intra-node group remains reachable.
  bool IntraNodeGroupPossible() const;
  /// True when the pending queue holds workers from at least two components
  /// of the history sync-graph (a bridging group is possible right now).
  bool QueueSpansComponents() const;

  /// True when some component other than the queued workers' has at least
  /// the effective P live (not departed) workers, i.e. it could form groups
  /// by itself and stay isolated unless the queue is held for it.
  bool AnotherComponentCanGroupAlone() const;

  /// True when every queued signal comes from one node and another node
  /// still has a live worker, i.e. holding a due cross-node merge can
  /// eventually make it span nodes.
  bool MergeAwaitsAnotherNode() const;

  /// Counts and traces a hold: TryFormGroups leaves the queue as it is.
  void RecordHold();

  /// Forms as many groups as the queue and hold policy allow.
  std::vector<GroupDecision> TryFormGroups();

  double TraceNow() const { return now_ ? now_() : 0.0; }

  ControllerOptions options_;
  /// Formation size currently in force (== options_.group_size unless a
  /// degradation gate shrank it).
  int effective_group_size_ = 0;
  std::vector<bool> departed_;
  GroupFilter filter_;
  GroupHistory history_;
  std::deque<ReadySignal> pending_;
  ControllerStats stats_;
  uint64_t next_group_id_ = 1;
  SyncMatrixExpectation matrix_expectation_;
  /// True when hierarchy.enabled on a real (multi-node) topology.
  bool hierarchical_ = false;
  /// Intra-node groups formed since the last cross-node merge.
  int groups_since_cross_ = 0;

  // Observability sinks (null until AttachObservers); instrument handles
  // are cached so the hot path never does a name lookup.
  TraceRecorder* trace_ = nullptr;
  std::function<double()> now_;
  Counter* signals_counter_ = nullptr;
  Counter* groups_counter_ = nullptr;
  Counter* bridged_counter_ = nullptr;
  Counter* frozen_counter_ = nullptr;
  Counter* holds_counter_ = nullptr;
  Counter* cross_node_counter_ = nullptr;
  Counter* intra_node_counter_ = nullptr;
  Gauge* pending_high_water_ = nullptr;
  Histogram* decision_latency_ = nullptr;
};

}  // namespace pr
