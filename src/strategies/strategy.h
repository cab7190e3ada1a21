#pragma once

#include <algorithm>
#include <cstddef>
#include <memory>
#include <string>

#include "common/enum_names.h"
#include "compress/codec.h"
#include "core/controller.h"
#include "scenario/scale_policy.h"

namespace pr {

class SimTraining;

/// \brief Every synchronization scheme evaluated in the paper (§5.1).
enum class StrategyKind {
  kAllReduce,       ///< ring all-reduce with a global barrier (AR)
  kEagerReduce,     ///< partial collectives with stale gradients (ER)
  kAdPsgd,          ///< asynchronous decentralized pairwise gossip (AD)
  kPsBsp,           ///< parameter server, bulk synchronous
  kPsAsp,           ///< parameter server, fully asynchronous
  kPsHete,          ///< ASP + staleness-scaled learning rate (PS HETE)
  kPsBackup,        ///< synchronous SGD with backup workers (PS BK)
  kPReduceConst,    ///< partial reduce, constant 1/P weights (CON)
  kPReduceDynamic,  ///< partial reduce, dynamic EMA weights (DYN)
};

/// Short display names matching the paper's tables; also the config and
/// `prlaunch --strategy` tokens.
inline constexpr EnumName<StrategyKind> kStrategyKindNames[] = {
    {StrategyKind::kAllReduce, "AR"},
    {StrategyKind::kEagerReduce, "ER"},
    {StrategyKind::kAdPsgd, "AD"},
    {StrategyKind::kPsBsp, "PS-BSP"},
    {StrategyKind::kPsAsp, "PS-ASP"},
    {StrategyKind::kPsHete, "PS-HETE"},
    {StrategyKind::kPsBackup, "PS-BK"},
    {StrategyKind::kPReduceConst, "CON"},
    {StrategyKind::kPReduceDynamic, "DYN"},
};

inline std::string StrategyKindName(StrategyKind kind) {
  return NameOf(kStrategyKindNames, kind);
}

inline bool IsPReduce(StrategyKind kind) {
  return kind == StrategyKind::kPReduceConst ||
         kind == StrategyKind::kPReduceDynamic;
}

inline bool IsPsFamily(StrategyKind kind) {
  return kind == StrategyKind::kPsBsp || kind == StrategyKind::kPsAsp ||
         kind == StrategyKind::kPsHete || kind == StrategyKind::kPsBackup;
}

/// Kinds the coordinated checkpoint covers, in both engines.
inline bool CheckpointSupported(StrategyKind kind) {
  return IsPReduce(kind) || kind == StrategyKind::kAllReduce;
}

/// \brief Strategy-specific knobs.
struct StrategyOptions {
  StrategyKind kind = StrategyKind::kPReduceConst;
  /// P for partial reduce.
  int group_size = 3;
  /// Backup worker count b for PS-BK (accepts N - b gradients per round).
  int backup_workers = 3;
  /// Quorum for Eager-Reduce; 0 selects majority floor(N/2) + 1.
  int er_quorum = 0;
  /// Dynamic partial-reduce weight options.
  DynamicWeightOptions dynamic;
  /// Group-frozen avoidance toggle (ablation).
  bool frozen_avoidance = true;
  /// History window T; 0 = paper minimum.
  size_t history_window = 0;
  /// Record W_k matrices for spectral diagnostics (small N only).
  bool record_sync_matrices = false;
  /// P-Reduce ablation: also average the members' momentum buffers during
  /// a group reduce. The paper's prototype averages only parameters
  /// (momentum stays local); merging optimizer state is the natural
  /// alternative from the local-SGD literature.
  bool average_momentum = false;
  /// Gradient/model compression applied to every strategy's bulk payloads
  /// (ring hops, PS pushes and model replies, gossip exchanges), with
  /// per-worker error feedback. kNone = exact fp32 (the default).
  CompressionKind compression = CompressionKind::kNone;
  /// Two-level hierarchical P-Reduce (intra-node partial groups plus
  /// scheduled cross-node merges). Requires a non-flat run topology; a no-op
  /// otherwise.
  HierarchyOptions hierarchy;
  /// Ring-cost budget for the group filter's topology-aware connectivity
  /// check; 0 disables the budget (FIFO picks always stand).
  double group_cost_budget = 0.0;
  /// Autoscaling + graceful-degradation policy (P-Reduce only): watches
  /// idle/throughput samples and pauses/readmits workers through the
  /// elastic churn paths; the degradation gates relax group formation under
  /// sustained membership loss. Serialized as `strategy.scale_policy.*`.
  ScalePolicyConfig scale_policy;
};

/// Eager-Reduce's quorum: `er_quorum` when set, else the majority
/// floor(N/2) + 1 (ServerCore's round target; GradientsPerUpdate's ER value).
inline int EagerReduceQuorum(const StrategyOptions& options, int num_workers) {
  return options.er_quorum > 0 ? options.er_quorum : num_workers / 2 + 1;
}

/// Gradients one global update incorporates: N for an AR, PS-BSP or PS-BK
/// round, P for a P-Reduce group, the quorum for an Eager-Reduce round, 2
/// for an AD-PSGD pair and 1 for an asynchronous push.
inline int GradientsPerUpdate(const StrategyOptions& options,
                              int num_workers) {
  switch (options.kind) {
    case StrategyKind::kAllReduce:
    case StrategyKind::kPsBsp:
    case StrategyKind::kPsBackup:
      return num_workers;
    case StrategyKind::kPReduceConst:
    case StrategyKind::kPReduceDynamic:
      return std::max(1, options.group_size);
    case StrategyKind::kEagerReduce:
      return EagerReduceQuorum(options, num_workers);
    case StrategyKind::kAdPsgd:
      return 2;
    case StrategyKind::kPsAsp:
    case StrategyKind::kPsHete:
      break;
  }
  return 1;
}

/// Global updates that consume the gradient budget num_workers x
/// iterations_per_worker at GradientsPerUpdate each. The simulator stops
/// there unless the run caps its updates itself.
inline size_t UpdateBudget(const StrategyOptions& options, int num_workers,
                           size_t iterations_per_worker) {
  const double updates = static_cast<double>(num_workers) *
                         static_cast<double>(iterations_per_worker) /
                         GradientsPerUpdate(options, num_workers);
  return static_cast<size_t>(std::max(1.0, updates + 0.5));
}

/// \brief A synchronization strategy driving a simulated training run.
///
/// Construction wires the strategy to a SimTraining context; Start()
/// schedules the initial events; the caller then runs the engine until the
/// context stops.
class Strategy {
 public:
  virtual ~Strategy() = default;

  /// Schedules the initial events (typically: every worker begins its first
  /// local computation at t = 0).
  virtual void Start() = 0;

  /// The P-Reduce controller, for stats/spectral queries; null otherwise.
  virtual const Controller* controller() const { return nullptr; }

  /// Controller stats summed over every controller incarnation of the run
  /// (a restart replaces controller()); zero without a controller.
  virtual ControllerStats controller_stats() const { return {}; }
};

/// \brief Factory. `ctx` must outlive the strategy.
std::unique_ptr<Strategy> MakeStrategy(const StrategyOptions& options,
                                       SimTraining* ctx);

}  // namespace pr
