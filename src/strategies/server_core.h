#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "optim/sgd.h"
#include "strategies/strategy.h"

namespace pr {

/// \brief One thing the server asks its engine to do.
struct ServerAction {
  enum class Kind {
    /// Send the current model to `worker`, which asked for it.
    kModel,
    /// A round reached its target: run its reduce, then call EndRound.
    /// BSP and BK reduce on the server itself, so the engine ends the round
    /// before it feeds the next push; ER's reduce is a collective over
    /// every worker's deposit, during which pushes still deposit.
    kRoundReady,
  };
  Kind kind = Kind::kModel;
  int worker = -1;       ///< kModel: the recipient
  uint64_t version = 0;  ///< kModel: the version sent (the current one)
};
using ServerActions = std::vector<ServerAction>;

/// \brief The central server of the paper's §5.1 baselines (PS-BSP, PS-ASP,
/// PS-HETE, PS-BK and Eager-Reduce) as one sans-IO state machine that both
/// engines drive.
///
/// The core holds the central model, its optimizer, the version counter and
/// the ps.* instruments; it has no clock, thread or transport. The threaded
/// engine pumps envelopes into it and sends its replies, the simulator turns
/// the replies into virtual-time events, and a schedule explorer drives it
/// directly. The `now` observer only stamps trace events.
///
/// Every worker loops pull -> compute -> push; `last` marks the push that
/// ends its budget.
///
/// Per kind, the core alone decides when a push applies:
///  - ASP:  at once, scaled by 1/N (each push is one worker's gradient,
///          where BSP applies the mean of N);
///  - HETE: ASP, further scaled by ExcessStalenessLrScale(staleness, N);
///  - BSP:  the mean of a round's pushes, once all N arrived (budgets are
///          equal, so every round gets N);
///  - BK:   the mean of the first min(N - b, active) fresh pushes of the
///          current version; a push computed on an older version is dropped;
///  - ER:   the mean of all N workers' last deposits, stale ones included
///          (zero until a worker first deposits), once min(quorum, active)
///          workers are fresh in the round.
/// A synchronous round (BSP, BK, ER) that reaches its target is announced
/// with kRoundReady and applied by EndRound.
/// `active` counts workers that have not sent their last push.
///
/// Pulls: a pull is answered at once with the model the server holds at
/// that moment, unless its sender already contributed to the open round
/// (BSP, BK, ER: InRound); such a pull parks until the round closes, and
/// every parked pull is then answered with the new model, in worker order.
///
/// Waste (BK only): a gradient is wasted when a round close supersedes the
/// version it is computed on. ps.wasted_gradients counts it once, at that
/// close; its push, if it ever comes, is dropped without counting again. An
/// engine may therefore cancel such a compute (Superseded) and re-pull.
///
/// Trace events: kPsPull per answered pull (a = version), kPsPush per push
/// (a = staleness, b = 1 if dropped), kReduceEnd per ER round (a = the new
/// version).
class ServerCore {
 public:
  struct Observers {
    MetricsShard* metrics = nullptr;
    TraceRecorder* trace = nullptr;
    std::function<double()> now;
  };

  /// `init` is the initial model every replica starts from.
  ServerCore(const StrategyOptions& options, int num_workers,
             std::vector<float> init, const SgdOptions& sgd,
             Observers observers);

  /// `worker` asks for the model. Valid when it holds none, or holds a
  /// superseded one it gives up on.
  ServerActions Pull(int worker);
  /// `worker`'s gradient, computed on the model version `pulled`. `lr` is
  /// the base learning rate of any step this push applies.
  ServerActions Push(int worker, uint64_t pulled, const float* grad,
                     bool last, double lr);
  /// The reduce of the round a kRoundReady announced finished: its step
  /// (at base learning rate `lr`), then every parked pull is answered.
  ServerActions EndRound(double lr);

  const std::vector<float>& model() const { return model_; }
  uint64_t version() const { return version_; }
  /// Workers that have not sent their last push.
  int active() const { return active_; }
  /// True when a gradient computed on `pulled` will be dropped: a BK round
  /// closed since.
  bool Superseded(uint64_t pulled) const;
  /// True when a pull from `worker` would park: it contributed to the open
  /// round.
  bool InRound(int worker) const {
    return workers_[static_cast<size_t>(worker)].in_round;
  }

 private:
  enum class Hold { kNone, kWaiting, kModel };
  struct Worker {
    Hold hold = Hold::kNone;
    uint64_t version = 0;  ///< kModel: the version it computes on
    bool in_round = false;  ///< contributed to the open round
  };

  bool synchronous() const;
  void Trace(TraceEventKind kind, int worker, int64_t a, int64_t b = 0) const;
  void Reply(int worker, ServerActions* out);
  /// Applies `grad` (scaled by `lr_scale`) and opens the next version.
  void Step(const float* grad, double lr, double lr_scale);

  StrategyKind kind_;
  int n_;
  int round_target_ = 0;  ///< BSP: N, BK: N - b, ER: the quorum
  Observers observers_;
  std::vector<float> model_;
  Sgd opt_;
  uint64_t version_ = 0;
  int active_;
  std::vector<Worker> workers_;
  /// The open round's gradient sum (ER: built from deposits_ at its end).
  std::vector<float> round_sum_;
  std::vector<std::vector<float>> deposits_;  ///< ER: each worker's last
  int round_count_ = 0;  ///< fresh contributions to the open round
  bool closing_ = false;

  Counter* versions_ = nullptr;
  Counter* wasted_ = nullptr;
  Histogram* staleness_ = nullptr;
};

}  // namespace pr
