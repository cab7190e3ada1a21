#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "compress/compressor.h"
#include "sim/cost_model.h"
#include "sim/sim_training.h"
#include "strategies/server_core.h"
#include "strategies/strategy.h"

namespace pr {

/// \brief The centralized baselines (§2.2, §5.1): PS-BSP, PS-ASP, PS-HETE,
/// PS-BK and Eager-Reduce, in virtual time.
///
/// Every worker loops pull -> compute -> push against one ServerCore, which
/// alone decides when a push applies, which pulls park and which gradients
/// are wasted. This class is the core's virtual-time pump and keeps only the
/// environment: compute time, and the network model. The parameter-server
/// kinds share one link (PsLinkQueue models the server's ingress/egress
/// bottleneck) that every model reply and gradient push holds for one
/// transfer, FIFO. A pull the server answers at once takes its place in that
/// queue when it is sent and reaches the server when the link is free to
/// carry the reply; a parked pull's reply queues when the round closes.
/// Eager-Reduce moves its gradients in a collective instead: its pulls and
/// pushes are free, and each round's reduce takes the ring's time. A BK
/// worker holding a model that a round close superseded stops computing on
/// it and re-pulls (the paper's version-flag check).
class ServerStrategy : public Strategy {
 public:
  ServerStrategy(SimTraining* ctx, const StrategyOptions& options);

  void Start() override;

 private:
  /// The engine's side of one worker.
  struct WorkerEnv {
    /// Bumped when a compute is cancelled, so its stale events are ignored.
    uint64_t epoch = 0;
    uint64_t version = 0;  ///< the model version it computes on
    bool computing = false;
    bool waiting = false;  ///< its pull is parked at the server
    /// The end of the link slot its pull in flight holds for the reply.
    std::optional<double> slot;
  };

  /// Carries out a core input's actions, after counting a new version as a
  /// global update.
  void Apply(const ServerActions& actions);
  /// The worker asks for the model (see the class comment for its timing).
  void SendPull(int worker);
  /// The worker received its model: it computes on it.
  void OnModel(int worker);
  void OnComputeDone(int worker, uint64_t epoch);
  void OnPushArrived(int worker);
  /// The current version's model as the workers receive it: under
  /// compression, encoded once per version through the server's codec.
  const std::vector<float>& Published();

  SimTraining* ctx_;
  /// Eager-Reduce: a collective, not a link, carries the gradients.
  bool collective_;
  ServerCore core_;
  uint64_t recorded_version_ = 0;  ///< versions counted as global updates
  PsLinkQueue link_;
  std::vector<WorkerEnv> envs_;
  std::vector<std::vector<float>> grads_;
  /// Compression (empty/null when none): each worker's pushes run through
  /// its own error-feedback codec, each version's model through the
  /// server's, as on the threaded engine.
  std::vector<std::unique_ptr<Compressor>> compressors_;
  std::unique_ptr<Compressor> server_compressor_;
  std::vector<float> published_;
  std::optional<uint64_t> published_version_;
};

}  // namespace pr
