#pragma once

#include <memory>
#include <vector>

#include "compress/compressor.h"
#include "sim/cost_model.h"
#include "sim/sim_training.h"
#include "strategies/strategy.h"

namespace pr {

/// \brief AD-PSGD baseline (Lian et al., ICML'18): asynchronous
/// decentralized parallel SGD.
///
/// Each worker independently computes a gradient at its current model, then
/// performs an *atomic* model average with one uniformly random peer
/// (regardless of the peer's state), then applies its gradient — which was
/// computed against the pre-average model, the "inconsistent update" the
/// paper contrasts P-Reduce against.
///
/// Atomicity means two averages that share a worker must serialize: each
/// worker's communication channel is a lock, and an average holds *both*
/// endpoints' channels for its duration. Random peer choice makes such
/// conflicts frequent (the pathology Prague/ASPLOS'20 documents), which is
/// what limits AD-PSGD's parallelism relative to P-Reduce's disjoint
/// controller-scheduled groups.
class AdPsgdStrategy : public Strategy {
 public:
  explicit AdPsgdStrategy(SimTraining* ctx,
                          CompressionKind compression = CompressionKind::kNone);

  void Start() override;

 private:
  void BeginCompute(int worker);
  void OnGradientReady(int worker);

  SimTraining* ctx_;
  /// Per-worker communication-channel busy horizon (virtual time).
  std::vector<double> comm_busy_;
  /// Global atomicity lock busy horizon (CPU-staged averaging).
  double atomic_lock_busy_ = 0.0;
  /// One codec per worker's outgoing model stream (empty without one).
  std::vector<std::unique_ptr<Compressor>> compressors_;
};

}  // namespace pr
