#pragma once

#include <memory>
#include <vector>

#include "compress/compressor.h"
#include "sim/sim_training.h"
#include "strategies/strategy.h"

namespace pr {

/// \brief Ring all-reduce with a global barrier per iteration — the
/// synchronous baseline the paper starts from (Alg. 1 over collectives).
///
/// Every worker computes a gradient on identical parameters; the round
/// closes when the *slowest* worker arrives (this max-of-N is exactly the
/// heterogeneity sensitivity the paper attacks); a ring all-reduce averages
/// the gradients, every replica takes the same SGD step, and the next round
/// begins. One global update per round.
class AllReduceStrategy : public Strategy {
 public:
  explicit AllReduceStrategy(
      SimTraining* ctx,
      CompressionKind compression = CompressionKind::kNone);

  void Start() override;

 private:
  void BeginCompute(int worker);
  void OnGradientReady(int worker);
  void OnReduceDone();

  SimTraining* ctx_;
  CompressionKind compression_;
  /// Per-worker compression emulation (empty when compression is none):
  /// each gradient is quantize-dequantized through its worker's
  /// error-feedback residual before the average.
  std::vector<std::unique_ptr<Compressor>> compressors_;
  std::vector<std::vector<float>> grads_;
  int ready_count_ = 0;
};

}  // namespace pr
