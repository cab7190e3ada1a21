#pragma once

#include <cstddef>
#include <string>

namespace pr {

/// \brief Periodic coordinated-checkpoint knobs, shared by both engines.
///
/// P-Reduce has no global barrier, so each worker cuts its own shard every
/// `every_iterations` local iterations and a manifest binds one epoch's
/// shards together (CutEpoch and CkptCoordinator in ckpt/protocol.h).
struct CheckpointConfig {
  /// Directory receiving manifests and per-worker shards; empty disables
  /// checkpointing entirely. Created on first save if missing.
  std::string dir;
  /// Local iterations between cuts (0 = never).
  size_t every_iterations = 0;

  bool enabled() const { return !dir.empty() && every_iterations > 0; }
};

}  // namespace pr
