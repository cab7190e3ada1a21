#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "tensor/tensor.h"

namespace pr {

/// \brief An in-memory labeled classification dataset.
///
/// `features` is an [num_examples, dim] matrix; `labels[i]` is the integer
/// class of row i. Datasets are immutable once built; workers address them
/// through index shards so no copies are made per worker.
struct Dataset {
  Tensor features;          ///< [n, dim]
  std::vector<int> labels;  ///< length n, values in [0, num_classes)
  int num_classes = 0;

  size_t size() const { return labels.size(); }
  size_t dim() const { return features.cols(); }
};

/// \brief A view of a worker's portion of a dataset: a list of row indices.
struct Shard {
  std::vector<size_t> indices;
  size_t size() const { return indices.size(); }
};

/// \brief Splits `n` examples into `num_shards` disjoint, near-equal shards.
///
/// Indices are shuffled with `rng` first so shards are i.i.d. draws from the
/// dataset — the "data sharding approach" of the paper's implementation
/// section, which keeps the unbiased-gradient assumption (Assumption 1.2)
/// reasonable.
std::vector<Shard> ShardDataset(size_t n, size_t num_shards, Rng* rng);

/// \brief Non-IID sharding: class proportions per shard follow a symmetric
/// Dirichlet(alpha) draw, the standard federated/heterogeneous-data split.
///
/// Small alpha (e.g. 0.3) gives each worker a strongly skewed class mix;
/// alpha -> infinity recovers the IID split. Skewed shards make worker
/// models *biased* between synchronizations, which is what makes staleness
/// and partial aggregation genuinely costly (and the paper's dynamic
/// weights genuinely useful). Shards are disjoint, cover all examples, and
/// sizes are balanced to within a factor set by the draw.
std::vector<Shard> ShardDatasetDirichlet(const std::vector<int>& labels,
                                         int num_classes, size_t num_shards,
                                         double alpha, Rng* rng);

/// \brief Samples mini-batches from one shard, with replacement across
/// batches and epoch-style shuffling within.
///
/// Each call to NextBatch copies `batch_size` rows from the dataset into the
/// output tensors. When the shard is exhausted, the order is reshuffled
/// (a new epoch).
class BatchSampler {
 public:
  /// `dataset` must outlive the sampler. batch_size must be >= 1; if it
  /// exceeds the shard size the whole shard is used each batch.
  BatchSampler(const Dataset* dataset, Shard shard, size_t batch_size,
               uint64_t seed);

  /// Fills `x` with [b, dim] features and `y` with b labels.
  void NextBatch(Tensor* x, std::vector<int>* y);
  /// Advances exactly as `batches` NextBatch calls would, without copying
  /// (a resumed run skips the batches its checkpoint already consumed).
  void Skip(uint64_t batches);

  size_t batch_size() const { return batch_size_; }

 private:
  void Reshuffle();

  const Dataset* dataset_;
  Shard shard_;
  size_t batch_size_;
  size_t cursor_ = 0;
  Rng rng_;
};

}  // namespace pr
