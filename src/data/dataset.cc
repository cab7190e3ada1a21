#include "data/dataset.h"

#include <algorithm>
#include <cmath>
#include <cstring>

namespace pr {

std::vector<Shard> ShardDataset(size_t n, size_t num_shards, Rng* rng) {
  PR_CHECK(rng != nullptr);
  PR_CHECK_GE(num_shards, 1u);
  std::vector<size_t> order(n);
  for (size_t i = 0; i < n; ++i) order[i] = i;
  rng->Shuffle(&order);

  std::vector<Shard> shards(num_shards);
  for (size_t i = 0; i < n; ++i) {
    shards[i % num_shards].indices.push_back(order[i]);
  }
  return shards;
}

std::vector<Shard> ShardDatasetDirichlet(const std::vector<int>& labels,
                                         int num_classes, size_t num_shards,
                                         double alpha, Rng* rng) {
  PR_CHECK(rng != nullptr);
  PR_CHECK_GE(num_shards, 1u);
  PR_CHECK_GE(num_classes, 1);
  PR_CHECK_GT(alpha, 0.0);

  // Bucket example indices by class, shuffled within each class.
  std::vector<std::vector<size_t>> by_class(
      static_cast<size_t>(num_classes));
  for (size_t i = 0; i < labels.size(); ++i) {
    const int c = labels[i];
    PR_CHECK_GE(c, 0);
    PR_CHECK_LT(c, num_classes);
    by_class[static_cast<size_t>(c)].push_back(i);
  }
  for (auto& bucket : by_class) rng->Shuffle(&bucket);

  std::vector<Shard> shards(num_shards);
  for (auto& bucket : by_class) {
    // Symmetric Dirichlet(alpha) over shards via normalized Gamma(alpha)
    // draws; Gamma sampled as sum-of-exponentials is wrong for alpha < 1,
    // so use the Marsaglia-Tsang boost: Gamma(a) = Gamma(a+1) * U^(1/a).
    std::vector<double> weights(num_shards);
    double total = 0.0;
    for (auto& w : weights) {
      // Marsaglia-Tsang for shape a+1 >= 1.
      const double a = alpha + 1.0;
      const double d = a - 1.0 / 3.0;
      const double c = 1.0 / std::sqrt(9.0 * d);
      double g;
      while (true) {
        double x = rng->Normal();
        double v = 1.0 + c * x;
        if (v <= 0.0) continue;
        v = v * v * v;
        double u = rng->Uniform();
        if (u < 1.0 - 0.0331 * x * x * x * x ||
            std::log(u + 1e-300) <
                0.5 * x * x + d * (1.0 - v + std::log(v))) {
          g = d * v;
          break;
        }
      }
      g *= std::pow(rng->Uniform() + 1e-300, 1.0 / alpha);
      w = g;
      total += w;
    }
    PR_CHECK_GT(total, 0.0);

    // Deal the class bucket out proportionally (largest remainder).
    size_t dealt = 0;
    for (size_t s = 0; s < num_shards; ++s) {
      const size_t take = static_cast<size_t>(
          static_cast<double>(bucket.size()) * weights[s] / total);
      for (size_t k = 0; k < take && dealt < bucket.size(); ++k) {
        shards[s].indices.push_back(bucket[dealt++]);
      }
    }
    // Remainder round-robin, weighted order.
    size_t s = 0;
    while (dealt < bucket.size()) {
      shards[s % num_shards].indices.push_back(bucket[dealt++]);
      ++s;
    }
  }

  // Guarantee no shard is empty (a worker must be able to sample batches):
  // steal from the largest shard.
  for (auto& shard : shards) {
    while (shard.indices.empty()) {
      auto* largest = &shards[0];
      for (auto& other : shards) {
        if (other.indices.size() > largest->indices.size()) {
          largest = &other;
        }
      }
      PR_CHECK_GT(largest->indices.size(), 1u);
      shard.indices.push_back(largest->indices.back());
      largest->indices.pop_back();
    }
  }
  return shards;
}

BatchSampler::BatchSampler(const Dataset* dataset, Shard shard,
                           size_t batch_size, uint64_t seed)
    : dataset_(dataset),
      shard_(std::move(shard)),
      batch_size_(std::min(batch_size, shard_.size())),
      rng_(seed) {
  PR_CHECK(dataset_ != nullptr);
  PR_CHECK_GE(batch_size, 1u);
  PR_CHECK_GT(shard_.size(), 0u);
  Reshuffle();
}

void BatchSampler::Reshuffle() {
  rng_.Shuffle(&shard_.indices);
  cursor_ = 0;
}

void BatchSampler::NextBatch(Tensor* x, std::vector<int>* y) {
  PR_CHECK(x != nullptr);
  PR_CHECK(y != nullptr);
  const size_t dim = dataset_->dim();
  *x = Tensor(batch_size_, dim);
  y->resize(batch_size_);
  for (size_t b = 0; b < batch_size_; ++b) {
    if (cursor_ >= shard_.size()) Reshuffle();
    const size_t row = shard_.indices[cursor_++];
    std::memcpy(x->Row(b), dataset_->features.Row(row), dim * sizeof(float));
    (*y)[b] = dataset_->labels[row];
  }
}

void BatchSampler::Skip(uint64_t batches) {
  for (uint64_t i = 0; i < batches * batch_size_; ++i, ++cursor_) {
    if (cursor_ >= shard_.size()) Reshuffle();
  }
}

}  // namespace pr
