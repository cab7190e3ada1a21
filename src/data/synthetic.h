#pragma once

#include <cstdint>
#include <string>

#include "data/dataset.h"

namespace pr {

/// \brief Parameters for the synthetic Gaussian-mixture classification task.
///
/// Substitutes for the paper's image datasets (CIFAR10/CIFAR100/ImageNet):
/// each class c gets `modes_per_class` random unit-norm mode centers scaled
/// by `separation`; examples of class c draw a mode uniformly, then add
/// N(0, noise^2 I). With a single mode the task is (nearly) linearly
/// separable and converges in a couple of epochs; with several modes per
/// class the Bayes classifier is non-linear, so the MLP must slowly carve
/// hidden units per mode — reproducing the slow, monotone accuracy curves
/// (and the staleness sensitivity) of real CNN training. Class counts match
/// the paper's datasets so difficulty ordering carries over.
struct SyntheticSpec {
  size_t num_train = 8192;
  size_t num_test = 2048;
  size_t dim = 64;
  int num_classes = 10;
  /// Gaussian modes per class (1 = classic mixture-of-Gaussians).
  int modes_per_class = 1;
  /// Distance scale between mode centers.
  double separation = 2.2;
  /// Stddev of the isotropic within-class noise.
  double noise = 1.0;
  /// Fraction of training labels flipped uniformly at random; irreducible
  /// error that caps reachable accuracy (lets us emulate "threshold not
  /// reachable by stale-gradient methods" regimes).
  double label_noise = 0.0;
  /// Non-IID sharding: when > 0, workers receive Dirichlet(alpha)
  /// label-skewed shards (ShardDatasetDirichlet) instead of IID draws.
  /// Small alpha (0.1–0.5) gives each worker a strongly skewed class mix —
  /// the regime where model averaging and dynamic weights are stressed.
  /// 0 keeps the historical IID split. Carried on the spec (rather than the
  /// run options) so one `run.dataset.*` config block describes both the
  /// distribution and its partitioning.
  double dirichlet_alpha = 0.0;
  uint64_t seed = 42;
  /// Data shard (the job service's `data_shard`): the class centers always
  /// come from `seed`; shard 0 draws the samples from the centers' stream,
  /// and shard s > 0 from a stream of its own, so shards are disjoint draws
  /// of one task.
  uint64_t shard = 0;
};

/// \brief Canned specs shaped after the paper's datasets.
///
/// `name` is one of "cifar10", "cifar100", "imagenet". The returned spec has
/// matching class counts and difficulty increasing in that order.
SyntheticSpec SpecForDataset(const std::string& name);

/// \brief Generated train/test pair sharing class centers.
struct TrainTestSplit {
  Dataset train;
  Dataset test;
};

/// \brief Generates a train/test split from `spec`, deterministically in
/// `spec.seed`.
TrainTestSplit GenerateSynthetic(const SyntheticSpec& spec);

}  // namespace pr
