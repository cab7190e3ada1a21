#include <gtest/gtest.h>

#include <cstring>
#include <set>

#include "data/synthetic.h"

namespace pr {
namespace {

TEST(ShardTest, PartitionIsDisjointAndComplete) {
  Rng rng(1);
  auto shards = ShardDataset(103, 8, &rng);
  ASSERT_EQ(shards.size(), 8u);
  std::set<size_t> all;
  for (const auto& shard : shards) {
    for (size_t idx : shard.indices) {
      EXPECT_TRUE(all.insert(idx).second) << "duplicate index " << idx;
      EXPECT_LT(idx, 103u);
    }
  }
  EXPECT_EQ(all.size(), 103u);
}

TEST(ShardTest, NearEqualSizes) {
  Rng rng(2);
  auto shards = ShardDataset(103, 8, &rng);
  for (const auto& shard : shards) {
    EXPECT_GE(shard.size(), 12u);
    EXPECT_LE(shard.size(), 13u);
  }
}

TEST(ShardTest, SingleShardGetsEverything) {
  Rng rng(3);
  auto shards = ShardDataset(10, 1, &rng);
  ASSERT_EQ(shards.size(), 1u);
  EXPECT_EQ(shards[0].size(), 10u);
}

TEST(ShardTest, DeterministicInSeed) {
  Rng a(42), b(42);
  auto s1 = ShardDataset(50, 4, &a);
  auto s2 = ShardDataset(50, 4, &b);
  for (size_t i = 0; i < 4; ++i) EXPECT_EQ(s1[i].indices, s2[i].indices);
}

TEST(DirichletShardTest, PartitionIsDisjointAndComplete) {
  Rng rng(7);
  std::vector<int> labels(977);
  for (size_t i = 0; i < labels.size(); ++i) {
    labels[i] = static_cast<int>(i % 10);
  }
  auto shards = ShardDatasetDirichlet(labels, 10, 8, 0.5, &rng);
  ASSERT_EQ(shards.size(), 8u);
  std::set<size_t> all;
  for (const auto& shard : shards) {
    EXPECT_FALSE(shard.indices.empty());
    for (size_t idx : shard.indices) {
      EXPECT_TRUE(all.insert(idx).second) << "duplicate " << idx;
      EXPECT_LT(idx, labels.size());
    }
  }
  EXPECT_EQ(all.size(), labels.size());
}

TEST(DirichletShardTest, SmallAlphaSkewsClassMix) {
  Rng rng(11);
  std::vector<int> labels(4000);
  for (size_t i = 0; i < labels.size(); ++i) {
    labels[i] = static_cast<int>(i % 4);
  }
  auto shards = ShardDatasetDirichlet(labels, 4, 4, 0.2, &rng);
  // At alpha 0.2 at least one shard should be strongly dominated by one
  // class (> 50% when uniform would be 25%).
  bool any_skewed = false;
  for (const auto& shard : shards) {
    std::vector<size_t> counts(4, 0);
    for (size_t idx : shard.indices) {
      ++counts[static_cast<size_t>(labels[idx])];
    }
    for (size_t c : counts) {
      if (shard.size() > 0 &&
          static_cast<double>(c) / static_cast<double>(shard.size()) > 0.5) {
        any_skewed = true;
      }
    }
  }
  EXPECT_TRUE(any_skewed);
}

TEST(DirichletShardTest, LargeAlphaApproachesUniformMix) {
  Rng rng(13);
  std::vector<int> labels(8000);
  for (size_t i = 0; i < labels.size(); ++i) {
    labels[i] = static_cast<int>(i % 4);
  }
  auto shards = ShardDatasetDirichlet(labels, 4, 4, 100.0, &rng);
  for (const auto& shard : shards) {
    std::vector<size_t> counts(4, 0);
    for (size_t idx : shard.indices) {
      ++counts[static_cast<size_t>(labels[idx])];
    }
    for (size_t c : counts) {
      const double frac =
          static_cast<double>(c) / static_cast<double>(shard.size());
      EXPECT_NEAR(frac, 0.25, 0.08);
    }
  }
}

TEST(DirichletShardTest, DeterministicInSeed) {
  std::vector<int> labels(500);
  for (size_t i = 0; i < labels.size(); ++i) {
    labels[i] = static_cast<int>(i % 5);
  }
  Rng a(21), b(21);
  auto s1 = ShardDatasetDirichlet(labels, 5, 3, 0.5, &a);
  auto s2 = ShardDatasetDirichlet(labels, 5, 3, 0.5, &b);
  for (size_t i = 0; i < 3; ++i) EXPECT_EQ(s1[i].indices, s2[i].indices);
}

TEST(DirichletShardTest, NoEmptyShardEvenWithManyShards) {
  Rng rng(31);
  std::vector<int> labels(64, 0);  // single class, extreme case
  auto shards = ShardDatasetDirichlet(labels, 1, 16, 0.1, &rng);
  for (const auto& shard : shards) EXPECT_FALSE(shard.indices.empty());
}

TEST(SyntheticTest, ShapesMatchSpec) {
  SyntheticSpec spec;
  spec.num_train = 500;
  spec.num_test = 100;
  spec.dim = 16;
  spec.num_classes = 4;
  auto split = GenerateSynthetic(spec);
  EXPECT_EQ(split.train.size(), 500u);
  EXPECT_EQ(split.test.size(), 100u);
  EXPECT_EQ(split.train.dim(), 16u);
  EXPECT_EQ(split.train.num_classes, 4);
  for (int label : split.train.labels) {
    EXPECT_GE(label, 0);
    EXPECT_LT(label, 4);
  }
}

TEST(SyntheticTest, DeterministicInSeed) {
  SyntheticSpec spec;
  spec.num_train = 100;
  spec.num_test = 10;
  spec.seed = 9;
  auto a = GenerateSynthetic(spec);
  auto b = GenerateSynthetic(spec);
  for (size_t i = 0; i < a.train.features.size(); ++i) {
    EXPECT_EQ(a.train.features.data()[i], b.train.features.data()[i]);
  }
  EXPECT_EQ(a.train.labels, b.train.labels);
}

TEST(SyntheticTest, ShardsShareCentersAndDrawDifferentSamples) {
  // Without noise every feature row is its class center, so equal rows per
  // label mean equal centers.
  SyntheticSpec spec;
  spec.num_classes = 4;
  spec.dim = 6;
  spec.num_train = 200;
  spec.num_test = 20;
  spec.noise = 0.0;
  spec.seed = 5;
  const TrainTestSplit base = GenerateSynthetic(spec);
  spec.shard = 1;
  const TrainTestSplit other = GenerateSynthetic(spec);

  std::vector<const float*> center(4, nullptr);
  for (size_t i = 0; i < base.train.labels.size(); ++i) {
    center[static_cast<size_t>(base.train.labels[i])] =
        base.train.features.Row(i);
  }
  for (const TrainTestSplit* split : {&base, &other}) {
    for (size_t i = 0; i < split->train.labels.size(); ++i) {
      const float* want =
          center[static_cast<size_t>(split->train.labels[i])];
      ASSERT_NE(want, nullptr);
      EXPECT_EQ(std::memcmp(want, split->train.features.Row(i),
                            spec.dim * sizeof(float)),
                0)
          << "row " << i << " is not its class center";
    }
  }
  EXPECT_NE(base.train.labels, other.train.labels)
      << "shard 1 drew the same samples as shard 0";
}

TEST(SyntheticTest, DifferentSeedsDiffer) {
  SyntheticSpec spec;
  spec.num_train = 100;
  spec.num_test = 10;
  spec.seed = 1;
  auto a = GenerateSynthetic(spec);
  spec.seed = 2;
  auto b = GenerateSynthetic(spec);
  bool any_diff = false;
  for (size_t i = 0; i < a.train.features.size(); ++i) {
    if (a.train.features.data()[i] != b.train.features.data()[i]) {
      any_diff = true;
      break;
    }
  }
  EXPECT_TRUE(any_diff);
}

TEST(SyntheticTest, AllClassesRepresented) {
  SyntheticSpec spec;
  spec.num_train = 2000;
  spec.num_test = 10;
  spec.num_classes = 10;
  auto split = GenerateSynthetic(spec);
  std::set<int> seen(split.train.labels.begin(), split.train.labels.end());
  EXPECT_EQ(seen.size(), 10u);
}

TEST(SyntheticTest, LabelNoiseOnlyAffectsTrain) {
  SyntheticSpec spec;
  spec.num_train = 4000;
  spec.num_test = 1000;
  spec.num_classes = 2;
  spec.separation = 8.0;   // nearly separable
  spec.noise = 0.3;
  spec.label_noise = 0.5;  // half the train labels scrambled

  auto noisy = GenerateSynthetic(spec);
  spec.label_noise = 0.0;
  auto clean = GenerateSynthetic(spec);

  // With identical seeds the feature tensors agree; only labels differ.
  int train_diffs = 0;
  for (size_t i = 0; i < noisy.train.labels.size(); ++i) {
    if (noisy.train.labels[i] != clean.train.labels[i]) ++train_diffs;
  }
  EXPECT_GT(train_diffs, 500);
}

TEST(SyntheticTest, CannedSpecsMatchPaperClassCounts) {
  EXPECT_EQ(SpecForDataset("cifar10").num_classes, 10);
  EXPECT_EQ(SpecForDataset("cifar100").num_classes, 100);
  EXPECT_EQ(SpecForDataset("imagenet").num_classes, 1000);
}

TEST(BatchSamplerTest, BatchShapesAndLabelRange) {
  SyntheticSpec spec;
  spec.num_train = 200;
  spec.num_test = 10;
  spec.dim = 8;
  spec.num_classes = 3;
  auto split = GenerateSynthetic(spec);
  Rng rng(4);
  auto shards = ShardDataset(split.train.size(), 2, &rng);
  BatchSampler sampler(&split.train, shards[0], 16, 99);

  Tensor x;
  std::vector<int> y;
  for (int i = 0; i < 20; ++i) {
    sampler.NextBatch(&x, &y);
    EXPECT_EQ(x.rows(), 16u);
    EXPECT_EQ(x.cols(), 8u);
    EXPECT_EQ(y.size(), 16u);
    for (int label : y) {
      EXPECT_GE(label, 0);
      EXPECT_LT(label, 3);
    }
  }
}

TEST(BatchSamplerTest, EpochCoversWholeShardBeforeRepeating) {
  SyntheticSpec spec;
  spec.num_train = 64;
  spec.num_test = 10;
  spec.dim = 4;
  spec.num_classes = 2;
  auto split = GenerateSynthetic(spec);
  Shard shard;
  for (size_t i = 0; i < 64; ++i) shard.indices.push_back(i);
  BatchSampler sampler(&split.train, shard, 16, 5);

  // Track rows seen across exactly one epoch (4 batches of 16).
  std::multiset<float> seen;
  Tensor x;
  std::vector<int> y;
  for (int b = 0; b < 4; ++b) {
    sampler.NextBatch(&x, &y);
    for (size_t r = 0; r < 16; ++r) seen.insert(x.Row(r)[0]);
  }
  std::multiset<float> expected;
  for (size_t i = 0; i < 64; ++i) {
    expected.insert(split.train.features.Row(i)[0]);
  }
  EXPECT_EQ(seen, expected);
}

TEST(BatchSamplerTest, BatchLargerThanShardClamps) {
  SyntheticSpec spec;
  spec.num_train = 10;
  spec.num_test = 5;
  spec.dim = 4;
  spec.num_classes = 2;
  auto split = GenerateSynthetic(spec);
  Shard shard;
  for (size_t i = 0; i < 10; ++i) shard.indices.push_back(i);
  BatchSampler sampler(&split.train, shard, 64, 5);
  EXPECT_EQ(sampler.batch_size(), 10u);
  Tensor x;
  std::vector<int> y;
  sampler.NextBatch(&x, &y);
  EXPECT_EQ(x.rows(), 10u);
}

TEST(BatchSamplerTest, DeterministicInSeed) {
  SyntheticSpec spec;
  spec.num_train = 100;
  spec.num_test = 5;
  spec.dim = 4;
  spec.num_classes = 2;
  auto split = GenerateSynthetic(spec);
  Shard shard;
  for (size_t i = 0; i < 100; ++i) shard.indices.push_back(i);
  BatchSampler s1(&split.train, shard, 8, 77);
  BatchSampler s2(&split.train, shard, 8, 77);
  Tensor x1, x2;
  std::vector<int> y1, y2;
  for (int i = 0; i < 30; ++i) {
    s1.NextBatch(&x1, &y1);
    s2.NextBatch(&x2, &y2);
    EXPECT_EQ(y1, y2);
  }
}

}  // namespace
}  // namespace pr
