#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <thread>

#include "data/synthetic.h"
#include "models/catalog.h"
#include "models/convnet.h"
#include "models/mlp.h"
#include "optim/sgd.h"
#include "tensor/ops.h"

namespace pr {
namespace {

TEST(MlpTest, ParamCountSoftmaxRegression) {
  auto m = Mlp::SoftmaxRegression(10, 4);
  EXPECT_EQ(m->NumParams(), 10u * 4 + 4);
  EXPECT_EQ(m->NumClasses(), 4);
}

TEST(MlpTest, ParamCountWithHiddenLayers) {
  Mlp m(8, {16, 12}, 5);
  EXPECT_EQ(m.NumParams(),
            8u * 16 + 16 + 16u * 12 + 12 + 12u * 5 + 5);
}

TEST(MlpTest, NameDescribesArchitecture) {
  EXPECT_EQ(Mlp(8, {16}, 5).Name(), "mlp-8x16x5");
  EXPECT_EQ(Mlp::SoftmaxRegression(8, 5)->Name(), "softmax-8x5");
}

TEST(MlpTest, InitIsDeterministicAndNonzero) {
  Mlp m(8, {16}, 5);
  Rng r1(3), r2(3);
  std::vector<float> p1, p2;
  m.InitParams(&p1, &r1);
  m.InitParams(&p2, &r2);
  EXPECT_EQ(p1, p2);
  float norm = Norm2(p1.data(), p1.size());
  EXPECT_GT(norm, 0.1f);
}

TEST(MlpTest, ScoresShape) {
  Mlp m(6, {8}, 3);
  Rng rng(1);
  std::vector<float> params;
  m.InitParams(&params, &rng);
  Tensor x(4, 6);
  x.FillNormal(&rng, 1.0f);
  Tensor scores;
  m.Scores(params.data(), x, &scores);
  EXPECT_EQ(scores.rows(), 4u);
  EXPECT_EQ(scores.cols(), 3u);
}

/// Central-difference gradient check: the decisive correctness test for the
/// hand-written backprop.
class MlpGradCheckTest
    : public ::testing::TestWithParam<std::vector<size_t>> {};

TEST_P(MlpGradCheckTest, AnalyticMatchesNumeric) {
  const std::vector<size_t> hidden = GetParam();
  Mlp m(5, hidden, 3);
  Rng rng(11);
  std::vector<float> params;
  m.InitParams(&params, &rng);

  Tensor x(4, 5);
  x.FillNormal(&rng, 1.0f);
  std::vector<int> y = {0, 2, 1, 2};

  std::vector<float> grad(m.NumParams());
  m.LossAndGradient(params.data(), x, y, grad.data());

  // Check a spread of parameter indices (all of them for small models).
  const float eps = 1e-3f;
  std::vector<float> dummy(m.NumParams());
  for (size_t i = 0; i < m.NumParams(); i += std::max<size_t>(1, m.NumParams() / 60)) {
    std::vector<float> plus = params, minus = params;
    plus[i] += eps;
    minus[i] -= eps;
    const float lp = m.LossAndGradient(plus.data(), x, y, dummy.data());
    const float lm = m.LossAndGradient(minus.data(), x, y, dummy.data());
    const float numeric = (lp - lm) / (2 * eps);
    EXPECT_NEAR(grad[i], numeric, 5e-3f + 0.05f * std::fabs(numeric))
        << "param index " << i << " hidden layers " << hidden.size();
  }
}

INSTANTIATE_TEST_SUITE_P(
    Architectures, MlpGradCheckTest,
    ::testing::Values(std::vector<size_t>{}, std::vector<size_t>{7},
                      std::vector<size_t>{8, 6}));

TEST(MlpTest, LossDecreasesUnderGradientDescent) {
  Mlp m(8, {16}, 3);
  Rng rng(13);
  std::vector<float> params;
  m.InitParams(&params, &rng);
  Tensor x(32, 8);
  x.FillNormal(&rng, 1.0f);
  std::vector<int> y(32);
  for (auto& label : y) label = static_cast<int>(rng.UniformInt(3));

  std::vector<float> grad(m.NumParams());
  float first = m.LossAndGradient(params.data(), x, y, grad.data());
  for (int step = 0; step < 50; ++step) {
    m.LossAndGradient(params.data(), x, y, grad.data());
    Axpy(-0.5f, grad.data(), params.data(), params.size());
  }
  float last = m.LossAndGradient(params.data(), x, y, grad.data());
  EXPECT_LT(last, first * 0.5f);
}

TEST(MlpTest, TrainsToHighAccuracyOnSeparableData) {
  SyntheticSpec spec;
  spec.num_train = 1000;
  spec.num_test = 400;
  spec.dim = 16;
  spec.num_classes = 4;
  spec.separation = 4.0;
  spec.noise = 0.5;
  auto split = GenerateSynthetic(spec);

  Mlp m(16, {32}, 4);
  Rng rng(5);
  std::vector<float> params;
  m.InitParams(&params, &rng);
  Sgd sgd(m.NumParams(), SgdOptions{});

  Shard shard;
  for (size_t i = 0; i < split.train.size(); ++i) shard.indices.push_back(i);
  BatchSampler sampler(&split.train, shard, 32, 6);

  std::vector<float> grad(m.NumParams());
  Tensor x;
  std::vector<int> y;
  for (int step = 0; step < 400; ++step) {
    sampler.NextBatch(&x, &y);
    m.LossAndGradient(params.data(), x, y, grad.data());
    sgd.Step(grad.data(), &params);
  }
  EXPECT_GT(EvaluateAccuracy(m, params.data(), split.test), 0.9);
}

TEST(EvaluateTest, PerfectPredictorScoresOne) {
  // A softmax regression whose weights directly copy a one-hot feature.
  Mlp m(3, {}, 3);
  std::vector<float> params(m.NumParams(), 0.0f);
  // W = 10 * I (3x3 row-major), b = 0.
  params[0] = params[4] = params[8] = 10.0f;

  Dataset ds;
  ds.num_classes = 3;
  ds.features = Tensor::FromMatrix(3, 3, {1, 0, 0, 0, 1, 0, 0, 0, 1});
  ds.labels = {0, 1, 2};
  EXPECT_DOUBLE_EQ(EvaluateAccuracy(m, params.data(), ds), 1.0);
  EXPECT_LT(EvaluateLoss(m, params.data(), ds), 0.01);
}

TEST(EvaluateTest, RandomModelNearChance) {
  SyntheticSpec spec;
  spec.num_train = 10;
  spec.num_test = 2000;
  spec.dim = 8;
  spec.num_classes = 10;
  auto split = GenerateSynthetic(spec);
  Mlp m(8, {8}, 10);
  Rng rng(21);
  std::vector<float> params;
  m.InitParams(&params, &rng);
  double acc = EvaluateAccuracy(m, params.data(), split.test);
  EXPECT_LT(acc, 0.35);  // untrained should be near 0.1
}

// ---------------------------------------------------------------------------
// catalog
// ---------------------------------------------------------------------------

TEST(CatalogTest, AllFiveModelsPresent) {
  EXPECT_EQ(AllPaperModels().size(), 5u);
  for (const char* name :
       {"resnet18", "resnet34", "vgg16", "vgg19", "densenet121"}) {
    EXPECT_EQ(LookupPaperModel(name).name, name);
  }
}

TEST(CatalogTest, PublishedParameterCounts) {
  EXPECT_NEAR(static_cast<double>(LookupPaperModel("resnet34").num_params),
              21.8e6, 1e5);
  EXPECT_NEAR(static_cast<double>(LookupPaperModel("vgg19").num_params),
              143.7e6, 1e5);
  EXPECT_NEAR(static_cast<double>(LookupPaperModel("densenet121").num_params),
              8.0e6, 1e5);
}

TEST(CatalogTest, VggIsCommunicationHeavyResNetComputeHeavy) {
  // Bytes-per-compute-second ordering drives Fig. 11's scalability story.
  const auto& vgg = LookupPaperModel("vgg16");
  const auto& resnet = LookupPaperModel("resnet18");
  const double vgg_ratio =
      static_cast<double>(vgg.param_bytes()) / vgg.compute_seconds;
  const double resnet_ratio =
      static_cast<double>(resnet.param_bytes()) / resnet.compute_seconds;
  EXPECT_GT(vgg_ratio, 5.0 * resnet_ratio);
}

TEST(CatalogTest, DenseNetHasMostTensors) {
  for (const auto& info : AllPaperModels()) {
    if (info.name != "densenet121") {
      EXPECT_GT(LookupPaperModel("densenet121").num_tensors,
                info.num_tensors);
    }
  }
}

/// Model promises thread-safe concurrent calls on distinct buffers, and the
/// matrix kernel packs into a per-thread buffer: threads interleaving two
/// architectures and several batch sizes must each get a serial call's bytes.
TEST(ModelConcurrencyTest, ConcurrentGradientsMatchSerialBytes) {
  constexpr size_t kThreads = 4;
  constexpr int kRounds = 3;
  const Mlp mlp(64, {256, 256}, 10);
  const ConvNet convnet(1, 8, 8, 8, 10);
  const Model* models[] = {&mlp, &convnet};

  struct Job {
    const Model* model;
    std::vector<float> params;
    Tensor x;
    std::vector<int> y;
    std::vector<float> serial;
  };
  std::vector<Job> jobs;
  for (size_t t = 0; t < kThreads; ++t) {
    for (const Model* model : models) {
      Rng rng(40 + t);
      Job job{model, {}, Tensor(16 * t + 5, 64), {}, {}};
      model->InitParams(&job.params, &rng);
      job.x.FillNormal(&rng, 1.0f);
      for (size_t r = 0; r < job.x.rows(); ++r) {
        job.y.push_back(static_cast<int>(rng.UniformInt(uint64_t{10})));
      }
      job.serial.resize(model->NumParams());
      model->LossAndGradient(job.params.data(), job.x, job.y,
                             job.serial.data());
      jobs.push_back(std::move(job));
    }
  }

  // 0 = bytes match; otherwise the 1-based round that first differed.
  std::vector<int> mismatch(jobs.size(), 0);
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 1; round <= kRounds; ++round) {
        for (size_t j = 2 * t; j < 2 * t + 2; ++j) {
          const Job& job = jobs[j];
          // Stale contents must not leak into the result.
          std::vector<float> grad(job.params.size(),
                                  std::numeric_limits<float>::quiet_NaN());
          job.model->LossAndGradient(job.params.data(), job.x, job.y,
                                     grad.data());
          if (mismatch[j] == 0 &&
              std::memcmp(grad.data(), job.serial.data(),
                          grad.size() * sizeof(float)) != 0) {
            mismatch[j] = round;
          }
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (size_t j = 0; j < jobs.size(); ++j) {
    EXPECT_EQ(mismatch[j], 0) << jobs[j].model->Name() << ", batch "
                              << jobs[j].x.rows();
  }
}

}  // namespace
}  // namespace pr
