#include <gtest/gtest.h>

#include <cmath>

#include "data/synthetic.h"
#include "models/convnet.h"
#include "optim/sgd.h"
#include "tensor/ops.h"
#include "train/run.h"

namespace pr {
namespace {

TEST(ConvNetTest, ParamCount) {
  ConvNet net(1, 6, 6, 4, 3);
  // conv W: 4*1*9 = 36, conv b: 4, dense W: 4*36*3 = 432, dense b: 3.
  EXPECT_EQ(net.NumParams(), 36u + 4 + 432 + 3);
  EXPECT_EQ(net.input_dim(), 36u);
  EXPECT_EQ(net.NumClasses(), 3);
}

TEST(ConvNetTest, NameDescribesShape) {
  ConvNet net(1, 8, 8, 16, 10);
  EXPECT_EQ(net.Name(), "convnet-1x8x8-f16-10");
}

TEST(ConvNetTest, ScoresShape) {
  ConvNet net(1, 5, 5, 3, 4);
  Rng rng(1);
  std::vector<float> params;
  net.InitParams(&params, &rng);
  Tensor x(7, 25);
  x.FillNormal(&rng, 1.0f);
  Tensor scores;
  net.Scores(params.data(), x, &scores);
  EXPECT_EQ(scores.rows(), 7u);
  EXPECT_EQ(scores.cols(), 4u);
}

TEST(ConvNetTest, TranslationSensitivityViaWeightSharing) {
  // A convnet responds to a shifted input with (mostly) shifted features —
  // the dense head changes, but the conv layer's response to an impulse at
  // two positions must use the same kernel. We check that the gradient
  // w.r.t. the conv kernel from an impulse at (1,1) equals that from an
  // impulse at (2,2) up to the dense-head difference being symmetric:
  // cheaper and robust: kernel gradient is nonzero (weight sharing sums
  // across positions).
  ConvNet net(1, 5, 5, 2, 2);
  Rng rng(3);
  std::vector<float> params;
  net.InitParams(&params, &rng);
  Tensor x(1, 25);
  x.Fill(0.0f);
  x.Row(0)[6] = 1.0f;  // impulse
  std::vector<float> grad(net.NumParams());
  net.LossAndGradient(params.data(), x, {1}, grad.data());
  float conv_grad_norm = Norm2(grad.data(), 2 * 9);
  EXPECT_GT(conv_grad_norm, 0.0f);
}

TEST(ConvNetTest, GradCheckAnalyticMatchesNumeric) {
  ConvNet net(1, 4, 4, 3, 3);
  Rng rng(11);
  std::vector<float> params;
  net.InitParams(&params, &rng);

  Tensor x(3, 16);
  x.FillNormal(&rng, 1.0f);
  std::vector<int> y = {0, 2, 1};

  std::vector<float> grad(net.NumParams());
  net.LossAndGradient(params.data(), x, y, grad.data());

  const float eps = 1e-3f;
  std::vector<float> dummy(net.NumParams());
  for (size_t i = 0; i < net.NumParams();
       i += std::max<size_t>(1, net.NumParams() / 80)) {
    std::vector<float> plus = params, minus = params;
    plus[i] += eps;
    minus[i] -= eps;
    const float lp = net.LossAndGradient(plus.data(), x, y, dummy.data());
    const float lm = net.LossAndGradient(minus.data(), x, y, dummy.data());
    const float numeric = (lp - lm) / (2 * eps);
    EXPECT_NEAR(grad[i], numeric, 5e-3f + 0.05f * std::fabs(numeric))
        << "param index " << i;
  }
}

TEST(ConvNetTest, TrainsOnSeparableData) {
  SyntheticSpec spec;
  spec.num_train = 1000;
  spec.num_test = 400;
  spec.dim = 36;  // 6x6
  spec.num_classes = 4;
  spec.separation = 4.0;
  spec.noise = 0.5;
  auto split = GenerateSynthetic(spec);

  ConvNet net(1, 6, 6, 8, 4);
  Rng rng(5);
  std::vector<float> params;
  net.InitParams(&params, &rng);
  Sgd sgd(net.NumParams(), SgdOptions{});

  Shard shard;
  for (size_t i = 0; i < split.train.size(); ++i) shard.indices.push_back(i);
  BatchSampler sampler(&split.train, shard, 32, 6);

  std::vector<float> grad(net.NumParams());
  Tensor x;
  std::vector<int> y;
  for (int step = 0; step < 300; ++step) {
    sampler.NextBatch(&x, &y);
    net.LossAndGradient(params.data(), x, y, grad.data());
    sgd.Step(grad.data(), &params);
  }
  EXPECT_GT(EvaluateAccuracy(net, params.data(), split.test), 0.85);
}

TEST(ConvNetProxyTest, SimTrainingRunsWithConvProxy) {
  RunConfig config = PaperSimConfig();
  config.run.num_workers = 4;
  config.run.model.kind = ProxyModelSpec::Kind::kConvNet;
  config.run.model.conv_filters = 4;
  SyntheticSpec spec;
  spec.num_train = 512;
  spec.num_test = 256;
  spec.dim = 36;  // square
  spec.num_classes = 4;
  spec.separation = 4.0;
  config.run.dataset = spec;
  config.sim.accuracy_threshold = 0.8;
  config.sim.max_updates = 3000;
  config.sim.eval_every = 20;
  config.run.seed = 7;
  config.strategy.kind = StrategyKind::kPReduceConst;
  config.strategy.group_size = 2;

  RunResult result = StartRun(config, EngineKind::kSim);
  EXPECT_TRUE(result.converged) << "final acc " << result.final_accuracy;
}

}  // namespace
}  // namespace pr
