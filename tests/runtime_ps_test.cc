#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <tuple>

#include "common/rng.h"
#include "data/synthetic.h"
#include "models/catalog.h"
#include "models/model.h"
#include "runtime/threaded_runtime.h"

namespace pr {
namespace {

RunConfig SmallConfig(StrategyKind kind) {
  RunConfig config;
  config.strategy.kind = kind;
  config.run.num_workers = 4;
  config.run.iterations_per_worker = 30;
  config.run.model.hidden = {16};
  config.run.batch_size = 16;
  config.run.dataset.num_train = 1024;
  config.run.dataset.num_test = 512;
  config.run.dataset.dim = 16;
  config.run.dataset.num_classes = 4;
  config.run.dataset.separation = 3.0;
  config.run.seed = 5;
  return config;
}

/// The staleness histogram (`ps.push_staleness`) of a finished run.
const HistogramSnapshot* Staleness(const ThreadedRunResult& result) {
  return result.metrics.histogram("ps.push_staleness");
}

TEST(RuntimePsTest, BspCompletesAndLearns) {
  RunConfig config = SmallConfig(StrategyKind::kPsBsp);
  ThreadedRunResult result = RunThreaded(config);
  // BSP: one version per round, iterations_per_worker rounds.
  EXPECT_EQ(result.versions, config.run.iterations_per_worker);
  EXPECT_GT(result.final_accuracy, 0.6);
}

TEST(RuntimePsTest, BspHasZeroStaleness) {
  RunConfig config = SmallConfig(StrategyKind::kPsBsp);
  ThreadedRunResult result = RunThreaded(config);
  // Lockstep: every push targets the version it pulled, so every
  // observation lands in the zero bucket.
  const HistogramSnapshot* hist = Staleness(result);
  ASSERT_NE(hist, nullptr);
  ASSERT_FALSE(hist->counts.empty());
  EXPECT_GT(hist->total_count, 0u);
  EXPECT_EQ(hist->counts[0], hist->total_count);
}

TEST(RuntimePsTest, AspCompletesAndLearns) {
  RunConfig config = SmallConfig(StrategyKind::kPsAsp);
  config.run.iterations_per_worker = 60;
  ThreadedRunResult result = RunThreaded(config);
  // ASP: one version per push.
  EXPECT_EQ(result.versions,
            static_cast<uint64_t>(config.run.num_workers) *
                config.run.iterations_per_worker);
  EXPECT_GT(result.final_accuracy, 0.6);
}

TEST(RuntimePsTest, AspObservesStalenessUnderStraggler) {
  RunConfig config = SmallConfig(StrategyKind::kPsAsp);
  config.run.iterations_per_worker = 20;
  config.run.worker_delay_seconds = {0.0, 0.0, 0.0, 0.004};
  ThreadedRunResult result = RunThreaded(config);
  // Some push must have seen staleness >= 1 (fast workers advance the
  // version while the straggler computes).
  const HistogramSnapshot* hist = Staleness(result);
  ASSERT_NE(hist, nullptr);
  ASSERT_FALSE(hist->counts.empty());
  EXPECT_GT(hist->total_count, hist->counts[0]);
}

TEST(RuntimePsTest, StragglerDoesNotBlockAspCompletion) {
  RunConfig config = SmallConfig(StrategyKind::kPsAsp);
  config.run.iterations_per_worker = 15;
  config.run.worker_delay_seconds = {0.0, 0.0, 0.0, 0.01};
  ThreadedRunResult result = RunThreaded(config);
  EXPECT_EQ(result.versions, 4u * 15u);
}

TEST(RuntimePsTest, SingleWorkerDegeneratesToSequentialSgd) {
  RunConfig config = SmallConfig(StrategyKind::kPsBsp);
  config.run.num_workers = 1;
  config.run.iterations_per_worker = 100;
  ThreadedRunResult result = RunThreaded(config);
  EXPECT_EQ(result.versions, 100u);
  EXPECT_GT(result.final_accuracy, 0.6);
}

TEST(RuntimePsTest, PsMetricsAccountForEveryPush) {
  RunConfig config = SmallConfig(StrategyKind::kPsBsp);
  ThreadedRunResult result = RunThreaded(config);
  // ps.versions counts server version bumps; the staleness histogram's
  // total count equals the number of pushes the server accepted.
  EXPECT_EQ(static_cast<uint64_t>(result.metrics.counter("ps.versions")),
            result.versions);
  const HistogramSnapshot* h = Staleness(result);
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->total_count,
            static_cast<uint64_t>(config.run.num_workers) *
                config.run.iterations_per_worker);
}

/// Test-set loss of the initial model a run of `run` starts from: the same
/// seed, dataset and model the runtime builds before training.
double InitialLoss(const RunOptions& run) {
  Rng rng(run.seed);
  SyntheticSpec spec = run.dataset;
  spec.seed = run.seed;
  const TrainTestSplit split = GenerateSynthetic(spec);
  const std::unique_ptr<Model> model =
      MakeProxyModel(run.model, spec.dim, spec.num_classes);
  std::vector<float> init;
  model->InitParams(&init, &rng);
  return EvaluateLoss(*model, init.data(), split.test);
}

// The point-to-point strategies (ER, AD-PSGD and the PS family) ship whole
// models and gradients through the codec. Each compressed run must finish
// its budget with a finite loss, learn under the loss-gated codecs, and put
// fewer bytes on the wire than fp32.
class CompressedStrategyTest
    : public ::testing::TestWithParam<
          std::tuple<StrategyKind, CompressionKind>> {};

TEST_P(CompressedStrategyTest, FinishesLearnsAndShrinksTheWire) {
  const auto [kind, codec] = GetParam();
  RunConfig config = SmallConfig(kind);
  // A full quorum keeps ER's stale-gradient re-application, its documented
  // failure mode (it can stall learning under scheduling noise even in
  // fp32), out of a test about the codec path.
  config.strategy.er_quorum = config.run.num_workers;
  const ThreadedRunResult fp32 = RunThreaded(config);
  config.strategy.compression = codec;
  const ThreadedRunResult compressed = RunThreaded(config);

  ASSERT_EQ(compressed.worker_iterations.size(), 4u);
  for (size_t done : compressed.worker_iterations) {
    EXPECT_EQ(done, config.run.iterations_per_worker);
  }
  EXPECT_TRUE(std::isfinite(compressed.final_loss));
  // Top-k is reported, not loss-gated (DESIGN.md §5i): on these strategies
  // it also sparsifies whole-model replies, whose error-feedback residual
  // piles up the unsent part of the model, so its loss is not held to the
  // initial one here.
  if (codec != CompressionKind::kTopK) {
    EXPECT_LT(compressed.final_loss, InitialLoss(config.run));
  }
  const double in = compressed.metrics.counter("compress.bytes_in");
  EXPECT_GT(in, 0.0);
  EXPECT_LT(compressed.metrics.counter("compress.bytes_out"), in);
  EXPECT_LT(compressed.metrics.counter("transport.bytes_sent"),
            fp32.metrics.counter("transport.bytes_sent"));
}

INSTANTIATE_TEST_SUITE_P(
    PointToPoint, CompressedStrategyTest,
    ::testing::Combine(
        ::testing::Values(StrategyKind::kEagerReduce, StrategyKind::kAdPsgd,
                          StrategyKind::kPsBsp, StrategyKind::kPsAsp,
                          StrategyKind::kPsHete, StrategyKind::kPsBackup),
        ::testing::Values(CompressionKind::kFp16, CompressionKind::kInt8,
                          CompressionKind::kTopK)),
    [](const auto& info) {
      std::string name = StrategyKindName(std::get<0>(info.param)) + "_" +
                         CompressionKindName(std::get<1>(info.param));
      std::replace(name.begin(), name.end(), '-', '_');
      return name;
    });

}  // namespace
}  // namespace pr
