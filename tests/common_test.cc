#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <thread>

#include "common/blocking_queue.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/status.h"

namespace pr {
namespace {

// ---------------------------------------------------------------------------
// Status / Result
// ---------------------------------------------------------------------------

TEST(StatusTest, DefaultIsOk) {
  Status st;
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kOk);
  EXPECT_EQ(st.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status st = Status::InvalidArgument("bad P");
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(st.message(), "bad P");
  EXPECT_EQ(st.ToString(), "InvalidArgument: bad P");
}

TEST(StatusTest, FactoriesProduceMatchingCodes) {
  EXPECT_EQ(Status::NotFound("x").code(), StatusCode::kNotFound);
  EXPECT_EQ(Status::Timeout("x").code(), StatusCode::kTimeout);
  EXPECT_EQ(Status::Cancelled("x").code(), StatusCode::kCancelled);
  EXPECT_EQ(Status::Internal("x").code(), StatusCode::kInternal);
  EXPECT_EQ(Status::FailedPrecondition("x").code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(Status::Unavailable("x").code(), StatusCode::kUnavailable);
  EXPECT_EQ(Status::AlreadyExists("x").code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(Status::OutOfRange("x").code(), StatusCode::kOutOfRange);
  EXPECT_EQ(Status::NotImplemented("x").code(), StatusCode::kNotImplemented);
}

TEST(StatusTest, EqualityComparesCodeAndMessage) {
  EXPECT_EQ(Status::OK(), Status());
  EXPECT_EQ(Status::NotFound("a"), Status::NotFound("a"));
  EXPECT_FALSE(Status::NotFound("a") == Status::NotFound("b"));
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.ValueOrDie(), 42);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> r(Status::NotFound("missing"));
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(r.ValueOr(-1), -1);
}

TEST(ResultTest, ValueOrReturnsValueWhenOk) {
  Result<std::string> r(std::string("hello"));
  EXPECT_EQ(r.ValueOr("fallback"), "hello");
}

Status FailingOp() { return Status::Unavailable("down"); }
Status ChainedOp() {
  PR_RETURN_NOT_OK(FailingOp());
  return Status::OK();
}

TEST(ResultTest, ReturnNotOkPropagates) {
  EXPECT_EQ(ChainedOp().code(), StatusCode::kUnavailable);
}

Result<int> ProduceValue() { return 7; }
Result<int> ProduceError() { return Status::Internal("boom"); }
Status ConsumeAssign(int* out) {
  PR_ASSIGN_OR_RETURN(*out, ProduceValue());
  return Status::OK();
}
Status ConsumeAssignError(int* out) {
  PR_ASSIGN_OR_RETURN(*out, ProduceError());
  return Status::OK();
}

TEST(ResultTest, AssignOrReturnMacro) {
  int v = 0;
  EXPECT_TRUE(ConsumeAssign(&v).ok());
  EXPECT_EQ(v, 7);
  EXPECT_EQ(ConsumeAssignError(&v).code(), StatusCode::kInternal);
}

// ---------------------------------------------------------------------------
// Rng
// ---------------------------------------------------------------------------

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int differing = 0;
  for (int i = 0; i < 32; ++i) {
    if (a.Next() != b.Next()) ++differing;
  }
  EXPECT_GT(differing, 28);
}

TEST(RngTest, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    double u = rng.Uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(RngTest, UniformMeanApproximatesHalf) {
  Rng rng(11);
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.Uniform();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(RngTest, UniformIntInRangeAndCoversAllValues) {
  Rng rng(13);
  std::set<uint64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    uint64_t v = rng.UniformInt(5);
    EXPECT_LT(v, 5u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);
}

TEST(RngTest, UniformIntSignedRangeInclusive) {
  Rng rng(17);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    int64_t v = rng.UniformInt(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= (v == -3);
    saw_hi |= (v == 3);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, NormalMomentsMatchStandard) {
  Rng rng(19);
  const int n = 200000;
  double sum = 0.0, sq = 0.0;
  for (int i = 0; i < n; ++i) {
    double x = rng.Normal();
    sum += x;
    sq += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sq / n, 1.0, 0.02);
}

TEST(RngTest, NormalWithMeanStddev) {
  Rng rng(23);
  const int n = 100000;
  double sum = 0.0;
  for (int i = 0; i < n; ++i) sum += rng.Normal(5.0, 2.0);
  EXPECT_NEAR(sum / n, 5.0, 0.05);
}

TEST(RngTest, LogNormalIsPositiveWithUnitMedian) {
  Rng rng(29);
  const int n = 50001;
  std::vector<double> xs(n);
  for (auto& x : xs) {
    x = rng.LogNormal(0.0, 0.5);
    EXPECT_GT(x, 0.0);
  }
  std::sort(xs.begin(), xs.end());
  EXPECT_NEAR(xs[n / 2], 1.0, 0.05);
}

TEST(RngTest, ExponentialMeanIsInverseRate) {
  Rng rng(31);
  const int n = 100000;
  double sum = 0.0;
  for (int i = 0; i < n; ++i) sum += rng.Exponential(4.0);
  EXPECT_NEAR(sum / n, 0.25, 0.01);
}

TEST(RngTest, BernoulliFrequencyMatchesP) {
  Rng rng(37);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) hits += rng.Bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(RngTest, ShuffleIsPermutation) {
  Rng rng(41);
  std::vector<int> v = {0, 1, 2, 3, 4, 5, 6, 7, 8, 9};
  std::vector<int> orig = v;
  rng.Shuffle(&v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, orig);
}

TEST(RngTest, SampleWithoutReplacementDistinct) {
  Rng rng(43);
  for (int trial = 0; trial < 50; ++trial) {
    auto s = rng.SampleWithoutReplacement(20, 7);
    EXPECT_EQ(s.size(), 7u);
    std::set<size_t> distinct(s.begin(), s.end());
    EXPECT_EQ(distinct.size(), 7u);
    for (size_t x : s) EXPECT_LT(x, 20u);
  }
}

TEST(RngTest, ForkProducesIndependentStream) {
  Rng a(99);
  Rng child = a.Fork();
  // Child should not replay the parent's stream.
  Rng parent_copy(99);
  parent_copy.Next();  // parent consumed one value in Fork
  EXPECT_NE(child.Next(), parent_copy.Next());
}

// ---------------------------------------------------------------------------
// RunningStat / SampleSet
// ---------------------------------------------------------------------------

TEST(RunningStatTest, EmptyIsZero) {
  RunningStat s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
}

TEST(RunningStatTest, MeanVarianceExtrema) {
  RunningStat s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.Add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_EQ(s.min(), 2.0);
  EXPECT_EQ(s.max(), 9.0);
  EXPECT_EQ(s.sum(), 40.0);
}

TEST(RunningStatTest, MergeMatchesSequential) {
  RunningStat all, a, b;
  Rng rng(53);
  for (int i = 0; i < 1000; ++i) {
    double x = rng.Normal(3.0, 2.0);
    all.Add(x);
    (i % 2 == 0 ? a : b).Add(x);
  }
  a.Merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
  EXPECT_EQ(a.min(), all.min());
  EXPECT_EQ(a.max(), all.max());
}

TEST(RunningStatTest, MergeWithEmpty) {
  RunningStat a, b;
  a.Add(1.0);
  a.Add(3.0);
  RunningStat a_before = a;
  a.Merge(b);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_EQ(a.mean(), a_before.mean());
  b.Merge(a);
  EXPECT_EQ(b.count(), 2u);
  EXPECT_EQ(b.mean(), 2.0);
}

TEST(SampleSetTest, PercentilesOnKnownData) {
  SampleSet s;
  for (int i = 1; i <= 100; ++i) s.Add(static_cast<double>(i));
  EXPECT_DOUBLE_EQ(s.Min(), 1.0);
  EXPECT_DOUBLE_EQ(s.Max(), 100.0);
  EXPECT_NEAR(s.Percentile(0.5), 50.5, 1e-9);
  EXPECT_NEAR(s.Mean(), 50.5, 1e-9);
  EXPECT_NEAR(s.Percentile(0.0), 1.0, 1e-9);
  EXPECT_NEAR(s.Percentile(1.0), 100.0, 1e-9);
}

TEST(SampleSetTest, SingleSample) {
  SampleSet s;
  s.Add(3.5);
  EXPECT_DOUBLE_EQ(s.Percentile(0.0), 3.5);
  EXPECT_DOUBLE_EQ(s.Percentile(0.5), 3.5);
  EXPECT_DOUBLE_EQ(s.Percentile(1.0), 3.5);
}

TEST(SampleSetTest, AddAfterPercentileInvalidatesCache) {
  SampleSet s;
  s.Add(1.0);
  EXPECT_DOUBLE_EQ(s.Percentile(1.0), 1.0);
  s.Add(10.0);
  EXPECT_DOUBLE_EQ(s.Percentile(1.0), 10.0);
}

// ---------------------------------------------------------------------------
// BlockingQueue
// ---------------------------------------------------------------------------

TEST(BlockingQueueTest, FifoOrder) {
  BlockingQueue<int> q;
  for (int i = 0; i < 10; ++i) EXPECT_TRUE(q.Push(i));
  for (int i = 0; i < 10; ++i) {
    auto v = q.Pop();
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(*v, i);
  }
}

TEST(BlockingQueueTest, TryPopEmptyReturnsNullopt) {
  BlockingQueue<int> q;
  EXPECT_FALSE(q.TryPop().has_value());
  q.Push(5);
  auto v = q.TryPop();
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(*v, 5);
}

TEST(BlockingQueueTest, CloseWakesBlockedConsumer) {
  BlockingQueue<int> q;
  std::thread consumer([&] {
    auto v = q.Pop();
    EXPECT_FALSE(v.has_value());
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  q.Close();
  consumer.join();
}

TEST(BlockingQueueTest, CloseDrainsRemainingItems) {
  BlockingQueue<int> q;
  q.Push(1);
  q.Push(2);
  q.Close();
  EXPECT_FALSE(q.Push(3));  // rejected after close
  EXPECT_EQ(q.Pop().value(), 1);
  EXPECT_EQ(q.Pop().value(), 2);
  EXPECT_FALSE(q.Pop().has_value());
}

TEST(BlockingQueueTest, ConcurrentProducersConsumersDeliverAll) {
  BlockingQueue<int> q;
  constexpr int kPerProducer = 500;
  constexpr int kProducers = 4;
  std::atomic<int> consumed{0};
  std::atomic<long long> sum{0};

  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (int i = 0; i < kPerProducer; ++i) q.Push(p * kPerProducer + i);
    });
  }
  std::vector<std::thread> consumers;
  for (int c = 0; c < 2; ++c) {
    consumers.emplace_back([&] {
      while (true) {
        auto v = q.Pop();
        if (!v.has_value()) return;
        sum += *v;
        ++consumed;
      }
    });
  }
  for (auto& t : producers) t.join();
  while (consumed.load() < kPerProducer * kProducers) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  q.Close();
  for (auto& t : consumers) t.join();
  EXPECT_EQ(consumed.load(), kPerProducer * kProducers);
  const long long n = kPerProducer * kProducers;
  EXPECT_EQ(sum.load(), n * (n - 1) / 2);
}


// ---------------------------------------------------------------------------
// Spin-then-park waits (BlockingQueue::PopFor with a spin budget)
// ---------------------------------------------------------------------------

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

TEST(SpinWaitTest, ItemPushedMidSpinIsReturnedWithoutParking) {
  BlockingQueue<int> q;
  std::thread producer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    q.Push(7);
  });
  // The spin budget outlasts the producer's nap by far, so the item lands
  // while the consumer spins and it never parks.
  bool parked = false;
  std::optional<int> v = q.PopFor(/*timeout_seconds=*/30.0,
                                  /*spin_seconds=*/20.0, &parked);
  producer.join();
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(*v, 7);
  EXPECT_FALSE(parked);
}

TEST(SpinWaitTest, CloseEndsASpinningWaitWithNullopt) {
  BlockingQueue<int> q;
  std::thread closer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    q.Close();
  });
  const auto start = std::chrono::steady_clock::now();
  bool parked = false;
  EXPECT_FALSE(q.PopFor(30.0, 20.0, &parked).has_value());
  closer.join();
  EXPECT_LT(SecondsSince(start), 10.0);
  EXPECT_FALSE(parked);
  EXPECT_TRUE(q.closed());
}

TEST(SpinWaitTest, TimeoutBelowTheSpinBudgetEndsTheWaitOnTime) {
  BlockingQueue<int> q;
  const auto start = std::chrono::steady_clock::now();
  bool parked = false;
  EXPECT_FALSE(q.PopFor(/*timeout_seconds=*/0.001, /*spin_seconds=*/20.0,
                        &parked)
                   .has_value());
  // Returns by its own deadline, far short of the spin budget, and a wait
  // whose deadline falls inside the spin never parks.
  EXPECT_LT(SecondsSince(start), 5.0);
  EXPECT_FALSE(parked);
  EXPECT_FALSE(q.closed());
}

TEST(SpinWaitTest, WaitOutlastingTheSpinParksAndStillGetsItsItem) {
  BlockingQueue<int> q;
  std::thread producer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    q.Push(3);
  });
  bool parked = false;
  std::optional<int> v =
      q.PopFor(/*timeout_seconds=*/-1.0, /*spin_seconds=*/0.001, &parked);
  producer.join();
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(*v, 3);
  EXPECT_TRUE(parked);
}

}  // namespace
}  // namespace pr
