#include <gtest/gtest.h>

#include <cmath>
#include <atomic>
#include <thread>

#include "comm/collectives.h"
#include "common/rng.h"
#include "compress/compressor.h"
#include "fault/faulty_transport.h"

namespace pr {
namespace {

/// Runs `fn(member_index, endpoint)` on one thread per member and joins.
void RunMembers(Transport* transport, const std::vector<NodeId>& members,
                const std::function<void(size_t, Endpoint*)>& fn) {
  std::vector<std::thread> threads;
  for (size_t i = 0; i < members.size(); ++i) {
    threads.emplace_back([&, i] {
      Endpoint ep(transport, members[i]);
      fn(i, &ep);
    });
  }
  for (auto& t : threads) t.join();
}

std::vector<std::vector<float>> MakeInputs(size_t p, size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<float>> inputs(p, std::vector<float>(n));
  for (auto& v : inputs) {
    for (auto& x : v) x = static_cast<float>(rng.Normal(0.0, 1.0));
  }
  return inputs;
}

std::vector<float> ExpectedWeightedSum(
    const std::vector<std::vector<float>>& inputs,
    const std::vector<double>& weights) {
  std::vector<float> out(inputs[0].size(), 0.0f);
  for (size_t j = 0; j < inputs.size(); ++j) {
    for (size_t i = 0; i < out.size(); ++i) {
      out[i] += static_cast<float>(weights[j]) * inputs[j][i];
    }
  }
  return out;
}

class CollectiveParamTest
    : public ::testing::TestWithParam<std::tuple<size_t, size_t>> {};

TEST_P(CollectiveParamTest, RingMatchesExpectedWeightedSum) {
  auto [p, n] = GetParam();
  std::vector<NodeId> members;
  for (size_t i = 0; i < p; ++i) members.push_back(static_cast<NodeId>(i));
  std::vector<double> weights(p);
  double total = 0.0;
  Rng wrng(p * 100 + n);
  for (auto& w : weights) {
    w = wrng.Uniform(0.1, 1.0);
    total += w;
  }
  for (auto& w : weights) w /= total;

  auto inputs = MakeInputs(p, n, 42);
  auto expected = ExpectedWeightedSum(inputs, weights);

  InProcTransport transport(static_cast<int>(p));
  auto data = inputs;
  RunMembers(&transport, members, [&](size_t i, Endpoint* ep) {
    ASSERT_TRUE(
        RingWeightedAllReduce(ep, members, weights, i, /*tag=*/1, &data[i])
            .ok());
  });
  for (size_t i = 0; i < p; ++i) {
    ASSERT_EQ(data[i].size(), n);
    for (size_t j = 0; j < n; ++j) {
      EXPECT_NEAR(data[i][j], expected[j], 1e-4)
          << "member " << i << " elem " << j;
    }
  }
}

TEST_P(CollectiveParamTest, LeaderMatchesRing) {
  auto [p, n] = GetParam();
  std::vector<NodeId> members;
  for (size_t i = 0; i < p; ++i) members.push_back(static_cast<NodeId>(i));
  std::vector<double> weights(p, 1.0 / static_cast<double>(p));

  auto inputs = MakeInputs(p, n, 77);

  InProcTransport t1(static_cast<int>(p));
  auto ring = inputs;
  RunMembers(&t1, members, [&](size_t i, Endpoint* ep) {
    ASSERT_TRUE(
        RingWeightedAllReduce(ep, members, weights, i, 1, &ring[i]).ok());
  });

  InProcTransport t2(static_cast<int>(p));
  auto leader = inputs;
  RunMembers(&t2, members, [&](size_t i, Endpoint* ep) {
    ASSERT_TRUE(
        LeaderWeightedAllReduce(ep, members, weights, i, 1, &leader[i]).ok());
  });

  for (size_t i = 0; i < p; ++i) {
    for (size_t j = 0; j < n; ++j) {
      EXPECT_NEAR(ring[i][j], leader[i][j], 1e-4);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    GroupSizesAndLengths, CollectiveParamTest,
    ::testing::Values(std::make_tuple(2, 1), std::make_tuple(2, 64),
                      std::make_tuple(3, 7), std::make_tuple(3, 100),
                      std::make_tuple(4, 5), std::make_tuple(5, 33),
                      std::make_tuple(8, 256)));

TEST(CollectivesTest, SingleMemberScalesByOwnWeight) {
  InProcTransport transport(1);
  Endpoint ep(&transport, 0);
  std::vector<float> data = {2.0f, 4.0f};
  ASSERT_TRUE(
      RingWeightedAllReduce(&ep, {0}, {1.0}, 0, 1, &data).ok());
  EXPECT_FLOAT_EQ(data[0], 2.0f);
  EXPECT_FLOAT_EQ(data[1], 4.0f);
}

TEST(CollectivesTest, RingAverageEqualsMean) {
  const size_t p = 4, n = 12;
  std::vector<NodeId> members = {0, 1, 2, 3};
  auto inputs = MakeInputs(p, n, 5);
  std::vector<float> mean(n, 0.0f);
  for (const auto& in : inputs) {
    for (size_t j = 0; j < n; ++j) mean[j] += in[j] / p;
  }
  InProcTransport transport(4);
  auto data = inputs;
  RunMembers(&transport, members, [&](size_t i, Endpoint* ep) {
    ASSERT_TRUE(RingAverageAllReduce(ep, members, i, 3, &data[i]).ok());
  });
  for (size_t i = 0; i < p; ++i) {
    for (size_t j = 0; j < n; ++j) EXPECT_NEAR(data[i][j], mean[j], 1e-5);
  }
}

TEST(CollectivesTest, NonContiguousMemberIds) {
  // Members 1, 3, 6 of an 8-node world; others silent.
  std::vector<NodeId> members = {1, 3, 6};
  std::vector<double> weights = {0.5, 0.25, 0.25};
  auto inputs = MakeInputs(3, 10, 9);
  auto expected = ExpectedWeightedSum(inputs, weights);

  InProcTransport transport(8);
  auto data = inputs;
  RunMembers(&transport, members, [&](size_t i, Endpoint* ep) {
    ASSERT_TRUE(
        RingWeightedAllReduce(ep, members, weights, i, 11, &data[i]).ok());
  });
  for (size_t i = 0; i < 3; ++i) {
    for (size_t j = 0; j < 10; ++j) EXPECT_NEAR(data[i][j], expected[j], 1e-5);
  }
}

TEST(CollectivesTest, ConcurrentGroupsWithDistinctTags) {
  // Two disjoint groups reduce simultaneously over one transport.
  std::vector<NodeId> g1 = {0, 1}, g2 = {2, 3};
  auto in1 = MakeInputs(2, 20, 1);
  auto in2 = MakeInputs(2, 20, 2);
  auto e1 = ExpectedWeightedSum(in1, {0.5, 0.5});
  auto e2 = ExpectedWeightedSum(in2, {0.5, 0.5});

  InProcTransport transport(4);
  auto d1 = in1;
  auto d2 = in2;
  std::vector<std::thread> threads;
  for (size_t i = 0; i < 2; ++i) {
    threads.emplace_back([&, i] {
      Endpoint ep(&transport, g1[i]);
      ASSERT_TRUE(RingAverageAllReduce(&ep, g1, i, /*tag=*/100, &d1[i]).ok());
    });
    threads.emplace_back([&, i] {
      Endpoint ep(&transport, g2[i]);
      ASSERT_TRUE(RingAverageAllReduce(&ep, g2, i, /*tag=*/200, &d2[i]).ok());
    });
  }
  for (auto& t : threads) t.join();
  for (size_t i = 0; i < 2; ++i) {
    for (size_t j = 0; j < 20; ++j) {
      EXPECT_NEAR(d1[i][j], e1[j], 1e-5);
      EXPECT_NEAR(d2[i][j], e2[j], 1e-5);
    }
  }
}

TEST(CollectivesTest, BroadcastDeliversRootPayload) {
  std::vector<NodeId> members = {0, 1, 2};
  InProcTransport transport(3);
  std::vector<std::vector<float>> data(3, std::vector<float>{0, 0});
  data[1] = {3.5f, -1.0f};  // root is member index 1
  RunMembers(&transport, members, [&](size_t i, Endpoint* ep) {
    ASSERT_TRUE(Broadcast(ep, members, i, /*root_index=*/1, 5, &data[i]).ok());
  });
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(data[i], (std::vector<float>{3.5f, -1.0f}));
  }
}

TEST(CollectivesTest, InvalidArgumentsRejected) {
  InProcTransport transport(2);
  Endpoint ep(&transport, 0);
  std::vector<float> data = {1.0f};
  // Mismatched weights.
  EXPECT_EQ(RingWeightedAllReduce(&ep, {0, 1}, {1.0}, 0, 1, &data).code(),
            StatusCode::kInvalidArgument);
  // my_index out of range.
  EXPECT_EQ(
      RingWeightedAllReduce(&ep, {0, 1}, {0.5, 0.5}, 2, 1, &data).code(),
      StatusCode::kInvalidArgument);
  // Empty members.
  EXPECT_EQ(RingWeightedAllReduce(&ep, {}, {}, 0, 1, &data).code(),
            StatusCode::kInvalidArgument);
}

TEST(CollectivesTest, ReduceScatterOwnedChunkHoldsSum) {
  const size_t p = 4, n = 21;
  std::vector<NodeId> members = {0, 1, 2, 3};
  auto inputs = MakeInputs(p, n, 31);
  std::vector<float> sum(n, 0.0f);
  for (const auto& in : inputs) {
    for (size_t j = 0; j < n; ++j) sum[j] += in[j];
  }
  InProcTransport transport(4);
  auto data = inputs;
  std::vector<std::pair<size_t, size_t>> chunks(p);
  RunMembers(&transport, members, [&](size_t i, Endpoint* ep) {
    ASSERT_TRUE(RingReduceScatter(ep, members, i, 5, &data[i],
                                  &chunks[i].first, &chunks[i].second)
                    .ok());
  });
  // Owned chunks are disjoint, cover [0, n), and hold the full sum.
  std::vector<bool> covered(n, false);
  for (size_t i = 0; i < p; ++i) {
    auto [b, e] = chunks[i];
    for (size_t j = b; j < e; ++j) {
      EXPECT_FALSE(covered[j]);
      covered[j] = true;
      EXPECT_NEAR(data[i][j], sum[j], 1e-4);
    }
  }
  for (size_t j = 0; j < n; ++j) EXPECT_TRUE(covered[j]);
}

TEST(CollectivesTest, ReduceScatterPlusAllGatherEqualsAllReduce) {
  const size_t p = 3, n = 17;
  std::vector<NodeId> members = {0, 1, 2};
  auto inputs = MakeInputs(p, n, 33);
  std::vector<float> sum(n, 0.0f);
  for (const auto& in : inputs) {
    for (size_t j = 0; j < n; ++j) sum[j] += in[j];
  }
  InProcTransport transport(3);
  auto data = inputs;
  RunMembers(&transport, members, [&](size_t i, Endpoint* ep) {
    ASSERT_TRUE(
        RingReduceScatter(ep, members, i, 7, &data[i], nullptr, nullptr)
            .ok());
    ASSERT_TRUE(RingAllGather(ep, members, i, 7, &data[i]).ok());
  });
  for (size_t i = 0; i < p; ++i) {
    for (size_t j = 0; j < n; ++j) EXPECT_NEAR(data[i][j], sum[j], 1e-4);
  }
}

TEST(CollectivesTest, GatherCollectsInMemberOrder) {
  std::vector<NodeId> members = {0, 1, 2};
  InProcTransport transport(3);
  std::vector<std::vector<Buffer>> gathered(3);
  RunMembers(&transport, members, [&](size_t i, Endpoint* ep) {
    std::vector<float> mine = {static_cast<float>(i + 1)};
    ASSERT_TRUE(
        Gather(ep, members, i, /*root_index=*/1, 9, mine, &gathered[i]).ok());
  });
  // Only the root received anything; contributions arrive as shared
  // Buffer handles, in member order.
  EXPECT_TRUE(gathered[0].empty());
  EXPECT_TRUE(gathered[2].empty());
  ASSERT_EQ(gathered[1].size(), 3u);
  EXPECT_EQ(gathered[1][0].ToVector(), (std::vector<float>{1.0f}));
  EXPECT_EQ(gathered[1][1].ToVector(), (std::vector<float>{2.0f}));
  EXPECT_EQ(gathered[1][2].ToVector(), (std::vector<float>{3.0f}));
}

TEST(CollectivesTest, BarrierWaitsForAllMembers) {
  std::vector<NodeId> members = {0, 1, 2, 3};
  InProcTransport transport(4);
  std::atomic<int> entered{0};
  std::atomic<int> min_seen_at_exit{100};
  RunMembers(&transport, members, [&](size_t i, Endpoint* ep) {
    if (i == 2) std::this_thread::sleep_for(std::chrono::milliseconds(30));
    ++entered;
    ASSERT_TRUE(RingBarrier(ep, members, i, 13).ok());
    int e = entered.load();
    int expected = min_seen_at_exit.load();
    while (e < expected &&
           !min_seen_at_exit.compare_exchange_weak(expected, e)) {
    }
  });
  // Nobody may exit the barrier before everyone entered.
  EXPECT_EQ(min_seen_at_exit.load(), 4);
}

TEST(CollectivesTest, BarrierSingleMemberIsNoop) {
  InProcTransport transport(1);
  Endpoint ep(&transport, 0);
  EXPECT_TRUE(RingBarrier(&ep, {0}, 0, 1).ok());
}

// --- Segmented pipelined ring ---------------------------------------------

/// Runs the segmented ring over `inputs` with the given segment size and
/// returns each member's result.
std::vector<std::vector<float>> RunSegmented(
    const std::vector<NodeId>& members, const std::vector<double>& weights,
    std::vector<std::vector<float>> inputs, size_t segment_floats,
    int world = 0) {
  InProcTransport transport(world > 0 ? world
                                      : static_cast<int>(members.size()));
  RunMembers(&transport, members, [&](size_t i, Endpoint* ep) {
    ASSERT_TRUE(SegmentedRingWeightedAllReduce(
                    ep, members, weights, i, /*tag=*/1, inputs[i].data(),
                    inputs[i].size(), segment_floats)
                    .ok());
  });
  return inputs;
}

TEST_P(CollectiveParamTest, SegmentedBitIdenticalToClassicRing) {
  auto [p, n] = GetParam();
  std::vector<NodeId> members;
  for (size_t i = 0; i < p; ++i) members.push_back(static_cast<NodeId>(i));
  std::vector<double> weights(p);
  double total = 0.0;
  Rng wrng(p * 31 + n);
  for (auto& w : weights) {
    w = wrng.Uniform(0.1, 1.0);
    total += w;
  }
  for (auto& w : weights) w /= total;
  auto inputs = MakeInputs(p, n, 321);

  InProcTransport t1(static_cast<int>(p));
  auto classic = inputs;
  RunMembers(&t1, members, [&](size_t i, Endpoint* ep) {
    ASSERT_TRUE(
        RingWeightedAllReduce(ep, members, weights, i, 1, &classic[i]).ok());
  });

  // Small segment so every parameterization actually pipelines.
  auto segmented = RunSegmented(members, weights, inputs, /*segment=*/8);
  for (size_t i = 0; i < p; ++i) {
    ASSERT_EQ(segmented[i].size(), n);
    for (size_t j = 0; j < n; ++j) {
      // Bitwise identity, not approximate equality: the segmented pipeline
      // must perform the same additions in the same per-element order.
      EXPECT_EQ(segmented[i][j], classic[i][j])
          << "member " << i << " elem " << j;
    }
  }
}

TEST(SegmentedRingTest, VectorShorterThanGroup) {
  // n < P: some chunks are empty, yet the schedule must stay uniform.
  std::vector<NodeId> members = {0, 1, 2, 3, 4};
  std::vector<double> weights(5, 0.2);
  auto inputs = MakeInputs(5, 3, 17);
  auto expected = ExpectedWeightedSum(inputs, weights);
  auto out = RunSegmented(members, weights, inputs, /*segment=*/4);
  for (size_t i = 0; i < 5; ++i) {
    for (size_t j = 0; j < 3; ++j) EXPECT_NEAR(out[i][j], expected[j], 1e-5);
  }
}

TEST(SegmentedRingTest, EmptyVector) {
  // n == 0: nothing to reduce, but every member must still complete.
  std::vector<NodeId> members = {0, 1, 2};
  std::vector<double> weights(3, 1.0 / 3.0);
  InProcTransport transport(3);
  RunMembers(&transport, members, [&](size_t i, Endpoint* ep) {
    ASSERT_TRUE(SegmentedRingWeightedAllReduce(ep, members, weights, i, 1,
                                               nullptr, 0)
                    .ok());
  });
}

TEST(SegmentedRingTest, SingleMemberScalesByOwnWeight) {
  InProcTransport transport(1);
  Endpoint ep(&transport, 0);
  std::vector<float> data = {2.0f, 4.0f};
  ASSERT_TRUE(SegmentedRingWeightedAllReduce(&ep, {0}, {0.5}, 0, 1,
                                             data.data(), data.size())
                  .ok());
  EXPECT_FLOAT_EQ(data[0], 1.0f);
  EXPECT_FLOAT_EQ(data[1], 2.0f);
}

TEST(SegmentedRingTest, NonDivisibleLengthManySegments) {
  // Chunk lengths differ (n % p != 0) and each chunk spans several
  // segments, with a ragged final segment.
  std::vector<NodeId> members = {0, 1, 2};
  std::vector<double> weights = {0.2, 0.3, 0.5};
  auto inputs = MakeInputs(3, 101, 23);
  auto expected = ExpectedWeightedSum(inputs, weights);
  auto out = RunSegmented(members, weights, inputs, /*segment=*/7);
  for (size_t i = 0; i < 3; ++i) {
    for (size_t j = 0; j < 101; ++j) {
      EXPECT_NEAR(out[i][j], expected[j], 1e-4);
    }
  }
}

TEST(SegmentedRingTest, SegmentLargerThanVector) {
  // One segment per chunk: degenerates to the unsegmented schedule.
  std::vector<NodeId> members = {0, 1, 2, 3};
  std::vector<double> weights(4, 0.25);
  auto inputs = MakeInputs(4, 10, 29);
  auto expected = ExpectedWeightedSum(inputs, weights);
  auto out = RunSegmented(members, weights, inputs, /*segment=*/1u << 20);
  for (size_t i = 0; i < 4; ++i) {
    for (size_t j = 0; j < 10; ++j) EXPECT_NEAR(out[i][j], expected[j], 1e-5);
  }
}

TEST(SegmentedRingTest, NonContiguousMemberIds) {
  std::vector<NodeId> members = {1, 4, 6};
  std::vector<double> weights = {0.5, 0.25, 0.25};
  auto inputs = MakeInputs(3, 40, 37);
  auto expected = ExpectedWeightedSum(inputs, weights);
  auto out = RunSegmented(members, weights, inputs, /*segment=*/6, /*world=*/8);
  for (size_t i = 0; i < 3; ++i) {
    for (size_t j = 0; j < 40; ++j) EXPECT_NEAR(out[i][j], expected[j], 1e-5);
  }
}

TEST(SegmentedRingTest, GroupDispatchMatchesReference) {
  // GroupWeightedAllReduce is the strategies' single dispatch point; it must
  // agree bitwise with the unsegmented reference ring.
  const size_t p = 4, n = 333;
  std::vector<NodeId> members = {0, 1, 2, 3};
  std::vector<double> weights = {0.1, 0.2, 0.3, 0.4};
  auto inputs = MakeInputs(p, n, 41);

  InProcTransport t1(static_cast<int>(p));
  auto classic = inputs;
  RunMembers(&t1, members, [&](size_t i, Endpoint* ep) {
    ASSERT_TRUE(
        RingWeightedAllReduce(ep, members, weights, i, 1, &classic[i]).ok());
  });

  InProcTransport t2(static_cast<int>(p));
  auto dispatched = inputs;
  RunMembers(&t2, members, [&](size_t i, Endpoint* ep) {
    ASSERT_TRUE(GroupWeightedAllReduce(ep, members, weights, i, 1,
                                       &dispatched[i])
                    .ok());
  });
  for (size_t i = 0; i < p; ++i) {
    for (size_t j = 0; j < n; ++j) {
      EXPECT_EQ(dispatched[i][j], classic[i][j]);
    }
  }
}

/// Runs the raw (`codec` kNone) or compressed segmented ring over
/// `transport`, one fresh compressor per member, and returns the results.
std::vector<std::vector<float>> RunRingOver(
    Transport* transport, const std::vector<NodeId>& members,
    const std::vector<double>& weights,
    std::vector<std::vector<float>> data, CompressionKind codec) {
  RunMembers(transport, members, [&](size_t i, Endpoint* ep) {
    Status s;
    if (codec == CompressionKind::kNone) {
      s = SegmentedRingWeightedAllReduce(ep, members, weights, i, 1,
                                         data[i].data(), data[i].size(), 7);
    } else {
      Compressor comp(codec);
      s = SegmentedRingCompressedAllReduce(ep, members, weights, i, 1,
                                           data[i].data(), data[i].size(),
                                           &comp, 7);
    }
    ASSERT_TRUE(s.ok()) << s.ToString();
  });
  return data;
}

TEST(SegmentedRingTest, DuplicatedSegmentsLeaveResultUnchanged) {
  // Every message is delivered twice. The ring selects each segment by
  // (step, chunk, segment), so the copies are parked, never consumed out of
  // turn: members end bitwise identical and equal to the fault-free run.
  const std::vector<NodeId> members = {0, 1, 2};
  const std::vector<double> weights = {0.2, 0.3, 0.5};
  const auto inputs = MakeInputs(3, 101, 53);
  FaultPlan plan;
  plan.seed = 11;
  plan.default_edge.dup_prob = 1.0;
  for (CompressionKind codec : {CompressionKind::kNone, CompressionKind::kInt8}) {
    InProcTransport clean_fabric(3);
    const auto clean =
        RunRingOver(&clean_fabric, members, weights, inputs, codec);
    InProcTransport inner(3);
    FaultyTransport faulty(&inner, plan);
    const auto duped = RunRingOver(&faulty, members, weights, inputs, codec);
    EXPECT_GT(faulty.injected_dups(), 0u);
    for (size_t i = 0; i < members.size(); ++i) {
      for (size_t j = 0; j < inputs[0].size(); ++j) {
        EXPECT_EQ(duped[i][j], clean[i][j]) << "member " << i << " elem " << j;
        EXPECT_EQ(duped[i][j], duped[0][j]) << "member " << i << " elem " << j;
      }
    }
  }
}

TEST(SegmentedRingTest, DeadlineAbortsRingOnDroppedSegments) {
  // Member 0's sends to member 1 are all lost, so the ring can never
  // finish. With a deadline every member wakes on its timeout tick, the
  // tick callback gives up, and the ring returns kTimeout (not the
  // kCancelled of a shutdown) instead of blocking.
  const std::vector<NodeId> members = {0, 1, 2};
  const std::vector<double> weights(3, 1.0 / 3.0);
  FaultPlan plan;
  plan.seed = 5;
  plan.edges[{0, 1}].drop_prob = 1.0;
  InProcTransport inner(3);
  FaultyTransport faulty(&inner, plan);
  auto data = MakeInputs(3, 64, 59);
  std::vector<int> ticks(3, 0);
  std::vector<StatusCode> codes(3, StatusCode::kOk);
  RunMembers(&faulty, members, [&](size_t i, Endpoint* ep) {
    RingDeadline deadline;
    deadline.recv_timeout_seconds = 0.005;
    deadline.on_tick = [&ticks, i] { return ++ticks[i] < 3; };
    codes[i] = GroupWeightedAllReduce(ep, members, weights, i, 1,
                                      data[i].data(), data[i].size(),
                                      nullptr, deadline)
                   .code();
  });
  for (size_t i = 0; i < members.size(); ++i) {
    EXPECT_EQ(codes[i], StatusCode::kTimeout) << "member " << i;
    EXPECT_EQ(ticks[i], 3) << "member " << i;
  }
}

TEST(CollectivesTest, VectorShorterThanGroupStillReduces) {
  // n < p exercises empty chunks in the ring.
  std::vector<NodeId> members = {0, 1, 2, 3, 4};
  std::vector<double> weights(5, 0.2);
  auto inputs = MakeInputs(5, 2, 13);
  auto expected = ExpectedWeightedSum(inputs, weights);
  InProcTransport transport(5);
  auto data = inputs;
  RunMembers(&transport, members, [&](size_t i, Endpoint* ep) {
    ASSERT_TRUE(
        RingWeightedAllReduce(ep, members, weights, i, 1, &data[i]).ok());
  });
  for (size_t i = 0; i < 5; ++i) {
    for (size_t j = 0; j < 2; ++j) EXPECT_NEAR(data[i][j], expected[j], 1e-5);
  }
}

}  // namespace
}  // namespace pr
