#include <gtest/gtest.h>

#include <thread>

#include "comm/transport.h"

namespace pr {
namespace {

TEST(TransportTest, SendRecvRoundTrip) {
  InProcTransport transport(2);
  Endpoint a(&transport, 0), b(&transport, 1);
  ASSERT_TRUE(a.Send(1, /*tag=*/7, /*kind=*/1, {42}, {1.5f}).ok());
  auto env = b.RecvAny();
  ASSERT_TRUE(env.has_value());
  EXPECT_EQ(env->from, 0);
  EXPECT_EQ(env->tag, 7u);
  EXPECT_EQ(env->kind, 1);
  EXPECT_EQ(env->ints, (std::vector<int64_t>{42}));
  EXPECT_EQ(env->payload.ToVector(), (std::vector<float>{1.5f}));
}

TEST(TransportTest, SendToInvalidNodeFails) {
  InProcTransport transport(2);
  Envelope env;
  EXPECT_EQ(transport.Send(5, env).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(transport.Send(-1, env).code(), StatusCode::kInvalidArgument);
}

TEST(TransportTest, PairwiseFifoOrder) {
  InProcTransport transport(2);
  Endpoint a(&transport, 0), b(&transport, 1);
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(a.Send(1, 0, 1, {i}).ok());
  }
  for (int i = 0; i < 10; ++i) {
    auto env = b.RecvAny();
    ASSERT_TRUE(env.has_value());
    EXPECT_EQ(env->ints[0], i);
  }
}

TEST(TransportTest, RecvMatchingStashesOtherMessages) {
  InProcTransport transport(3);
  Endpoint a(&transport, 0), b(&transport, 1), c(&transport, 2);
  ASSERT_TRUE(a.Send(2, /*tag=*/1, /*kind=*/5, {}, {1.0f}).ok());
  ASSERT_TRUE(b.Send(2, /*tag=*/9, /*kind=*/5, {}, {2.0f}).ok());

  // Ask for b's message first although a's arrived first.
  auto from_b = c.RecvMatching(1, 9, 5);
  ASSERT_TRUE(from_b.has_value());
  EXPECT_EQ(from_b->payload[0], 2.0f);
  // a's message was stashed and is still deliverable.
  auto from_a = c.RecvMatching(0, 1, 5);
  ASSERT_TRUE(from_a.has_value());
  EXPECT_EQ(from_a->payload[0], 1.0f);
}

TEST(TransportTest, RecvFromFiltersBySender) {
  InProcTransport transport(3);
  Endpoint a(&transport, 0), b(&transport, 1), c(&transport, 2);
  ASSERT_TRUE(b.Send(2, 0, 1, {}).ok());
  ASSERT_TRUE(a.Send(2, 0, 2, {}).ok());
  auto env = c.RecvFrom(0);
  ASSERT_TRUE(env.has_value());
  EXPECT_EQ(env->from, 0);
  EXPECT_EQ(env->kind, 2);
  // b's earlier message is stashed for later RecvAny.
  auto env2 = c.RecvAny();
  ASSERT_TRUE(env2.has_value());
  EXPECT_EQ(env2->from, 1);
}

TEST(TransportTest, StashCountersTrackParkedMessages) {
  InProcTransport transport(3);
  Endpoint a(&transport, 0), b(&transport, 1), c(&transport, 2);
  EXPECT_EQ(c.stash_size(), 0u);
  EXPECT_EQ(c.stash_high_water(), 0u);

  // Two out-of-order messages park while c waits for a specific one.
  ASSERT_TRUE(a.Send(2, /*tag=*/1, /*kind=*/5, {}).ok());
  ASSERT_TRUE(a.Send(2, /*tag=*/2, /*kind=*/5, {}).ok());
  ASSERT_TRUE(b.Send(2, /*tag=*/3, /*kind=*/5, {}).ok());
  auto env = c.RecvMatching(1, 3, 5);
  ASSERT_TRUE(env.has_value());
  EXPECT_EQ(c.stash_size(), 2u);
  EXPECT_EQ(c.stash_high_water(), 2u);

  // Draining the stash lowers the size but never the high-water mark.
  ASSERT_TRUE(c.RecvMatching(0, 2, 5).has_value());
  ASSERT_TRUE(c.RecvMatching(0, 1, 5).has_value());
  EXPECT_EQ(c.stash_size(), 0u);
  EXPECT_EQ(c.stash_high_water(), 2u);
}

TEST(TransportTest, StashedMessagesDrainInFifoOrderViaRecvAny) {
  InProcTransport transport(3);
  Endpoint a(&transport, 0), b(&transport, 1), c(&transport, 2);
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(a.Send(2, /*tag=*/static_cast<uint64_t>(i), 1, {i}).ok());
  }
  ASSERT_TRUE(b.Send(2, 0, 1, {99}).ok());
  // Waiting on b parks all five of a's messages.
  auto from_b = c.RecvFrom(1);
  ASSERT_TRUE(from_b.has_value());
  EXPECT_EQ(c.stash_size(), 5u);
  // RecvAny replays the stash oldest-first, preserving a's send order.
  for (int i = 0; i < 5; ++i) {
    auto env = c.RecvAny();
    ASSERT_TRUE(env.has_value());
    EXPECT_EQ(env->ints[0], i);
  }
  EXPECT_EQ(c.stash_size(), 0u);
}

TEST(TransportTest, ShutdownUnblocksReceiver) {
  InProcTransport transport(1);
  std::thread receiver([&] {
    Endpoint ep(&transport, 0);
    auto env = ep.RecvAny();
    EXPECT_FALSE(env.has_value());
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  transport.Shutdown();
  receiver.join();
}

TEST(TransportTest, SendAfterShutdownFails) {
  InProcTransport transport(2);
  transport.Shutdown();
  Endpoint a(&transport, 0);
  EXPECT_EQ(a.Send(1, 0, 0, {}).code(), StatusCode::kFailedPrecondition);
}

TEST(TransportTest, RecvMatchingForTimesOutWithoutLosingStash) {
  InProcTransport transport(2);
  Endpoint a(&transport, 0), b(&transport, 1);
  ASSERT_TRUE(a.Send(1, /*tag=*/1, /*kind=*/5, {}).ok());
  // Waiting for a message that never comes returns nullopt on deadline —
  // and the fabric is still open, so the caller knows it was a timeout.
  auto missing = b.RecvMatchingFor(0, /*tag=*/99, /*kind=*/5, 0.02);
  EXPECT_FALSE(missing.has_value());
  EXPECT_FALSE(b.closed());
  // The non-matching arrival was parked, not dropped.
  EXPECT_EQ(b.stash_size(), 1u);
  auto parked = b.RecvMatching(0, 1, 5);
  ASSERT_TRUE(parked.has_value());
}

TEST(TransportTest, TimedRecvDistinguishesShutdownFromTimeout) {
  InProcTransport transport(1);
  Endpoint ep(&transport, 0);
  EXPECT_FALSE(ep.RecvAnyFor(0.01).has_value());
  EXPECT_FALSE(ep.closed());  // timeout: fabric still up
  transport.Shutdown();
  EXPECT_FALSE(ep.RecvAnyFor(0.01).has_value());
  EXPECT_TRUE(ep.closed());  // shutdown: unwind, don't retry
}

TEST(TransportTest, NegativeTimeoutMeansNoDeadlineOnEveryTimedRecv) {
  // A negative timeout blocks like the untimed receive: each *For variant
  // must wait for the late message instead of returning at once.
  InProcTransport transport(2);
  Endpoint a(&transport, 0), b(&transport, 1);
  auto late_send = [&] {
    return std::thread([&] {
      std::this_thread::sleep_for(std::chrono::milliseconds(30));
      ASSERT_TRUE(a.Send(1, /*tag=*/3, /*kind=*/7, {1}).ok());
    });
  };
  std::thread s1 = late_send();
  EXPECT_TRUE(b.RecvAnyFor(-1.0).has_value());
  s1.join();
  std::thread s2 = late_send();
  EXPECT_TRUE(b.RecvMatchingFor(0, 3, 7, -1.0).has_value());
  s2.join();
  std::thread s3 = late_send();
  EXPECT_TRUE(b.RecvFromFor(0, -1.0).has_value());
  s3.join();
  std::thread s4 = late_send();
  EXPECT_TRUE(
      b.RecvWhereFor([](const Envelope& e) { return e.kind == 7; }, -1.0)
          .has_value());
  s4.join();
  // Shutdown still ends an unbounded wait.
  std::thread closer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    transport.Shutdown();
  });
  EXPECT_FALSE(b.RecvAnyFor(-1.0).has_value());
  EXPECT_TRUE(b.closed());
  closer.join();
}

TEST(TransportTest, RecvWhereForMatchesOnPayloadFields) {
  InProcTransport transport(2);
  Endpoint a(&transport, 0), b(&transport, 1);
  // Two chunks from the same (from, tag, kind) conversation differing only
  // in their step counter — the case plain RecvMatching cannot split.
  ASSERT_TRUE(a.Send(1, /*tag=*/4, /*kind=*/101, {/*step=*/2, 0}).ok());
  ASSERT_TRUE(a.Send(1, /*tag=*/4, /*kind=*/101, {/*step=*/1, 0}).ok());
  auto step1 = b.RecvWhereFor(
      [](const Envelope& env) {
        return env.kind == 101 && !env.ints.empty() && env.ints[0] == 1;
      },
      1.0);
  ASSERT_TRUE(step1.has_value());
  EXPECT_EQ(step1->ints[0], 1);
  // The step-2 chunk was parked for its turn.
  EXPECT_EQ(b.stash_size(), 1u);
}

TEST(TransportTest, TryTakeStashedLiftsParkedControlMessages) {
  InProcTransport transport(3);
  Endpoint a(&transport, 0), b(&transport, 1), c(&transport, 2);
  // An out-of-band abort (kind 10) parks while c waits on a data chunk.
  ASSERT_TRUE(b.Send(2, /*tag=*/8, /*kind=*/10, {}).ok());
  ASSERT_TRUE(a.Send(2, /*tag=*/8, /*kind=*/101, {}).ok());
  ASSERT_TRUE(c.RecvMatching(0, 8, 101).has_value());
  EXPECT_EQ(c.stash_size(), 1u);
  // Nothing matching: stash untouched.
  EXPECT_FALSE(
      c.TryTakeStashed([](const Envelope& env) { return env.kind == 99; })
          .has_value());
  EXPECT_EQ(c.stash_size(), 1u);
  auto abort_msg =
      c.TryTakeStashed([](const Envelope& env) { return env.kind == 10; });
  ASSERT_TRUE(abort_msg.has_value());
  EXPECT_EQ(abort_msg->from, 1);
  EXPECT_EQ(c.stash_size(), 0u);
}

TEST(TransportTest, PurgeStashDropsOnlyMatchingMessages) {
  InProcTransport transport(2);
  Endpoint a(&transport, 0), b(&transport, 1);
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(a.Send(1, /*tag=*/7, /*kind=*/101, {i}).ok());
  }
  ASSERT_TRUE(a.Send(1, /*tag=*/3, /*kind=*/1, {}).ok());
  // Park everything behind a selective receive for the tag-3 message.
  ASSERT_TRUE(b.RecvMatching(0, 3, 1).has_value());
  EXPECT_EQ(b.stash_size(), 4u);
  // Abort conversation 7: its chunks must not rot in the stash.
  size_t purged =
      b.PurgeStash([](const Envelope& env) { return env.tag == 7; });
  EXPECT_EQ(purged, 4u);
  EXPECT_EQ(b.stash_size(), 0u);
}

TEST(TransportTest, StashGrowsWhenPeerExitsMidConversation) {
  InProcTransport transport(3);
  Endpoint a(&transport, 0), b(&transport, 1), c(&transport, 2);
  // a starts a conversation with c, then "exits" without finishing it; b's
  // messages are what c actually wants next.
  ASSERT_TRUE(a.Send(2, /*tag=*/1, /*kind=*/101, {0}).ok());
  ASSERT_TRUE(a.Send(2, /*tag=*/1, /*kind=*/101, {1}).ok());
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(b.Send(2, /*tag=*/2, /*kind=*/101, {i}).ok());
    auto env = c.RecvMatchingFor(1, 2, 101, 1.0);
    ASSERT_TRUE(env.has_value());
    EXPECT_EQ(env->ints[0], i);
  }
  // The dead conversation's chunks accumulated: visible in both the live
  // size and the high-water mark, which is the leak signal operators watch.
  EXPECT_EQ(c.stash_size(), 2u);
  EXPECT_GE(c.stash_high_water(), 2u);
  EXPECT_EQ(c.PurgeStash([](const Envelope& env) { return env.tag == 1; }),
            2u);
  EXPECT_EQ(c.stash_size(), 0u);
  EXPECT_GE(c.stash_high_water(), 2u);  // high water never decreases
}

TEST(TransportTest, PurgeStashFromDropsOnlyThatPeersMessages) {
  InProcTransport transport(4);
  Endpoint a(&transport, 0), b(&transport, 1), c(&transport, 2);
  Endpoint d(&transport, 3);
  // Two conversations park behind a selective receive; then peer 0 dies.
  ASSERT_TRUE(a.Send(3, /*tag=*/1, /*kind=*/101, {0}).ok());
  ASSERT_TRUE(a.Send(3, /*tag=*/2, /*kind=*/101, {1}).ok());
  ASSERT_TRUE(b.Send(3, /*tag=*/1, /*kind=*/101, {2}).ok());
  ASSERT_TRUE(c.Send(3, /*tag=*/9, /*kind=*/1, {}).ok());
  ASSERT_TRUE(d.RecvMatching(2, 9, 1).has_value());
  EXPECT_EQ(d.stash_size(), 3u);

  // Peer-death hygiene: everything the dead peer ever sent goes, nothing
  // from the survivors does.
  EXPECT_EQ(d.PurgeStashFrom(0), 2u);
  EXPECT_EQ(d.stash_size(), 1u);
  auto kept = d.TryTakeStashed([](const Envelope&) { return true; });
  ASSERT_TRUE(kept.has_value());
  EXPECT_EQ(kept->from, 1);
}

TEST(TransportTest, StashPurgesAreCounted) {
  InProcTransport transport(3);
  Endpoint a(&transport, 0), b(&transport, 1), c(&transport, 2);
  MetricsRegistry registry;
  MetricsShard* mc = registry.NewShard();
  c.AttachObservers(mc, "", nullptr, nullptr);

  ASSERT_TRUE(a.Send(2, /*tag=*/1, /*kind=*/101, {0}).ok());
  ASSERT_TRUE(a.Send(2, /*tag=*/1, /*kind=*/101, {1}).ok());
  ASSERT_TRUE(b.Send(2, /*tag=*/5, /*kind=*/1, {}).ok());
  ASSERT_TRUE(c.RecvMatching(1, 5, 1).has_value());
  EXPECT_EQ(c.stash_size(), 2u);

  EXPECT_EQ(c.PurgeStashFrom(0), 2u);
  EXPECT_EQ(mc->GetCounter("transport.stash_purged")->value(), 2.0);
  // Purging an empty stash adds nothing.
  EXPECT_EQ(c.PurgeStashFrom(0), 0u);
  EXPECT_EQ(mc->GetCounter("transport.stash_purged")->value(), 2.0);
}

TEST(TransportTest, ResetDiagnosticsClearsHighWaterBetweenAttachments) {
  InProcTransport transport(3);
  Endpoint a(&transport, 0), b(&transport, 1), c(&transport, 2);
  MetricsRegistry job_a_registry;
  MetricsShard* job_a = job_a_registry.NewShard();
  c.AttachObservers(job_a, "job_a", nullptr, nullptr);

  // Two strays from node 0 park while c selectively receives from node 1.
  ASSERT_TRUE(a.Send(2, /*tag=*/1, /*kind=*/101, {0}).ok());
  ASSERT_TRUE(a.Send(2, /*tag=*/1, /*kind=*/101, {1}).ok());
  ASSERT_TRUE(b.Send(2, /*tag=*/5, /*kind=*/1, {}).ok());
  ASSERT_TRUE(c.RecvMatching(1, 5, 1).has_value());
  EXPECT_EQ(c.stash_high_water(), 2u);
  EXPECT_EQ(job_a->GetGauge("job_a.stash_high_water")->value(), 2.0);

  // Handoff hygiene: purge leftovers (charged to job A), then reset.
  EXPECT_EQ(c.PurgeStash([](const Envelope&) { return true; }), 2u);
  c.ResetDiagnostics();
  EXPECT_EQ(c.stash_high_water(), 0u);

  // The next tenant's scope starts clean and only counts its own strays.
  MetricsRegistry job_b_registry;
  MetricsShard* job_b = job_b_registry.NewShard();
  c.AttachObservers(job_b, "job_b", nullptr, nullptr);
  EXPECT_EQ(job_b->GetGauge("job_b.stash_high_water")->value(), 0.0);
  ASSERT_TRUE(a.Send(2, /*tag=*/1, /*kind=*/101, {2}).ok());
  ASSERT_TRUE(b.Send(2, /*tag=*/6, /*kind=*/1, {}).ok());
  ASSERT_TRUE(c.RecvMatching(1, 6, 1).has_value());
  EXPECT_EQ(c.stash_high_water(), 1u);
  EXPECT_EQ(job_b->GetGauge("job_b.stash_high_water")->value(), 1.0);
  // Detached observers saw none of job B's traffic.
  EXPECT_EQ(job_a->GetGauge("job_a.stash_high_water")->value(), 2.0);
  EXPECT_EQ(job_a->GetCounter("transport.messages_received")->value(), 1.0);
}

TEST(TransportTest, SkippedResetChargesStaleHighWaterToNewScope) {
  InProcTransport transport(3);
  Endpoint a(&transport, 0), b(&transport, 1), c(&transport, 2);
  MetricsRegistry job_a_registry;
  MetricsShard* job_a = job_a_registry.NewShard();
  c.AttachObservers(job_a, "job_a", nullptr, nullptr);
  ASSERT_TRUE(a.Send(2, /*tag=*/1, /*kind=*/101, {0}).ok());
  ASSERT_TRUE(a.Send(2, /*tag=*/1, /*kind=*/101, {1}).ok());
  ASSERT_TRUE(b.Send(2, /*tag=*/5, /*kind=*/1, {}).ok());
  ASSERT_TRUE(c.RecvMatching(1, 5, 1).has_value());
  EXPECT_EQ(job_a->GetGauge("job_a.stash_high_water")->value(), 2.0);

  // Re-attach WITHOUT ResetDiagnostics: the stale mark is republished into
  // the new scope at attach time, so the leak is visible there instead of
  // surfacing only after the next stash growth.
  MetricsRegistry job_b_registry;
  MetricsShard* job_b = job_b_registry.NewShard();
  c.AttachObservers(job_b, "job_b", nullptr, nullptr);
  EXPECT_EQ(job_b->GetGauge("job_b.stash_high_water")->value(), 2.0);
  EXPECT_EQ(job_b->GetGauge("transport.stash_high_water")->value(), 2.0);
}

TEST(TransportTest, EndpointSendAfterShutdownFailsPrecondition) {
  InProcTransport transport(2);
  Endpoint a(&transport, 0), b(&transport, 1);
  ASSERT_TRUE(a.Send(1, 0, 1, {}).ok());
  transport.Shutdown();
  EXPECT_EQ(a.Send(1, 0, 2, {}).code(),
            StatusCode::kFailedPrecondition);
  // Messages sent before shutdown still drain.
  auto env = b.RecvAny();
  ASSERT_TRUE(env.has_value());
  EXPECT_EQ(env->kind, 1);
  // Once drained, receives report closure instead of blocking.
  EXPECT_FALSE(b.RecvAny().has_value());
  EXPECT_TRUE(b.closed());
}

TEST(TransportTest, StashReplayInterleavesWithMailboxOnRecvAny) {
  InProcTransport transport(3);
  Endpoint a(&transport, 0), b(&transport, 1), c(&transport, 2);
  ASSERT_TRUE(a.Send(2, /*tag=*/1, /*kind=*/101, {10}).ok());
  ASSERT_TRUE(a.Send(2, /*tag=*/1, /*kind=*/101, {11}).ok());
  ASSERT_TRUE(b.Send(2, /*tag=*/9, /*kind=*/1, {}).ok());
  // Park a's two chunks behind a selective receive for b's message.
  ASSERT_TRUE(c.RecvMatching(1, 9, 1).has_value());
  ASSERT_EQ(c.stash_size(), 2u);
  // New mailbox arrivals queue *behind* the stash: RecvAny replays parked
  // messages first (oldest-first), then reads fresh ones.
  ASSERT_TRUE(b.Send(2, /*tag=*/9, /*kind=*/2, {}).ok());
  auto first = c.RecvAny();
  auto second = c.RecvAny();
  auto third = c.RecvAny();
  ASSERT_TRUE(first.has_value() && second.has_value() && third.has_value());
  EXPECT_EQ(first->ints[0], 10);
  EXPECT_EQ(second->ints[0], 11);
  EXPECT_EQ(third->kind, 2);
}

TEST(TransportTest, ByteCountersTrackPayloadTraffic) {
  InProcTransport transport(2);
  Endpoint a(&transport, 0), b(&transport, 1);
  MetricsRegistry registry;
  MetricsShard* ma = registry.NewShard();
  MetricsShard* mb = registry.NewShard();
  a.AttachObservers(ma, "", nullptr, nullptr);
  b.AttachObservers(mb, "", nullptr, nullptr);

  ASSERT_TRUE(a.Send(1, 1, 1, {}, std::vector<float>{1.0f, 2.0f, 3.0f}).ok());
  ASSERT_TRUE(a.Send(1, 2, 1, {}).ok());  // control message: no payload bytes
  ASSERT_TRUE(b.RecvMatching(0, 1, 1).has_value());
  ASSERT_TRUE(b.RecvMatching(0, 2, 1).has_value());

  EXPECT_EQ(ma->GetCounter("transport.bytes_sent")->value(),
            3 * sizeof(float));
  EXPECT_EQ(mb->GetCounter("transport.bytes_received")->value(),
            3 * sizeof(float));
  // The vector-adopting send is exactly one payload materialization.
  EXPECT_EQ(ma->GetCounter("transport.payload_copies")->value(), 1.0);
}

TEST(TransportTest, BroadcastCopiesPayloadOnce) {
  // One MakePayload + P shared-handle sends: payload_copies stays O(1) in
  // the receiver count — the zero-copy data plane's core invariant.
  const int kReceivers = 7;
  InProcTransport transport(kReceivers + 1);
  Endpoint root(&transport, 0);
  MetricsRegistry registry;
  MetricsShard* metrics = registry.NewShard();
  root.AttachObservers(metrics, "", nullptr, nullptr);

  std::vector<float> model(256, 1.25f);
  Buffer payload = root.MakePayload(model.data(), model.size());
  for (int r = 1; r <= kReceivers; ++r) {
    ASSERT_TRUE(root.Send(r, 0, 1, {}, payload).ok());
  }
  EXPECT_EQ(metrics->GetCounter("transport.payload_copies")->value(), 1.0);
  EXPECT_EQ(metrics->GetCounter("transport.bytes_sent")->value(),
            static_cast<double>(kReceivers * 256 * sizeof(float)));

  // Every receiver sees the same allocation (refcount share, not a clone).
  for (int r = 1; r <= kReceivers; ++r) {
    Endpoint ep(&transport, r);
    auto env = ep.RecvAny();
    ASSERT_TRUE(env.has_value());
    EXPECT_EQ(env->payload.data(), payload.data());
  }
}

TEST(TransportTest, SharedPayloadSendDoesNotCountACopy) {
  InProcTransport transport(2);
  Endpoint a(&transport, 0);
  MetricsRegistry registry;
  MetricsShard* metrics = registry.NewShard();
  a.AttachObservers(metrics, "", nullptr, nullptr);

  std::vector<float> v = {1.0f, 2.0f};
  Buffer payload = a.MakePayload(v.data(), v.size());
  EXPECT_EQ(metrics->GetCounter("transport.payload_copies")->value(), 1.0);
  ASSERT_TRUE(a.Send(1, 0, 1, {}, payload).ok());
  ASSERT_TRUE(a.Send(1, 1, 1, {}, payload).ok());
  EXPECT_EQ(metrics->GetCounter("transport.payload_copies")->value(), 1.0);
}

TEST(TransportTest, CrossThreadDelivery) {
  InProcTransport transport(2);
  std::thread sender([&] {
    Endpoint a(&transport, 0);
    for (int i = 0; i < 100; ++i) {
      ASSERT_TRUE(a.Send(1, 0, 1, {i}).ok());
    }
  });
  Endpoint b(&transport, 1);
  for (int i = 0; i < 100; ++i) {
    auto env = b.RecvAny();
    ASSERT_TRUE(env.has_value());
    EXPECT_EQ(env->ints[0], i);
  }
  sender.join();
}

}  // namespace
}  // namespace pr
