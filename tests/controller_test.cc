#include <gtest/gtest.h>

#include <deque>
#include <set>

#include "common/rng.h"
#include "core/controller.h"
#include "core/spectral.h"
#include "core/sync_graph.h"

namespace pr {
namespace {

ControllerOptions BasicOptions(int n, int p) {
  ControllerOptions opt;
  opt.num_workers = n;
  opt.group_size = p;
  return opt;
}

TEST(ControllerTest, NoGroupUntilPSignals) {
  Controller c(BasicOptions(4, 3));
  EXPECT_TRUE(c.OnReadySignal(0, 1).empty());
  EXPECT_TRUE(c.OnReadySignal(1, 1).empty());
  EXPECT_EQ(c.PendingSignals(), 2u);
  auto decisions = c.OnReadySignal(2, 1);
  ASSERT_EQ(decisions.size(), 1u);
  EXPECT_EQ(c.PendingSignals(), 0u);
}

TEST(ControllerTest, FifoGroupFormation) {
  Controller c(BasicOptions(5, 2));
  c.OnReadySignal(3, 1);
  auto decisions = c.OnReadySignal(1, 1);
  ASSERT_EQ(decisions.size(), 1u);
  EXPECT_EQ(decisions[0].members, (std::vector<int>{3, 1}));
}

TEST(ControllerTest, ConstantWeightsAreUniform) {
  Controller c(BasicOptions(4, 2));
  c.OnReadySignal(0, 5);
  auto decisions = c.OnReadySignal(1, 9);
  ASSERT_EQ(decisions.size(), 1u);
  EXPECT_EQ(decisions[0].weights, (std::vector<double>{0.5, 0.5}));
  EXPECT_EQ(decisions[0].advanced_iteration, 9);
}

TEST(ControllerTest, DynamicWeightsFavorNewer) {
  ControllerOptions opt = BasicOptions(4, 2);
  opt.mode = PartialReduceMode::kDynamic;
  opt.dynamic.alpha = 0.5;
  Controller c(opt);
  c.OnReadySignal(0, 10);
  auto decisions = c.OnReadySignal(1, 2);
  ASSERT_EQ(decisions.size(), 1u);
  EXPECT_GT(decisions[0].weights[0], decisions[0].weights[1]);
  EXPECT_EQ(decisions[0].advanced_iteration, 10);
}

TEST(ControllerTest, GroupIdsIncrease) {
  Controller c(BasicOptions(4, 2));
  c.OnReadySignal(0, 1);
  auto d1 = c.OnReadySignal(1, 1);
  c.OnReadySignal(2, 1);
  auto d2 = c.OnReadySignal(3, 1);
  ASSERT_EQ(d1.size(), 1u);
  ASSERT_EQ(d2.size(), 1u);
  EXPECT_LT(d1[0].group_id, d2[0].group_id);
}

TEST(ControllerTest, StatsCountSignalsAndGroups) {
  Controller c(BasicOptions(4, 2));
  for (int i = 0; i < 4; ++i) c.OnReadySignal(i, 1);
  EXPECT_EQ(c.stats().signals_received, 4u);
  EXPECT_EQ(c.stats().groups_formed, 2u);
}

/// Drives the controller with the adversarial arrival order 0,1,2,3
/// repeated: without frozen avoidance this pairs (0,1) and (2,3) forever.
std::vector<GroupDecision> DriveAdversarial(Controller* c, int rounds) {
  std::vector<GroupDecision> all;
  std::vector<int64_t> iter(4, 0);
  std::set<int> queued;
  for (int round = 0; round < rounds; ++round) {
    for (int w : {0, 1, 2, 3}) {
      if (queued.count(w)) continue;  // still held by the controller
      auto decisions = c->OnReadySignal(w, ++iter[w]);
      queued.insert(w);
      for (auto& d : decisions) {
        for (int m : d.members) queued.erase(m);
        all.push_back(std::move(d));
      }
    }
  }
  return all;
}

TEST(ControllerTest, FrozenAvoidanceBridgesAdversarialPairs) {
  Controller c(BasicOptions(4, 2));
  auto decisions = DriveAdversarial(&c, 20);
  uint64_t bridged = 0;
  for (const auto& d : decisions) bridged += d.bridged ? 1 : 0;
  EXPECT_GT(bridged, 0u);
  EXPECT_GT(c.stats().frozen_detections, 0u);
  EXPECT_EQ(c.stats().bridged_groups, bridged);
}

TEST(ControllerTest, FrozenAvoidanceDisabledNeverBridges) {
  ControllerOptions opt = BasicOptions(4, 2);
  opt.frozen_avoidance = false;
  Controller c(opt);
  auto decisions = DriveAdversarial(&c, 20);
  for (const auto& d : decisions) {
    EXPECT_FALSE(d.bridged);
    // FIFO on this arrival order always pairs within the speed class.
    EXPECT_TRUE((d.members == std::vector<int>{0, 1}) ||
                (d.members == std::vector<int>{2, 3}));
  }
  EXPECT_EQ(c.stats().bridged_groups, 0u);
}

TEST(ControllerTest, BridgedScheduleKeepsSyncGraphConnectedOverTime) {
  Controller c(BasicOptions(4, 2));
  auto decisions = DriveAdversarial(&c, 30);
  SyncGraph global(4);
  for (const auto& d : decisions) global.AddGroup(d.members);
  EXPECT_TRUE(global.IsConnected());
}

// Feeds one ready signal per entry, in the given order; returns all formed
// groups.
std::vector<GroupDecision> FeedRound(Controller* c,
                                     const std::vector<int>& order,
                                     int64_t iteration) {
  std::vector<GroupDecision> formed;
  for (int w : order) {
    for (GroupDecision& d : c->OnReadySignal(w, iteration)) {
      formed.push_back(std::move(d));
    }
  }
  return formed;
}

TEST(ControllerTest, HeldSignalsReleaseWhenBridgeArrives) {
  // Freeze the history on pairs {0,1}/{2,3}, then have 0 and 1 queue: the
  // controller must hold them (single component) and release with a
  // bridging group when 2 signals.
  Controller c(BasicOptions(4, 2));
  c.OnReadySignal(0, 1);
  c.OnReadySignal(1, 1);
  c.OnReadySignal(2, 1);
  c.OnReadySignal(3, 1);
  c.OnReadySignal(0, 2);
  c.OnReadySignal(1, 2);  // history now frozen on {0,1},{2,3},{0,1}
  ASSERT_TRUE(c.history().IsFrozen());

  EXPECT_TRUE(c.OnReadySignal(2, 2).empty());  // pending [2]
  EXPECT_TRUE(c.OnReadySignal(3, 2).empty())
      << "queue {2,3} must be held while frozen";
  EXPECT_EQ(c.PendingSignals(), 2u);

  auto decisions = c.OnReadySignal(0, 3);  // cross-component signal arrives
  ASSERT_EQ(decisions.size(), 1u);
  EXPECT_TRUE(decisions[0].bridged);
  // The bridging group must span both components.
  SyncGraph frozen_graph = c.history().BuildSyncGraph();
  (void)frozen_graph;
  std::set<int> members(decisions[0].members.begin(),
                        decisions[0].members.end());
  EXPECT_TRUE(members.count(0) == 1);
  EXPECT_TRUE(members.count(2) == 1 || members.count(3) == 1);
}

TEST(ControllerTest, DepartureReleasesHold) {
  // N=5, P=2 (window T=4). Freeze on {0,1,2} | {3,4}: the queue {3,4} is
  // held while {0,1,2} keeps P live workers, and released at once when a
  // departure leaves it one.
  Controller c(BasicOptions(5, 2));
  FeedRound(&c, {0, 1, 1, 2, 3, 4, 0, 2}, 1);
  ASSERT_TRUE(c.history().IsFrozen());
  ASSERT_EQ(c.history().BuildSyncGraph().NumComponents(), 2u);
  EXPECT_TRUE(c.OnReadySignal(3, 2).empty());
  EXPECT_TRUE(c.OnReadySignal(4, 2).empty());  // held for {0,1,2}

  // {1,2} can still group by itself: the hold stands.
  EXPECT_TRUE(c.NotifyWorkerLeft(0).empty());
  EXPECT_EQ(c.PendingSignals(), 2u);
  // One live worker left in {0,1,2}: its every signal will be bridged, so
  // the held queue forms at once.
  auto decisions = c.NotifyWorkerLeft(1);
  ASSERT_EQ(decisions.size(), 1u);
  EXPECT_EQ(decisions[0].members, (std::vector<int>{3, 4}));
}

TEST(ControllerTest, RejoinedWorkerParticipatesAgain) {
  Controller c(BasicOptions(4, 2));
  EXPECT_TRUE(c.NotifyWorkerLeft(3).empty());
  // Remaining workers keep forming groups.
  c.OnReadySignal(0, 1);
  auto d = c.OnReadySignal(1, 1);
  ASSERT_EQ(d.size(), 1u);

  EXPECT_TRUE(c.NotifyWorkerRejoined(3).empty());
  c.OnReadySignal(3, 1);
  auto d2 = c.OnReadySignal(2, 1);
  ASSERT_EQ(d2.size(), 1u);
  EXPECT_EQ(d2[0].members, (std::vector<int>{3, 2}));
}

TEST(ControllerTest, RejoinRestoresHoldSemantics) {
  // Departures left {0,1} unable to group by itself; once both rejoin it
  // can again, and the controller holds single-component queues again.
  Controller c(BasicOptions(4, 2));
  FeedRound(&c, {0, 1, 2, 3, 0, 1}, 1);  // freeze on {0,1},{2,3},{0,1}
  ASSERT_TRUE(c.history().IsFrozen());
  c.NotifyWorkerLeft(0);
  c.NotifyWorkerLeft(1);
  c.NotifyWorkerRejoined(0);  // one live worker in {0,1}: no hold
  EXPECT_TRUE(c.OnReadySignal(2, 2).empty());
  auto released = c.OnReadySignal(3, 2);
  ASSERT_EQ(released.size(), 1u);
  EXPECT_FALSE(released[0].bridged);

  c.NotifyWorkerRejoined(1);  // {0,1} has P live workers again
  ASSERT_TRUE(c.history().IsFrozen());
  EXPECT_TRUE(c.OnReadySignal(2, 3).empty());
  EXPECT_TRUE(c.OnReadySignal(3, 3).empty());  // held, waiting for 0 or 1
  auto d = c.OnReadySignal(0, 3);
  ASSERT_EQ(d.size(), 1u);
  EXPECT_TRUE(d[0].bridged);
}

TEST(ControllerTest, LoneStragglerDoesNotHoldFastWorkers) {
  // N=4, P=2 (window T=3), worker 3 a straggler: the window freezes on the
  // fast component {0,1,2}. Worker 3 cannot group by itself, so the fast
  // workers' queue forms at once, and 3's next signal is bridged.
  MetricsRegistry registry;
  Controller c(BasicOptions(4, 2));
  c.AttachObservers(registry.NewShard(), nullptr, [] { return 0.0; });
  FeedRound(&c, {0, 1, 1, 2, 0, 2}, 1);  // {0,1},{1,2},{0,2}
  ASSERT_TRUE(c.history().IsFrozen());
  EXPECT_TRUE(c.OnReadySignal(0, 2).empty());
  auto fast = c.OnReadySignal(1, 2);
  ASSERT_EQ(fast.size(), 1u);
  EXPECT_EQ(fast[0].members, (std::vector<int>{0, 1}));
  EXPECT_FALSE(fast[0].bridged);

  EXPECT_TRUE(c.OnReadySignal(3, 1).empty());
  auto slow = c.OnReadySignal(2, 2);
  ASSERT_EQ(slow.size(), 1u);
  EXPECT_EQ(slow[0].members, (std::vector<int>{3, 2}));
  EXPECT_TRUE(slow[0].bridged);
  EXPECT_GT(c.stats().frozen_detections, 0u);
  EXPECT_EQ(registry.Snapshot().counter("controller.holds"), 0.0);
}

TEST(ControllerTest, HoldOnlyForAComponentOfPLiveWorkers) {
  // N=6, P=3 (window T=3), the queue {0,1,2} in a frozen window. Another
  // component of 2 workers cannot group by itself: no hold. One of 3 can:
  // hold until one of its workers signals.
  Controller small(BasicOptions(6, 3));
  small.Restore({{{0, 1, 2}, {3, 4}, {0, 1, 2}}, 1});
  ASSERT_TRUE(small.history().IsFrozen());
  auto formed = FeedRound(&small, {0, 1, 2}, 1);
  ASSERT_EQ(formed.size(), 1u);
  EXPECT_FALSE(formed[0].bridged);

  Controller large(BasicOptions(6, 3));
  large.Restore({{{0, 1, 2}, {3, 4, 5}, {0, 1, 2}}, 1});
  ASSERT_TRUE(large.history().IsFrozen());
  EXPECT_TRUE(FeedRound(&large, {0, 1, 2}, 1).empty());
  auto bridged = large.OnReadySignal(4, 1);
  ASSERT_EQ(bridged.size(), 1u);
  EXPECT_EQ(bridged[0].members, (std::vector<int>{0, 1, 4}));
  EXPECT_TRUE(bridged[0].bridged);
}

TEST(ControllerTest, RandomArrivalsProduceDoublyStochasticExpectation) {
  ControllerOptions opt = BasicOptions(6, 3);
  opt.record_sync_matrices = true;
  Controller c(opt);
  Rng rng(3);
  // Emulate the worker loop: a worker that signaled is queued until its
  // group forms; only running workers can signal.
  std::vector<int64_t> iter(6, 0);
  std::set<int> queued;
  for (int step = 0; step < 3000; ++step) {
    std::vector<int> running;
    for (int w = 0; w < 6; ++w) {
      if (queued.count(w) == 0) running.push_back(w);
    }
    ASSERT_FALSE(running.empty());
    const int w = running[rng.UniformInt(running.size())];
    auto decisions = c.OnReadySignal(w, ++iter[w]);
    queued.insert(w);
    for (const auto& d : decisions) {
      for (int m : d.members) queued.erase(m);
    }
  }
  SyncMatrix e = c.ExpectedSyncMatrix();
  EXPECT_LT(e.RowStochasticError(), 1e-9);
  EXPECT_LT(e.ColumnStochasticError(), 1e-9);
  const double rho = SpectralRho(e);
  EXPECT_GE(rho, 0.0);
  EXPECT_LT(rho, 1.0);
}

TEST(ControllerTest, DrainPendingEmptiesQueue) {
  Controller c(BasicOptions(4, 3));
  c.OnReadySignal(2, 7);
  c.OnReadySignal(0, 5);
  auto drained = c.DrainPending();
  ASSERT_EQ(drained.size(), 2u);
  EXPECT_EQ(drained[0].worker, 2);
  EXPECT_EQ(drained[0].iteration, 7);
  EXPECT_EQ(drained[1].worker, 0);
  EXPECT_EQ(c.PendingSignals(), 0u);
}

TEST(ControllerTest, GroupSizeEqualsNBehavesLikeAllReduce) {
  ControllerOptions opt = BasicOptions(3, 3);
  opt.record_sync_matrices = true;
  Controller c(opt);
  for (int round = 0; round < 5; ++round) {
    c.OnReadySignal(0, round);
    c.OnReadySignal(1, round);
    auto decisions = c.OnReadySignal(2, round);
    ASSERT_EQ(decisions.size(), 1u);
    EXPECT_EQ(decisions[0].members.size(), 3u);
  }
  // rho of the all-reduce matrix is 0.
  EXPECT_NEAR(SpectralRho(c.ExpectedSyncMatrix()), 0.0, 1e-10);
}

ControllerOptions HierOptions(int cross_period) {
  // 2 nodes x 2 workers, P=2: intra groups are node-complete pairs.
  ControllerOptions opt = BasicOptions(4, 2);
  Status s =
      Topology::FromNodes({{0, 1}, {2, 3}}, &opt.topology);
  EXPECT_TRUE(s.ok()) << s.message();
  opt.hierarchy.enabled = true;
  opt.hierarchy.cross_period = cross_period;
  return opt;
}

TEST(ControllerHierarchyTest, HoldsUntilNodeCompleteGroupArrives) {
  Controller c(HierOptions(/*cross_period=*/4));
  // Two signals from different nodes: enough for P=2 but not for a
  // node-complete group — the controller holds.
  EXPECT_TRUE(c.OnReadySignal(0, 1).empty());
  EXPECT_TRUE(c.OnReadySignal(2, 1).empty());
  EXPECT_EQ(c.PendingSignals(), 2u);
  // Worker 1 completes node 0.
  auto decisions = c.OnReadySignal(1, 1);
  ASSERT_EQ(decisions.size(), 1u);
  EXPECT_EQ(decisions[0].members, (std::vector<int>{0, 1}));
  EXPECT_EQ(c.stats().intra_node_groups, 1u);
  EXPECT_EQ(c.stats().cross_node_groups, 0u);
}

TEST(ControllerHierarchyTest, MergeGroupEveryCrossPeriod) {
  Controller c(HierOptions(/*cross_period=*/3));
  uint64_t rounds = 0;
  std::vector<GroupDecision> all;
  // Interleave nodes so cross merges always have both nodes queued.
  for (int round = 0; round < 6; ++round) {
    for (GroupDecision& d : FeedRound(&c, {0, 2, 1, 3}, round)) {
      all.push_back(std::move(d));
    }
    ++rounds;
  }
  ASSERT_GE(all.size(), 6u);
  const ControllerStats& stats = c.stats();
  EXPECT_EQ(stats.cross_node_groups + stats.intra_node_groups,
            stats.groups_formed);
  // Every third group is a merge spanning both nodes.
  EXPECT_GT(stats.cross_node_groups, 0u);
  EXPECT_GT(stats.intra_node_groups, stats.cross_node_groups);
  for (size_t i = 0; i < all.size(); ++i) {
    const int spanned = c.options().topology.NodesSpanned(all[i].members);
    if ((i + 1) % 3 == 0) {
      EXPECT_EQ(spanned, 2) << "group " << i;
    } else {
      EXPECT_EQ(spanned, 1) << "group " << i;
    }
  }
}

TEST(ControllerHierarchyTest, FallsBackToMergesWhenNoNodeCanFill) {
  Controller c(HierOptions(/*cross_period=*/100));
  // Worker 1 leaves: node 0 has one live worker, node 1 two. P=2 still
  // reachable on node 1 — but after worker 3 also leaves, no node can fill
  // and every group must become a merge.
  c.NotifyWorkerLeft(1);
  c.NotifyWorkerLeft(3);
  c.OnReadySignal(0, 1);
  auto decisions = c.OnReadySignal(2, 1);
  ASSERT_EQ(decisions.size(), 1u);
  EXPECT_EQ(decisions[0].members, (std::vector<int>{0, 2}));
  EXPECT_EQ(c.stats().cross_node_groups, 1u);
}

TEST(ControllerHierarchyTest, DueMergeWaitsForAnotherNode) {
  // Lockstep pair arrivals: the members of every formed group signal again
  // together, right after the reduce. A due merge whose queue holds one
  // node's pair must wait for the other node instead of forming inside its
  // own node, or the two nodes never exchange a group (group-frozen).
  Controller c(HierOptions(/*cross_period=*/2));
  std::deque<int> arrivals = {0, 1, 2, 3};
  std::vector<int64_t> iteration(4, 0);
  SyncGraph graph(4);
  size_t formed = 0;
  while (formed < 12) {
    ASSERT_FALSE(arrivals.empty()) << "controller deadlocked";
    const int w = arrivals.front();
    arrivals.pop_front();
    for (const GroupDecision& d :
         c.OnReadySignal(w, ++iteration[static_cast<size_t>(w)])) {
      graph.AddGroup(d.members);
      for (int m : d.members) arrivals.push_back(m);
      ++formed;
    }
  }
  EXPECT_GT(c.stats().cross_node_groups, 0u);
  EXPECT_TRUE(graph.IsConnected());
}

TEST(ControllerHierarchyTest, FlatTopologyIgnoresHierarchy) {
  ControllerOptions opt = BasicOptions(4, 2);
  opt.hierarchy.enabled = true;  // no topology: stays flat FIFO
  Controller c(opt);
  c.OnReadySignal(0, 1);
  auto decisions = c.OnReadySignal(2, 1);
  ASSERT_EQ(decisions.size(), 1u);
  EXPECT_EQ(decisions[0].members, (std::vector<int>{0, 2}));
  EXPECT_EQ(c.stats().cross_node_groups, 0u);
  EXPECT_EQ(c.stats().intra_node_groups, 0u);
}

TEST(ControllerHierarchyTest, TopoCountersMirrorStats) {
  MetricsRegistry registry;
  MetricsShard* shard = registry.NewShard();
  Controller c(HierOptions(/*cross_period=*/2));
  c.AttachObservers(shard, nullptr, [] { return 0.0; });
  for (int round = 0; round < 4; ++round) {
    FeedRound(&c, {0, 2, 1, 3}, round);
  }
  MetricsSnapshot snap = registry.Snapshot();
  EXPECT_EQ(snap.counter("topo.cross_node_groups"),
            static_cast<double>(c.stats().cross_node_groups));
  EXPECT_EQ(snap.counter("topo.intra_node_groups"),
            static_cast<double>(c.stats().intra_node_groups));
  EXPECT_GT(c.stats().cross_node_groups, 0u);
  EXPECT_GT(c.stats().intra_node_groups, 0u);
}

}  // namespace
}  // namespace pr
