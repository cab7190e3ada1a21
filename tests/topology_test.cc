#include <gtest/gtest.h>

#include <fstream>

#include "topo/topology.h"

namespace pr {
namespace {

Topology TwoByTwo() {
  Topology topo;
  Status s = Topology::FromNodes({{0, 1}, {2, 3}}, &topo);
  EXPECT_TRUE(s.ok()) << s.message();
  return topo;
}

TEST(TopologyTest, DefaultIsFlat) {
  Topology topo;
  EXPECT_TRUE(topo.flat());
  EXPECT_EQ(topo.num_nodes(), 1);
  EXPECT_EQ(topo.num_workers(), 0);
  EXPECT_EQ(topo.NodeOf(0), 0);
  EXPECT_EQ(topo.NodeOf(17), 0);
  EXPECT_DOUBLE_EQ(topo.LinkCost(0, 17), 1.0);
  EXPECT_DOUBLE_EQ(topo.LinkLatencyFactor(3, 9), 1.0);
}

TEST(TopologyTest, UniformPlacesConsecutiveBlocks) {
  Topology topo = Topology::Uniform(4, 8);
  EXPECT_FALSE(topo.flat());
  EXPECT_EQ(topo.num_nodes(), 4);
  EXPECT_EQ(topo.num_workers(), 32);
  EXPECT_EQ(topo.NodeOf(0), 0);
  EXPECT_EQ(topo.NodeOf(7), 0);
  EXPECT_EQ(topo.NodeOf(8), 1);
  EXPECT_EQ(topo.NodeOf(31), 3);
  EXPECT_TRUE(topo.SameNode(8, 15));
  EXPECT_FALSE(topo.SameNode(7, 8));
}

TEST(TopologyTest, ControllerEndpointMapsToNodeZero) {
  // The threaded engine addresses the controller as id num_workers; the
  // out-of-range convention pins it to node 0.
  Topology topo = Topology::Uniform(2, 2);
  EXPECT_EQ(topo.NodeOf(4), 0);
  EXPECT_EQ(topo.NodeOf(-1), 0);
}

TEST(TopologyTest, LinkCostsAreTwoTier) {
  Topology topo = TwoByTwo();
  EXPECT_DOUBLE_EQ(topo.LinkCost(0, 1), 1.0);
  EXPECT_DOUBLE_EQ(topo.LinkCost(1, 2), 4.0);
  EXPECT_DOUBLE_EQ(topo.LinkLatencyFactor(1, 2), 4.0);
  topo.set_inter_cost(9.0);
  topo.set_inter_latency_factor(2.5);
  EXPECT_DOUBLE_EQ(topo.LinkCost(0, 3), 9.0);
  EXPECT_DOUBLE_EQ(topo.LinkLatencyFactor(0, 3), 2.5);
}

TEST(TopologyTest, RingCostCountsWraparound) {
  Topology topo = TwoByTwo();
  // Ring 0-1-2-3-0: edges (0,1)=1, (1,2)=4, (2,3)=1, (3,0)=4.
  EXPECT_DOUBLE_EQ(topo.RingCost({0, 1, 2, 3}), 10.0);
  // Intra-node ring: all edges 1.
  EXPECT_DOUBLE_EQ(topo.RingCost({0, 1}), 2.0);
  EXPECT_DOUBLE_EQ(topo.NodesSpanned({0, 1}), 1);
  EXPECT_DOUBLE_EQ(topo.NodesSpanned({0, 2}), 2);
}

TEST(TopologyTest, FromNodesRejectsEmptyNode) {
  Topology topo;
  Status s = Topology::FromNodes({{0, 1}, {}}, &topo);
  EXPECT_FALSE(s.ok());
  EXPECT_NE(s.message().find("empty"), std::string::npos) << s.message();
}

TEST(TopologyTest, FromNodesRejectsDuplicateWorker) {
  Topology topo;
  Status s = Topology::FromNodes({{0, 1}, {1, 2}}, &topo);
  EXPECT_FALSE(s.ok());
  EXPECT_NE(s.message().find("two nodes"), std::string::npos) << s.message();
}

TEST(TopologyTest, FromNodesRejectsNonContiguousIds) {
  Topology topo;
  Status s = Topology::FromNodes({{0, 1}, {3}}, &topo);
  EXPECT_FALSE(s.ok());
}

TEST(TopologyTest, FromNodesRejectsNegativeId) {
  Topology topo;
  Status s = Topology::FromNodes({{0, -1}}, &topo);
  EXPECT_FALSE(s.ok());
}

TEST(TopologyTest, TextRoundTripIsExact) {
  Topology topo = Topology::Uniform(3, 2);
  topo.set_inter_cost(6.5);
  topo.set_inter_latency_factor(3.25);
  const std::string text = topo.Serialize();
  Topology back;
  Status s = Topology::Parse(text, &back);
  ASSERT_TRUE(s.ok()) << s.message();
  EXPECT_EQ(back.Serialize(), text);
  EXPECT_EQ(back.nodes(), topo.nodes());
  EXPECT_DOUBLE_EQ(back.inter_cost(), 6.5);
  EXPECT_DOUBLE_EQ(back.inter_latency_factor(), 3.25);
}

TEST(TopologyTest, JsonRoundTripIsExact) {
  Topology topo = Topology::Uniform(2, 3);
  topo.set_inter_cost(2.0);
  const std::string json = topo.ToJson();
  Topology back;
  Status s = Topology::FromJson(json, &back);
  ASSERT_TRUE(s.ok()) << s.message();
  EXPECT_EQ(back.Serialize(), topo.Serialize());
}

TEST(TopologyTest, ParseRejectsMissingHeader) {
  Topology topo;
  EXPECT_FALSE(Topology::Parse("node 0 1\n", &topo).ok());
}

TEST(TopologyTest, ParseRejectsUnknownKey) {
  Topology topo;
  Status s = Topology::Parse("prtopo 1\nnode 0 1\nwat 3\n", &topo);
  EXPECT_FALSE(s.ok());
}

TEST(TopologyTest, ParseRejectsMalformedPlacement) {
  Topology topo;
  // Worker 1 mapped to two nodes.
  EXPECT_FALSE(
      Topology::Parse("prtopo 1\nnode 0 1\nnode 1 2\n", &topo).ok());
  // Empty node line.
  EXPECT_FALSE(Topology::Parse("prtopo 1\nnode\nnode 0 1\n", &topo).ok());
}

TEST(TopologyTest, ParseRejectsNonPositiveCosts) {
  Topology topo;
  EXPECT_FALSE(
      Topology::Parse("prtopo 1\ninter_cost 0\nnode 0 1\n", &topo).ok());
  EXPECT_FALSE(
      Topology::Parse("prtopo 1\ninter_latency_factor -2\nnode 0\nnode 1\n",
                      &topo)
          .ok());
  // A cost followed by junk is malformed, not a cost.
  EXPECT_FALSE(
      Topology::Parse("prtopo 1\ninter_cost 2 junk\nnode 0 1\n", &topo).ok());
}

TEST(TopologyTest, ParseAcceptsCommentsAndBlankLines) {
  Topology topo;
  Status s = Topology::Parse(
      "prtopo 1\n# racks A and B\n\nnode 0 1\nnode 2 3\ninter_cost 8\n",
      &topo);
  ASSERT_TRUE(s.ok()) << s.message();
  EXPECT_EQ(topo.num_nodes(), 2);
  EXPECT_DOUBLE_EQ(topo.inter_cost(), 8.0);
}

TEST(TopologyTest, LoadSniffsJsonByLeadingBrace) {
  const std::string dir = ::testing::TempDir();
  const std::string text_path = dir + "/topo.txt";
  const std::string json_path = dir + "/topo.json";
  Topology topo = Topology::Uniform(2, 2);
  {
    std::ofstream out(text_path);
    out << topo.Serialize();
  }
  {
    std::ofstream out(json_path);
    out << topo.ToJson();
  }
  Topology from_text, from_json;
  ASSERT_TRUE(Topology::Load(text_path, &from_text).ok());
  ASSERT_TRUE(Topology::Load(json_path, &from_json).ok());
  EXPECT_EQ(from_text.Serialize(), topo.Serialize());
  EXPECT_EQ(from_json.Serialize(), topo.Serialize());
}

TEST(TopologyTest, FromJsonRejectsNonIntegralWorkerIds) {
  Topology topo;
  // 2.7 is not worker 2, and 1e10 fits no int.
  EXPECT_FALSE(Topology::FromJson(
                   R"({"prtopo": 1, "nodes": [[0, 1], [2.7]]})", &topo)
                   .ok());
  EXPECT_FALSE(Topology::FromJson(
                   R"({"prtopo": 1, "nodes": [[0, 1], [1e10]]})", &topo)
                   .ok());
  ASSERT_TRUE(Topology::FromJson(
                  R"({"prtopo": 1, "nodes": [[0, 1], [2.0]]})", &topo)
                  .ok());
  EXPECT_EQ(topo.NodeOf(2), 1);
}

TEST(TopologyTest, FromJsonRejectsUnknownMember) {
  Topology topo;
  EXPECT_FALSE(
      Topology::FromJson("{\"prtopo\": 1, \"nodes\": [[0,1]], \"x\": 2}",
                         &topo)
          .ok());
}

}  // namespace
}  // namespace pr
