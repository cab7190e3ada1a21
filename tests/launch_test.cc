#include "launch/launcher.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "ckpt/manifest.h"
#include "launch/config_io.h"
#include "launch/report_io.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "runtime/threaded_runtime.h"
#include "topo/topology.h"

namespace pr {
namespace {

struct TempDir {
  explicit TempDir(const char* tag) {
    std::string tmpl = std::string("/tmp/prlaunch_") + tag + "XXXXXX";
    path = ::mkdtemp(tmpl.data());
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
  std::string path;
};

// A config with every field off its default, so a round-trip that silently
// drops a key cannot pass.
RunConfig FancyConfig() {
  RunConfig config;
  config.strategy.kind = StrategyKind::kPReduceDynamic;
  config.strategy.group_size = 4;
  config.strategy.backup_workers = 2;
  config.strategy.er_quorum = 5;
  config.strategy.frozen_avoidance = false;
  config.strategy.history_window = 3;
  config.strategy.record_sync_matrices = true;
  config.strategy.average_momentum = true;
  config.strategy.compression = CompressionKind::kInt8;
  config.strategy.dynamic.alpha = 0.625;
  config.strategy.dynamic.staleness_tolerance = 2;
  config.strategy.dynamic.missing_slot_policy = MissingSlotPolicy::kRenormalize;
  config.strategy.hierarchy.enabled = true;
  config.strategy.hierarchy.cross_period = 6;
  config.strategy.group_cost_budget = 12.5;
  ScalePolicyConfig& policy = config.strategy.scale_policy;
  policy.kind = ScalePolicyKind::kTrend;
  policy.interval_seconds = 0.375;
  policy.idle_high = 0.625;
  policy.idle_low = 0.125;
  policy.min_workers = 3;
  policy.max_workers = 6;
  policy.trend_window = 5;
  policy.min_group_size = 2;
  policy.liveness_floor = 3;
  policy.partition_ckpt_seconds = 1.5;
  config.run.num_workers = 7;
  config.run.iterations_per_worker = 123;
  config.run.batch_size = 48;
  config.run.seed = 99;
  config.run.record_timeline = true;
  config.run.trace_capacity = 256;
  config.run.sgd.learning_rate = 0.037;
  config.run.sgd.momentum = 0.81;
  config.run.sgd.weight_decay = 3.3e-5;
  config.run.model.kind = ProxyModelSpec::Kind::kConvNet;
  config.run.model.hidden = {24, 12};
  config.run.model.conv_filters = 6;
  config.run.dataset.num_train = 4096;
  config.run.dataset.num_test = 512;
  config.run.dataset.dim = 36;
  config.run.dataset.num_classes = 5;
  config.run.dataset.modes_per_class = 2;
  config.run.dataset.separation = 1.75;
  config.run.dataset.noise = 0.9;
  config.run.dataset.label_noise = 0.05;
  config.run.dataset.dirichlet_alpha = 0.3;
  config.run.dataset.seed = 1234;
  config.run.worker_delay_seconds = {0.001, 0.002, 0.0, 0.004, 0.0, 0.0, 0.1};
  config.run.ckpt.dir = "/tmp/some ckpt dir";
  config.run.ckpt.every_iterations = 16;
  // Ragged placement: 7 workers over 3 nodes, plus off-default link costs.
  EXPECT_TRUE(
      Topology::FromNodes({{0, 1, 2}, {3, 4}, {5, 6}}, &config.run.topology)
          .ok());
  config.run.topology.set_inter_cost(5.5);
  config.run.topology.set_inter_latency_factor(2.25);
  FaultPlan& fault = config.run.fault;
  fault.seed = 17;
  fault.force_fault_tolerant = true;
  fault.default_edge = {0.01, 0.02, 0.03, 0.004};
  fault.edges[{1, 2}] = {0.5, 0.0, 0.25, 0.125};
  fault.link_delay_seconds[{0, 3}] = 0.015;
  fault.link_delay_seconds[{3, 0}] = 0.02;
  WorkerFaultEvent crash;
  crash.worker = 3;
  crash.kind = WorkerFaultEvent::Kind::kCrash;
  crash.after_iterations = 5;
  crash.in_group = true;
  fault.worker_events.push_back(crash);
  WorkerFaultEvent slow;
  slow.worker = 1;
  slow.kind = WorkerFaultEvent::Kind::kSlowdown;
  slow.after_iterations = 2;
  slow.slowdown_factor = 3.5;
  slow.slowdown_iterations = 4;
  fault.worker_events.push_back(slow);
  fault.controller_events.push_back({/*after_groups=*/3, 0.4, false});
  fault.lease_seconds = 0.375;
  fault.missed_threshold = 3;
  fault.recv_timeout_seconds = 0.0625;
  fault.max_controller_outage_seconds = 7.5;
  fault.stuck_report_ticks = 5;
  fault.resend_ready_ticks = 6;
  fault.stuck_abort_reports = 3;
  fault.max_verdict_wait_seconds = 2.5;
  fault.max_reduce_stall_seconds = 1.25;
  fault.reregister_backoff_seconds = 0.03125;
  fault.reregister_backoff_max_seconds = 0.5;
  fault.reregister_window_seconds = 0.75;
  fault.reregister_report_groups = 11;
  ScenarioSpec& scenario = config.run.scenario;
  scenario.name = "fancy-trace";
  scenario.seed = 23;
  scenario.expected_iteration_seconds = 0.02;
  ScenarioEvent slowdown;
  slowdown.kind = ScenarioEventKind::kSlowdown;
  slowdown.time = 0.25;
  slowdown.worker = 1;
  slowdown.duration = 0.5;
  slowdown.factor = 2.5;
  scenario.events.push_back(slowdown);
  ScenarioEvent rack;
  rack.kind = ScenarioEventKind::kDepart;
  rack.time = 0.5;
  rack.node = 2;
  rack.duration = 0.125;
  scenario.events.push_back(rack);
  return config;
}

TEST(ConfigIoTest, RoundTripIsExact) {
  const RunConfig config = FancyConfig();
  const std::string text = SerializeRunConfig(config);
  RunConfig parsed;
  ASSERT_TRUE(ParseRunConfig(text, &parsed).ok());
  // Re-serialization equality covers every field at full precision: a field
  // that failed to round-trip would print differently the second time.
  EXPECT_EQ(SerializeRunConfig(parsed), text);
  // Spot checks on the trickier conversions.
  EXPECT_EQ(parsed.strategy.kind, StrategyKind::kPReduceDynamic);
  EXPECT_EQ(parsed.strategy.dynamic.missing_slot_policy,
            MissingSlotPolicy::kRenormalize);
  EXPECT_EQ(parsed.strategy.compression, CompressionKind::kInt8);
  EXPECT_EQ(parsed.run.model.hidden, (std::vector<size_t>{24, 12}));
  EXPECT_EQ(parsed.run.ckpt.dir, "/tmp/some ckpt dir");
  EXPECT_DOUBLE_EQ(parsed.run.sgd.weight_decay, 3.3e-5);
  ASSERT_EQ(parsed.run.fault.worker_events.size(), 2u);
  EXPECT_EQ(parsed.run.fault.worker_events[1].kind,
            WorkerFaultEvent::Kind::kSlowdown);
  EXPECT_TRUE(parsed.run.fault.force_fault_tolerant);
  ASSERT_EQ(parsed.run.fault.controller_events.size(), 1u);
  EXPECT_FALSE(parsed.run.fault.controller_events[0].restart);
  const auto edge = parsed.run.fault.edges.find({1, 2});
  ASSERT_NE(edge, parsed.run.fault.edges.end());
  EXPECT_DOUBLE_EQ(edge->second.delay_seconds, 0.125);
  EXPECT_TRUE(parsed.strategy.hierarchy.enabled);
  EXPECT_EQ(parsed.strategy.hierarchy.cross_period, 6);
  EXPECT_DOUBLE_EQ(parsed.strategy.group_cost_budget, 12.5);
  ASSERT_EQ(parsed.run.topology.num_nodes(), 3u);
  EXPECT_EQ(parsed.run.topology.NodeOf(4), 1);
  EXPECT_DOUBLE_EQ(parsed.run.topology.inter_cost(), 5.5);
  EXPECT_DOUBLE_EQ(parsed.run.topology.inter_latency_factor(), 2.25);
  const auto delay = parsed.run.fault.link_delay_seconds.find({3, 0});
  ASSERT_NE(delay, parsed.run.fault.link_delay_seconds.end());
  EXPECT_DOUBLE_EQ(delay->second, 0.02);
}

// Every key line of the default serialization must read differently in
// FancyConfig's, so a writer or reader that dropped any key (or wrote its
// default) fails the round trip above.
TEST(ConfigIoTest, FancyConfigMovesEveryDefaultKey) {
  const std::string fancy = "\n" + SerializeRunConfig(FancyConfig());
  std::istringstream defaults(SerializeRunConfig(RunConfig{}));
  std::string line;
  std::getline(defaults, line);  // the header
  int keys = 0;
  while (std::getline(defaults, line)) {
    ++keys;
    const std::string key = line.substr(0, line.find(' '));
    EXPECT_NE(fancy.find("\n" + key + " "), std::string::npos)
        << "FancyConfig lacks " << key;
    EXPECT_EQ(fancy.find("\n" + line + "\n"), std::string::npos)
        << "FancyConfig leaves " << key << " at its default";
  }
  EXPECT_EQ(keys, 67);
}

// The text and JSON forms of FancyConfig, byte for byte. A writer change
// that alters either one breaks every config already on disk.
constexpr char kFancyText[] = R"(prconfig 1
strategy.kind DYN
strategy.group_size 4
strategy.backup_workers 2
strategy.er_quorum 5
strategy.frozen_avoidance 0
strategy.history_window 3
strategy.record_sync_matrices 1
strategy.average_momentum 1
strategy.compression int8
strategy.dynamic.alpha 0.625
strategy.dynamic.staleness_tolerance 2
strategy.dynamic.missing_slot renormalize
strategy.hierarchy.enabled 1
strategy.hierarchy.cross_period 6
strategy.group_cost_budget 12.5
strategy.scale_policy.kind trend
strategy.scale_policy.interval_seconds 0.375
strategy.scale_policy.idle_high 0.625
strategy.scale_policy.idle_low 0.125
strategy.scale_policy.min_workers 3
strategy.scale_policy.max_workers 6
strategy.scale_policy.trend_window 5
strategy.scale_policy.min_group_size 2
strategy.scale_policy.liveness_floor 3
strategy.scale_policy.partition_ckpt_seconds 1.5
run.num_workers 7
run.iterations_per_worker 123
run.batch_size 48
run.seed 99
run.record_timeline 1
run.trace_capacity 256
run.sgd.learning_rate 0.036999999999999998
run.sgd.momentum 0.81000000000000005
run.sgd.weight_decay 3.3000000000000003e-05
run.model.kind conv
run.model.hidden 24
run.model.hidden 12
run.model.conv_filters 6
run.dataset.num_train 4096
run.dataset.num_test 512
run.dataset.dim 36
run.dataset.num_classes 5
run.dataset.modes_per_class 2
run.dataset.separation 1.75
run.dataset.noise 0.90000000000000002
run.dataset.label_noise 0.050000000000000003
run.dataset.dirichlet_alpha 0.29999999999999999
run.dataset.seed 1234
run.delay 0.001
run.delay 0.002
run.delay 0
run.delay 0.0040000000000000001
run.delay 0
run.delay 0
run.delay 0.10000000000000001
run.ckpt.dir /tmp/some ckpt dir
run.ckpt.every_iterations 16
topology.inter_cost 5.5
topology.inter_latency_factor 2.25
topology.node 0 1 2
topology.node 3 4
topology.node 5 6
fault.seed 17
fault.force_fault_tolerant 1
fault.default_edge 0.01 0.02 0.029999999999999999 0.0040000000000000001
fault.edge 1 2 0.5 0 0.25 0.125
fault.link_delay 0 3 0.014999999999999999
fault.link_delay 3 0 0.02
fault.worker_event 3 crash 5 1 0 1 0
fault.worker_event 1 slowdown 2 0 0 3.5 4
fault.controller_event 3 0.40000000000000002 0
fault.lease_seconds 0.375
fault.missed_threshold 3
fault.recv_timeout_seconds 0.0625
fault.stuck_report_ticks 5
fault.resend_ready_ticks 6
fault.stuck_abort_reports 3
fault.max_verdict_wait_seconds 2.5
fault.max_reduce_stall_seconds 1.25
fault.reregister_backoff_seconds 0.03125
fault.reregister_backoff_max_seconds 0.5
fault.reregister_window_seconds 0.75
fault.max_controller_outage_seconds 7.5
fault.reregister_report_groups 11
scenario.name fancy-trace
scenario.seed 23
scenario.expected_iteration_seconds 0.02
scenario.event slowdown 0.25 1 -1 0.5 2.5
scenario.event depart 0.5 -1 2 0.125 1
)";

constexpr char kFancyJson[] =
    R"({"prconfig":1,"strategy.kind":"DYN","strategy.group_size":4)"
    R"(,"strategy.backup_workers":2,"strategy.er_quorum":5)"
    R"(,"strategy.frozen_avoidance":0,"strategy.history_window":3)"
    R"(,"strategy.record_sync_matrices":1,"strategy.average_momentum":1)"
    R"(,"strategy.compression":"int8","strategy.dynamic.alpha":0.625)"
    R"(,"strategy.dynamic.staleness_tolerance":2)"
    R"(,"strategy.dynamic.missing_slot":"renormalize")"
    R"(,"strategy.hierarchy.enabled":1,"strategy.hierarchy.cross_period":6)"
    R"(,"strategy.group_cost_budget":12.5)"
    R"(,"strategy.scale_policy.kind":"trend")"
    R"(,"strategy.scale_policy.interval_seconds":0.375)"
    R"(,"strategy.scale_policy.idle_high":0.625)"
    R"(,"strategy.scale_policy.idle_low":0.125)"
    R"(,"strategy.scale_policy.min_workers":3)"
    R"(,"strategy.scale_policy.max_workers":6)"
    R"(,"strategy.scale_policy.trend_window":5)"
    R"(,"strategy.scale_policy.min_group_size":2)"
    R"(,"strategy.scale_policy.liveness_floor":3)"
    R"(,"strategy.scale_policy.partition_ckpt_seconds":1.5)"
    R"(,"run.num_workers":7,"run.iterations_per_worker":123)"
    R"(,"run.batch_size":48,"run.seed":99,"run.record_timeline":1)"
    R"(,"run.trace_capacity":256,"run.sgd.learning_rate":0.037)"
    R"(,"run.sgd.momentum":0.81,"run.sgd.weight_decay":3.3e-05)"
    R"(,"run.model.kind":"conv","run.model.hidden":[[24],[12]])"
    R"(,"run.model.conv_filters":6,"run.dataset.num_train":4096)"
    R"(,"run.dataset.num_test":512,"run.dataset.dim":36)"
    R"(,"run.dataset.num_classes":5,"run.dataset.modes_per_class":2)"
    R"(,"run.dataset.separation":1.75,"run.dataset.noise":0.9)"
    R"(,"run.dataset.label_noise":0.05,"run.dataset.dirichlet_alpha":0.3)"
    R"(,"run.dataset.seed":1234)"
    R"(,"run.delay":[[0.001],[0.002],[0],[0.004],[0],[0],[0.1]])"
    R"(,"run.ckpt.dir":"/tmp/some ckpt dir")"
    R"(,"run.ckpt.every_iterations":16)"
    R"(,"topology.inter_cost":5.5,"topology.inter_latency_factor":2.25)"
    R"(,"topology.node":[[0,1,2],[3,4],[5,6]],"fault.seed":17)"
    R"(,"fault.force_fault_tolerant":1)"
    R"(,"fault.default_edge":[0.01,0.02,0.03,0.004])"
    R"(,"fault.edge":[[1,2,0.5,0,0.25,0.125]])"
    R"(,"fault.link_delay":[[0,3,0.015],[3,0,0.02]],"fault.worker_event":[[3)"
    R"(,"crash",5,1,0,1,0],[1,"slowdown",2,0,0,3.5,4]])"
    R"(,"fault.controller_event":[[3,0.4,0]],"fault.lease_seconds":0.375)"
    R"(,"fault.missed_threshold":3,"fault.recv_timeout_seconds":0.0625)"
    R"(,"fault.stuck_report_ticks":5,"fault.resend_ready_ticks":6)"
    R"(,"fault.stuck_abort_reports":3,"fault.max_verdict_wait_seconds":2.5)"
    R"(,"fault.max_reduce_stall_seconds":1.25)"
    R"(,"fault.reregister_backoff_seconds":0.03125)"
    R"(,"fault.reregister_backoff_max_seconds":0.5)"
    R"(,"fault.reregister_window_seconds":0.75)"
    R"(,"fault.max_controller_outage_seconds":7.5)"
    R"(,"fault.reregister_report_groups":11,"scenario.name":"fancy-trace")"
    R"(,"scenario.seed":23,"scenario.expected_iteration_seconds":0.02)"
    R"(,"scenario.event":[["slowdown",0.25,1,-1,0.5,2.5],["depart",0.5,-1,2,0.125,1]]})";

TEST(ConfigIoTest, FancyConfigMatchesGoldenText) {
  EXPECT_EQ(SerializeRunConfig(FancyConfig()), kFancyText);
}

TEST(ConfigJsonTest, FancyConfigMatchesGoldenJson) {
  EXPECT_EQ(RunConfigToJson(FancyConfig()), kFancyJson);
  RunConfig parsed;
  ASSERT_TRUE(RunConfigFromJson(kFancyJson, &parsed).ok());
  EXPECT_EQ(SerializeRunConfig(parsed), kFancyText);
}

TEST(ConfigIoTest, RejectsMalformedTopologyAndFaultLines) {
  RunConfig parsed;
  // A worker mapped to two nodes, an empty node, non-contiguous ids.
  EXPECT_FALSE(ParseRunConfig(
                   "prconfig 1\ntopology.node 0 1\ntopology.node 1 2\n", &parsed)
                   .ok());
  EXPECT_FALSE(
      ParseRunConfig("prconfig 1\ntopology.node 0 1\ntopology.node\n", &parsed)
          .ok());
  EXPECT_FALSE(
      ParseRunConfig("prconfig 1\ntopology.node 0 2\n", &parsed).ok());
  // Link-cost knobs must be positive, placements integral.
  EXPECT_FALSE(
      ParseRunConfig("prconfig 1\ntopology.inter_cost 0\n", &parsed).ok());
  EXPECT_FALSE(
      ParseRunConfig("prconfig 1\ntopology.inter_latency_factor -1\n", &parsed)
          .ok());
  EXPECT_FALSE(
      ParseRunConfig("prconfig 1\ntopology.node 0 banana\n", &parsed).ok());
  // fault.link_delay needs from, to and a non-negative delay.
  EXPECT_FALSE(
      ParseRunConfig("prconfig 1\nfault.link_delay 0 1\n", &parsed).ok());
  EXPECT_FALSE(
      ParseRunConfig("prconfig 1\nfault.link_delay 0 1 -0.5\n", &parsed).ok());
  EXPECT_TRUE(
      ParseRunConfig("prconfig 1\nfault.link_delay 0 1 0.25\n", &parsed).ok());
  EXPECT_DOUBLE_EQ(parsed.run.fault.LinkDelay(0, 1), 0.25);
}

TEST(ConfigIoTest, RejectsMalformedScenarioAndPolicyLines) {
  RunConfig parsed;
  // Unknown event kind, negative time, negative duration, missing fields —
  // malformed traces are version skew or corruption, never skipped.
  EXPECT_FALSE(ParseRunConfig(
                   "prconfig 1\nscenario.event explode 1 0 -1 0 1\n", &parsed)
                   .ok());
  EXPECT_FALSE(ParseRunConfig(
                   "prconfig 1\nscenario.event depart -1 0 -1 0 1\n", &parsed)
                   .ok());
  EXPECT_FALSE(ParseRunConfig(
                   "prconfig 1\nscenario.event depart 1 0 -1 -2 1\n", &parsed)
                   .ok());
  EXPECT_FALSE(
      ParseRunConfig("prconfig 1\nscenario.event depart 1 0\n", &parsed).ok());
  EXPECT_FALSE(ParseRunConfig(
                   "prconfig 1\nscenario.expected_iteration_seconds 0\n",
                   &parsed)
                   .ok());
  EXPECT_FALSE(ParseRunConfig(
                   "prconfig 1\nstrategy.scale_policy.kind banana\n", &parsed)
                   .ok());
  // A well-formed event line parses into the scenario.
  ASSERT_TRUE(ParseRunConfig(
                  "prconfig 1\nscenario.event depart 0.5 2 -1 0.25 1\n",
                  &parsed)
                  .ok());
  ASSERT_EQ(parsed.run.scenario.events.size(), 1u);
  EXPECT_EQ(parsed.run.scenario.events[0].kind, ScenarioEventKind::kDepart);
  EXPECT_DOUBLE_EQ(parsed.run.scenario.events[0].time, 0.5);
  // The JSON dialect hits the same validation.
  EXPECT_FALSE(
      RunConfigFromJson("{\"prconfig\": 1, \"scenario.event\": "
                        "[[\"explode\", 1, 0, -1, 0, 1]]}",
                        &parsed)
          .ok());
  EXPECT_FALSE(
      RunConfigFromJson(
          "{\"prconfig\": 1, \"strategy.scale_policy.kind\": \"banana\"}",
          &parsed)
          .ok());
  EXPECT_TRUE(
      RunConfigFromJson("{\"prconfig\": 1, \"scenario.event\": "
                        "[[\"crash\", 1.5, 3, -1, 0, 1]]}",
                        &parsed)
          .ok());
  ASSERT_EQ(parsed.run.scenario.events.size(), 1u);
  EXPECT_EQ(parsed.run.scenario.events[0].kind, ScenarioEventKind::kCrash);
}

// A trace name is one token in prconfig as in prtrace: a spaced name fails
// where it is read, not when the run compiles its scenario.
TEST(ConfigIoTest, ScenarioNameIsOneToken) {
  RunConfig parsed;
  EXPECT_FALSE(
      ParseRunConfig("prconfig 1\nscenario.name rack outage\n", &parsed).ok());
  EXPECT_FALSE(RunConfigFromJson(
                   R"({"prconfig": 1, "scenario.name": "rack outage"})",
                   &parsed)
                   .ok());
  EXPECT_FALSE(
      RunConfigFromJson(R"({"prconfig": 1, "scenario.name": 7})", &parsed)
          .ok());
  ASSERT_TRUE(
      ParseRunConfig("prconfig 1\nscenario.name rack-outage.v2\n", &parsed)
          .ok());
  EXPECT_EQ(parsed.run.scenario.name, "rack-outage.v2");
}

TEST(ConfigIoTest, DefaultConfigRoundTrips) {
  const RunConfig config;
  const std::string text = SerializeRunConfig(config);
  RunConfig parsed;
  ASSERT_TRUE(ParseRunConfig(text, &parsed).ok());
  EXPECT_EQ(SerializeRunConfig(parsed), text);
}

TEST(ConfigIoTest, RejectsGarbage) {
  RunConfig parsed;
  EXPECT_FALSE(ParseRunConfig("", &parsed).ok());
  EXPECT_FALSE(ParseRunConfig("not a config\n", &parsed).ok());
  EXPECT_FALSE(ParseRunConfig("prconfig 2\n", &parsed).ok());
  // Unknown keys are version skew, not noise to skip.
  EXPECT_FALSE(
      ParseRunConfig("prconfig 1\nstrategy.does_not_exist 3\n", &parsed).ok());
  EXPECT_FALSE(
      ParseRunConfig("prconfig 1\nrun.num_workers banana\n", &parsed).ok());
  // A value followed by junk is malformed, not a value.
  EXPECT_FALSE(
      ParseRunConfig("prconfig 1\nrun.num_workers 5 junk\n", &parsed).ok());
  EXPECT_FALSE(ParseRunConfig("prconfig 1\nstrategy.kind\n", &parsed).ok());
  // An unknown compression token names no codec — version skew, rejected.
  EXPECT_FALSE(
      ParseRunConfig("prconfig 1\nstrategy.compression gzip\n", &parsed).ok());
  // A valid header plus valid lines still parses.
  EXPECT_TRUE(
      ParseRunConfig("prconfig 1\n# comment\nrun.num_workers 5\n", &parsed)
          .ok());
  EXPECT_EQ(parsed.run.num_workers, 5);
}

TEST(ConfigIoTest, SaveLoadFile) {
  TempDir dir("cfg");
  const std::string path = dir.path + "/run.conf";
  const RunConfig config = FancyConfig();
  ASSERT_TRUE(SaveRunConfig(path, config).ok());
  RunConfig loaded;
  ASSERT_TRUE(LoadRunConfig(path, &loaded).ok());
  EXPECT_EQ(SerializeRunConfig(loaded), SerializeRunConfig(config));
  EXPECT_FALSE(LoadRunConfig(dir.path + "/missing.conf", &loaded).ok());
}

TEST(ConfigJsonTest, FancyConfigRoundTripsThroughJson) {
  const RunConfig config = FancyConfig();
  const std::string json = RunConfigToJson(config);
  RunConfig parsed;
  ASSERT_TRUE(RunConfigFromJson(json, &parsed).ok());
  // Text-serialization equality covers every field at full precision.
  EXPECT_EQ(SerializeRunConfig(parsed), SerializeRunConfig(config));
  // The JSON dialect is a real JSON document with the dialect marker.
  JsonValue doc;
  ASSERT_TRUE(ParseJson(json, &doc).ok());
  ASSERT_TRUE(doc.is_object());
  ASSERT_NE(doc.Find("prconfig"), nullptr);
  EXPECT_DOUBLE_EQ(doc.Find("prconfig")->number_value(), 1.0);
  EXPECT_NE(doc.Find("strategy.kind"), nullptr);
}

// Fuzz-style: many randomized configs, each pushed text -> struct -> JSON ->
// struct, asserting the final struct serializes identically to the original.
TEST(ConfigJsonTest, RandomConfigsRoundTripThroughJson) {
  std::mt19937_64 rng(20260807);
  auto coin = [&] { return rng() % 2 == 0; };
  for (int trial = 0; trial < 60; ++trial) {
    RunConfig config;
    config.strategy.kind =
        static_cast<StrategyKind>(rng() % 9);  // all nine kinds
    config.strategy.group_size = 2 + static_cast<int>(rng() % 6);
    config.strategy.er_quorum = static_cast<int>(rng() % 5);
    config.strategy.backup_workers = static_cast<int>(rng() % 4);
    config.strategy.frozen_avoidance = coin();
    config.strategy.history_window = rng() % 8;
    config.strategy.average_momentum = coin();
    config.strategy.dynamic.alpha =
        static_cast<double>(rng() % 1000) / 1000.0;
    config.strategy.dynamic.staleness_tolerance =
        static_cast<int64_t>(rng() % 5);
    config.strategy.compression = static_cast<CompressionKind>(
        rng() % kNumCompressionKinds);  // all four codec tokens
    if (coin()) {
      config.strategy.hierarchy.enabled = true;
      config.strategy.hierarchy.cross_period = 1 + static_cast<int>(rng() % 8);
    }
    if (coin()) {
      config.strategy.group_cost_budget =
          static_cast<double>(1 + rng() % 64) / 2.0;
    }
    config.run.num_workers = 2 + static_cast<int>(rng() % 14);
    config.run.iterations_per_worker = 1 + rng() % 500;
    config.run.batch_size = 1 + rng() % 128;
    // Keep integer-valued fields inside double precision (< 2^53): JSON
    // numbers are doubles.
    config.run.seed = rng() % (uint64_t{1} << 50);
    config.run.dataset.seed = rng() % (uint64_t{1} << 50);
    config.run.sgd.learning_rate =
        std::ldexp(static_cast<double>(rng() % 4096 + 1), -14);
    config.run.sgd.momentum = static_cast<double>(rng() % 100) / 101.0;
    config.run.sgd.weight_decay =
        std::ldexp(static_cast<double>(rng() % 512), -22);
    // The text dialect treats an absent hidden list as "keep the default",
    // so an empty list does not round-trip; always emit at least one layer
    // (matching how real configs use it).
    const size_t layers = 1 + rng() % 3;
    config.run.model.hidden.clear();
    for (size_t i = 0; i < layers; ++i) {
      config.run.model.hidden.push_back(1 + rng() % 64);
    }
    if (coin()) {
      config.run.worker_delay_seconds.assign(
          static_cast<size_t>(config.run.num_workers), 0.0);
      for (double& d : config.run.worker_delay_seconds) {
        d = static_cast<double>(rng() % 100) / 10000.0;
      }
    }
    if (coin()) {
      config.run.ckpt.dir = "/tmp/ckpt dir " + std::to_string(rng() % 100);
      config.run.ckpt.every_iterations = 1 + rng() % 32;
    }
    if (coin()) {
      // Random contiguous placement of num_workers over 2-4 nodes.
      const int nodes = 2 + static_cast<int>(rng() % 3);
      std::vector<std::vector<int>> placement(
          static_cast<size_t>(std::min(nodes, config.run.num_workers)));
      for (int w = 0; w < config.run.num_workers; ++w) {
        placement[static_cast<size_t>(w) % placement.size()].push_back(w);
      }
      ASSERT_TRUE(Topology::FromNodes(placement, &config.run.topology).ok());
      config.run.topology.set_inter_cost(
          static_cast<double>(1 + rng() % 16));
      config.run.topology.set_inter_latency_factor(
          static_cast<double>(1 + rng() % 8));
    }
    if (coin()) {
      config.run.fault.link_delay_seconds[{
          static_cast<int>(rng() % 4), static_cast<int>(rng() % 4)}] =
          static_cast<double>(rng() % 50) / 1000.0;
    }
    if (coin()) {
      FaultPlan& fault = config.run.fault;
      fault.seed = rng() % (uint64_t{1} << 50);
      fault.default_edge.drop_prob =
          static_cast<double>(rng() % 100) / 1000.0;
      WorkerFaultEvent event;
      event.worker = static_cast<int>(rng() % config.run.num_workers);
      event.kind = static_cast<WorkerFaultEvent::Kind>(rng() % 3);
      event.after_iterations = static_cast<int>(rng() % 20);
      event.hang_seconds = static_cast<double>(rng() % 50) / 100.0;
      fault.worker_events.push_back(event);
    }
    if (coin()) {
      config.run.dataset.dirichlet_alpha =
          static_cast<double>(1 + rng() % 40) / 10.0;
    }
    if (coin()) {
      ScalePolicyConfig& sp = config.strategy.scale_policy;
      sp.kind = static_cast<ScalePolicyKind>(rng() % 3);  // all three kinds
      sp.interval_seconds = static_cast<double>(1 + rng() % 100) / 200.0;
      sp.idle_high = static_cast<double>(50 + rng() % 50) / 100.0;
      sp.idle_low = static_cast<double>(rng() % 50) / 100.0;
      sp.min_workers = 1 + static_cast<int>(rng() % 4);
      sp.max_workers = static_cast<int>(rng() % 8);
      sp.trend_window = 2 + static_cast<int>(rng() % 6);
      sp.min_group_size = static_cast<int>(rng() % 4);
      sp.liveness_floor = static_cast<int>(rng() % 4);
      sp.partition_ckpt_seconds = static_cast<double>(rng() % 100) / 100.0;
    }
    if (coin()) {
      ScenarioSpec& sc = config.run.scenario;
      sc.name = "trace-" + std::to_string(rng() % 100);
      sc.seed = rng() % (uint64_t{1} << 50);
      sc.expected_iteration_seconds =
          static_cast<double>(1 + rng() % 100) / 1000.0;
      const size_t events = 1 + rng() % 4;
      for (size_t i = 0; i < events; ++i) {
        ScenarioEvent e;
        e.kind = static_cast<ScenarioEventKind>(rng() % 6);  // all six kinds
        e.time = static_cast<double>(rng() % 1000) / 100.0;
        e.worker = static_cast<int>(rng() % config.run.num_workers);
        e.node = coin() ? -1 : static_cast<int>(rng() % 3);
        e.duration = static_cast<double>(rng() % 500) / 100.0;
        e.factor = 1.0 + static_cast<double>(rng() % 80) / 10.0;
        sc.events.push_back(e);
      }
    }
    const std::string text = SerializeRunConfig(config);
    RunConfig from_text;
    ASSERT_TRUE(ParseRunConfig(text, &from_text).ok()) << text;
    const std::string json = RunConfigToJson(from_text);
    RunConfig from_json;
    Status status = RunConfigFromJson(json, &from_json);
    ASSERT_TRUE(status.ok()) << status.message() << "\n" << json;
    EXPECT_EQ(SerializeRunConfig(from_json), text)
        << "trial " << trial << "\n"
        << json;
  }
}

TEST(ConfigJsonTest, RejectsBadJsonDocuments) {
  RunConfig parsed;
  EXPECT_FALSE(RunConfigFromJson("", &parsed).ok());
  EXPECT_FALSE(RunConfigFromJson("[1, 2]", &parsed).ok());
  EXPECT_FALSE(RunConfigFromJson("{}", &parsed).ok());  // no prconfig marker
  EXPECT_FALSE(RunConfigFromJson("{\"prconfig\": 2}", &parsed).ok());
  EXPECT_FALSE(
      RunConfigFromJson("{\"prconfig\": 1, \"strategy.bogus\": 3}", &parsed)
          .ok());
  EXPECT_FALSE(
      RunConfigFromJson(
          "{\"prconfig\": 1, \"run.num_workers\": \"banana\"}", &parsed)
          .ok());
  // Valid marker alone yields the defaults.
  ASSERT_TRUE(RunConfigFromJson("{\"prconfig\": 1}", &parsed).ok());
  EXPECT_EQ(SerializeRunConfig(parsed), SerializeRunConfig(RunConfig{}));
}

TEST(ConfigJsonTest, RejectsMistypedValues) {
  RunConfig parsed;
  // A bool or a string is not a number, and an integer key takes only
  // integral numbers that fit it.
  EXPECT_FALSE(RunConfigFromJson(
                   R"({"prconfig": 1, "run.sgd.momentum": true})", &parsed)
                   .ok());
  EXPECT_FALSE(RunConfigFromJson(
                   R"({"prconfig": 1, "run.num_workers": "6"})", &parsed)
                   .ok());
  EXPECT_FALSE(RunConfigFromJson(
                   R"({"prconfig": 1, "run.num_workers": 2.5})", &parsed)
                   .ok());
  EXPECT_FALSE(RunConfigFromJson(
                   R"({"prconfig": 1, "run.num_workers": 1e10})", &parsed)
                   .ok());
  EXPECT_FALSE(
      RunConfigFromJson(R"({"prconfig": 1, "run.model.hidden": [[1.5]]})",
                        &parsed)
          .ok());
  // An integral double is an integer.
  ASSERT_TRUE(RunConfigFromJson(
                  R"({"prconfig": 1, "run.num_workers": 2.0})", &parsed)
                  .ok());
  EXPECT_EQ(parsed.run.num_workers, 2);
}

TEST(ConfigJsonTest, RejectsMalformedPlacements) {
  RunConfig parsed;
  // Worker 1 on two nodes: the JSON path must hit the same placement
  // validation as the text dialect.
  EXPECT_FALSE(
      RunConfigFromJson(
          "{\"prconfig\": 1, \"topology.node\": [[0, 1], [1, 2]]}", &parsed)
          .ok());
  EXPECT_FALSE(
      RunConfigFromJson("{\"prconfig\": 1, \"topology.node\": [[0, 1], []]}",
                        &parsed)
          .ok());
  EXPECT_FALSE(
      RunConfigFromJson("{\"prconfig\": 1, \"topology.inter_cost\": -2}",
                        &parsed)
          .ok());
  // A well-formed placement parses and lands in run.topology.
  ASSERT_TRUE(
      RunConfigFromJson(
          "{\"prconfig\": 1, \"topology.node\": [[0, 1], [2, 3]]}", &parsed)
          .ok());
  ASSERT_EQ(parsed.run.topology.num_nodes(), 2u);
  EXPECT_EQ(parsed.run.topology.NodeOf(3), 1);
}

ProcessReport FancyReport() {
  ProcessReport report;
  report.node = 2;
  report.role = "worker";
  report.strategy = "CON";
  report.wall_seconds = 1.5;
  report.group_reduces = 0;
  report.worker_iterations = {0, 0, 40, 0};
  report.worker_finish_seconds = {0.0, 0.0, 1.25, 0.0};
  report.replica = {1.0f, -2.5f, 3.25e-8f, 0.0f};
  report.metrics.counters["transport.payload_copies"] = 12.0;
  report.metrics.counters["worker.2.iterations"] = 40.0;
  report.metrics.gauges["transport.stash_high_water"] = 3.0;
  HistogramSnapshot hist;
  hist.upper_bounds = {0.1, 1.0};
  hist.counts = {5, 2, 1};
  hist.total_count = 8;
  hist.sum = 2.25;
  report.metrics.histograms["ckpt.save_seconds"] = hist;
  return report;
}

TEST(ReportIoTest, RoundTripIsExact) {
  const ProcessReport report = FancyReport();
  const std::string text = SerializeProcessReport(report);
  ProcessReport parsed;
  ASSERT_TRUE(ParseProcessReport(text, &parsed).ok());
  EXPECT_EQ(SerializeProcessReport(parsed), text);
  EXPECT_EQ(parsed.node, 2);
  EXPECT_EQ(parsed.role, "worker");
  EXPECT_EQ(parsed.worker_iterations, (std::vector<size_t>{0, 0, 40, 0}));
  EXPECT_EQ(parsed.replica, report.replica);
  const HistogramSnapshot* h = parsed.metrics.histogram("ckpt.save_seconds");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->counts, (std::vector<uint64_t>{5, 2, 1}));
  EXPECT_DOUBLE_EQ(h->sum, 2.25);
}

TEST(ReportIoTest, TruncatedReportIsRejected) {
  const std::string text = SerializeProcessReport(FancyReport());
  ProcessReport parsed;
  // Every prefix missing the end sentinel is a writer that died mid-report.
  const std::string cut = text.substr(0, text.size() - 5);
  EXPECT_FALSE(ParseProcessReport(cut, &parsed).ok());
  EXPECT_FALSE(ParseProcessReport("", &parsed).ok());
  EXPECT_FALSE(ParseProcessReport("prreport 1\nnonsense 1\nend\n", &parsed)
                   .ok());
}

TEST(MergeSnapshotsTest, MergesLikeRegistryShards) {
  MetricsSnapshot a;
  a.counters["c"] = 2.0;
  a.counters["only_a"] = 1.0;
  a.gauges["g"] = 5.0;
  HistogramSnapshot ha;
  ha.upper_bounds = {1.0};
  ha.counts = {3, 1};
  ha.total_count = 4;
  ha.sum = 2.0;
  a.histograms["h"] = ha;

  MetricsSnapshot b;
  b.counters["c"] = 3.0;
  b.gauges["g"] = 4.0;
  b.gauges["only_b"] = 9.0;
  HistogramSnapshot hb = ha;
  hb.counts = {1, 0};
  hb.total_count = 1;
  hb.sum = 0.5;
  b.histograms["h"] = hb;

  MetricsSnapshot merged = MergeSnapshots({a, b});
  EXPECT_DOUBLE_EQ(merged.counter("c"), 5.0);       // counters sum
  EXPECT_DOUBLE_EQ(merged.counter("only_a"), 1.0);
  EXPECT_DOUBLE_EQ(merged.gauge("g"), 5.0);         // gauges take the max
  EXPECT_DOUBLE_EQ(merged.gauge("only_b"), 9.0);
  const HistogramSnapshot* h = merged.histogram("h");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->counts, (std::vector<uint64_t>{4, 1}));  // buckets sum
  EXPECT_EQ(h->total_count, 5u);
  EXPECT_DOUBLE_EQ(h->sum, 2.5);
}

// ---------------------------------------------------------------------------
// Real multi-process launches (fork mode: each node runs in a forked child).
// ---------------------------------------------------------------------------

RunConfig SmallLaunchConfig(StrategyKind kind) {
  RunConfig config;
  config.strategy.kind = kind;
  config.strategy.group_size = 2;
  config.run.num_workers = 3;
  config.run.iterations_per_worker = 6;
  config.run.model.hidden = {8};
  config.run.batch_size = 16;
  config.run.dataset.num_train = 512;
  config.run.dataset.num_test = 128;
  config.run.dataset.dim = 8;
  config.run.dataset.num_classes = 3;
  config.run.seed = 21;
  return config;
}

TEST(LaunchTest, ConRunAcrossProcesses) {
  TempDir dir("con");
  LaunchOptions options;
  options.config = SmallLaunchConfig(StrategyKind::kPReduceConst);
  options.workdir = dir.path;
  LaunchResult result;
  Status s = Launch(options, &result);
  ASSERT_TRUE(s.ok()) << s.message();

  EXPECT_EQ(result.strategy, "CON");
  EXPECT_EQ(result.num_processes, 4);  // 3 workers + controller
  for (int code : result.exit_codes) EXPECT_EQ(code, 0);
  EXPECT_GT(result.group_reduces, 0u);
  EXPECT_EQ(result.worker_iterations, (std::vector<size_t>{6, 6, 6}));
  EXPECT_FALSE(result.averaged_params.empty());
  EXPECT_GT(result.final_accuracy, 0.0);
  // Per-process metrics merged under the shared names.
  EXPECT_TRUE(result.metrics.counters.count("transport.stash_purged"));
  EXPECT_TRUE(result.metrics.counters.count("controller.groups_formed"));
  EXPECT_DOUBLE_EQ(result.metrics.counter("worker.0.iterations"), 6.0);
}

TEST(LaunchTest, RejectsUnsupportedStrategy) {
  TempDir dir("ps");
  LaunchOptions options;
  options.config = SmallLaunchConfig(StrategyKind::kPsBsp);
  options.workdir = dir.path;
  LaunchResult result;
  EXPECT_EQ(Launch(options, &result).code(), StatusCode::kNotImplemented);
}

TEST(LaunchTest, KilledWorkerIsSurvived) {
  TempDir dir("kill");
  LaunchOptions options;
  options.config = SmallLaunchConfig(StrategyKind::kPReduceConst);
  options.config.run.num_workers = 4;
  options.config.run.iterations_per_worker = 150;
  options.config.run.worker_delay_seconds.assign(4, 0.003);
  options.workdir = dir.path;
  options.kill.worker = 2;
  options.kill.after_seconds = 0.1;
  LaunchResult result;
  Status s = Launch(options, &result);
  ASSERT_TRUE(s.ok()) << s.message();

  ASSERT_EQ(result.num_processes, 5);
  EXPECT_TRUE(result.killed[2]);
  EXPECT_EQ(result.exit_codes[2], 137);  // 128 + SIGKILL
  // Everyone else finished their full budget through the recovery protocol.
  for (int node : {0, 1, 3, 4}) {
    EXPECT_EQ(result.exit_codes[node], 0) << "node " << node;
  }
  for (int w : {0, 1, 3}) {
    EXPECT_EQ(result.worker_iterations[static_cast<size_t>(w)], 150u)
        << "surviving worker " << w;
  }
  // The killed process never reported; its slot stays empty.
  EXPECT_EQ(result.worker_iterations[2], 0u);
  // A real process death produced the same fault events the in-proc chaos
  // harness produces for an injected crash.
  EXPECT_GE(result.metrics.counter("fault.evictions"), 1.0);
  EXPECT_TRUE(result.metrics.counters.count("fault.aborted_groups"));
}

TEST(LaunchTest, CheckpointThenRestoreAcrossProcesses) {
  TempDir dir("ckpt");
  const std::string ckpt_dir = dir.path + "/ckpt";
  LaunchOptions options;
  options.config = SmallLaunchConfig(StrategyKind::kPReduceConst);
  options.config.run.ckpt.dir = ckpt_dir;
  options.config.run.ckpt.every_iterations = 2;
  options.workdir = dir.path + "/first";
  LaunchResult first;
  Status s = Launch(options, &first);
  ASSERT_TRUE(s.ok()) << s.message();
  EXPECT_GE(first.metrics.counter("ckpt.manifests_written"), 1.0);

  RunManifest manifest;
  std::string manifest_path;
  ASSERT_TRUE(FindLatestManifest(ckpt_dir, &manifest, &manifest_path).ok());
  EXPECT_EQ(manifest.engine, "threaded");
  EXPECT_EQ(manifest.num_workers, 3);

  // Resume the same config from the manifest: every process restores its
  // shard and finishes the remaining budget.
  options.workdir = dir.path + "/second";
  options.resume_manifest = manifest_path;
  LaunchResult second;
  s = Launch(options, &second);
  ASSERT_TRUE(s.ok()) << s.message();
  EXPECT_EQ(second.worker_iterations, (std::vector<size_t>{6, 6, 6}));
  // Each of the four processes restored once; counters sum across reports.
  EXPECT_GE(second.metrics.counter("ckpt.restore_count"), 1.0);
}

}  // namespace
}  // namespace pr
