#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <set>
#include <string>
#include <vector>

#include "obs/metric_table.h"
#include "train/run.h"

namespace pr {
namespace {

// Every engine x strategy kind x run shape publishes exactly the metric
// table's entries for the gates the run opens: nothing missing (both
// engines register every open entry at start) and nothing extra (no
// instrument site reaches past the table or its gate).

bool AnyKind(StrategyKind) { return true; }

/// A run shape: what it adds to the base config, which kinds support it,
/// and the gates it opens beyond the engine's and the kind's.
struct Shape {
  const char* name;
  bool (*supports)(StrategyKind);
  void (*apply)(RunConfig* config, const std::string& ckpt_dir);
  std::vector<MetricGate> gates;
};

const std::vector<Shape>& Shapes() {
  static const std::vector<Shape> shapes = {
      {"plain", AnyKind, [](RunConfig*, const std::string&) {}, {}},
      {"fault", IsPReduce,
       [](RunConfig* c, const std::string&) {
         c->run.fault.force_fault_tolerant = true;
       },
       {MetricGate::kFault}},
      // The slowdown compiles into the run's fault plan.
      {"scenario", IsPReduce,
       [](RunConfig* c, const std::string&) {
         ScenarioEvent slowdown;
         slowdown.kind = ScenarioEventKind::kSlowdown;
         slowdown.worker = 0;
         slowdown.duration = 1e-3;
         slowdown.factor = 2.0;
         c->run.scenario.events.push_back(slowdown);
       },
       {MetricGate::kScenario, MetricGate::kFault}},
      {"ckpt", CheckpointSupported,
       [](RunConfig* c, const std::string& dir) {
         c->run.ckpt.dir = dir;
         c->run.ckpt.every_iterations = 2;
       },
       {MetricGate::kCkpt}},
      {"int8", AnyKind,
       [](RunConfig* c, const std::string&) {
         c->strategy.compression = CompressionKind::kInt8;
       },
       {MetricGate::kCompression}},
  };
  return shapes;
}

struct SchemaCase {
  EngineKind engine;
  StrategyKind kind;
  size_t shape;  ///< index into Shapes()
};

std::vector<SchemaCase> AllCases() {
  std::vector<SchemaCase> cases;
  for (EngineKind engine : {EngineKind::kThreaded, EngineKind::kSim}) {
    for (const EnumName<StrategyKind>& kind : kStrategyKindNames) {
      for (size_t shape = 0; shape < Shapes().size(); ++shape) {
        if (Shapes()[shape].supports(kind.value)) {
          cases.push_back({engine, kind.value, shape});
        }
      }
    }
  }
  return cases;
}

std::string CaseName(const SchemaCase& c) {
  std::string name = std::string(EngineKindName(c.engine)) + "_" +
                     StrategyKindName(c.kind) + "_" + Shapes()[c.shape].name;
  for (char& ch : name) {
    if (ch == '-') ch = '_';
  }
  return name;
}

template <typename Map>
std::set<std::string> Names(const Map& map) {
  std::set<std::string> names;
  for (const auto& [name, value] : map) names.insert(name);
  return names;
}

class MetricSchemaTest : public ::testing::TestWithParam<SchemaCase> {};

TEST_P(MetricSchemaTest, SnapshotHoldsExactlyTheOpenTableEntries) {
  const SchemaCase& c = GetParam();
  const Shape& shape = Shapes()[c.shape];
  RunConfig config;
  config.strategy.kind = c.kind;
  config.strategy.group_size = 2;
  config.strategy.backup_workers = 1;
  config.run.num_workers = 3;
  config.run.iterations_per_worker = 4;
  config.run.model.hidden = {8};
  config.run.batch_size = 8;
  config.run.dataset.num_train = 256;
  config.run.dataset.num_test = 64;
  config.run.dataset.dim = 8;
  config.run.dataset.num_classes = 3;
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("pr_schema_" + CaseName(c) + "_" + std::to_string(::getpid()));
  shape.apply(&config, dir.string());
  const RunResult run = StartRun(config, c.engine);
  std::filesystem::remove_all(dir);

  // The gates, stated per case rather than derived the way the engines do.
  MetricGates gates;
  gates.Open(c.engine == EngineKind::kThreaded ? MetricGate::kThreaded
                                               : MetricGate::kSim);
  gates.Open(MetricGate::kController, IsPReduce(c.kind));
  gates.Open(MetricGate::kServer, IsPsFamily(c.kind) ||
                                      c.kind == StrategyKind::kEagerReduce);
  for (MetricGate gate : shape.gates) gates.Open(gate);

  const MetricNames want = ExpandMetricTable(gates, config.run.num_workers);
  EXPECT_EQ(Names(run.metrics.counters), want.counters);
  EXPECT_EQ(Names(run.metrics.gauges), want.gauges);
  EXPECT_EQ(Names(run.metrics.histograms), want.histograms);
}

INSTANTIATE_TEST_SUITE_P(
    AllRuns, MetricSchemaTest, ::testing::ValuesIn(AllCases()),
    [](const ::testing::TestParamInfo<SchemaCase>& info) {
      return CaseName(info.param);
    });

}  // namespace
}  // namespace pr
