// Elastic membership: the controller's ready-signal design means workers
// can leave and rejoin mid-training without reconfiguring a communication
// world — something fixed-topology all-reduce cannot do (the limitation the
// paper's §4 notes for DistributedDataParallel). This example trains with
// P-Reduce while two workers leave for a stretch and one rejoins with its
// stale model; dynamic weights absorb it.

#include <cstdio>

#include "train/run.h"
#include "train/report.h"

namespace {

constexpr int kWorkers = 8;
constexpr int kGroupSize = 3;

// `step` is the trace's iteration scale (0 runs without churn): scenario
// time lands on local iterations, so the trace is authored in seconds of a
// simulated step.
pr::RunResult Run(double step, pr::StrategyKind kind) {
  pr::RunConfig config = pr::PaperSimConfig();
  config.run.num_workers = kWorkers;
  config.run.dataset = pr::SpecForDataset("cifar10");
  config.run.dataset.dirichlet_alpha = 0.5;
  config.sim.paper_model = "resnet18";
  config.sim.hetero = pr::HeteroSpec::GpuSharing(2);
  config.sim.accuracy_threshold = 0.85;
  config.sim.max_updates = 30000;
  config.sim.eval_every = 25;
  config.run.seed = 19;
  config.strategy.kind = kind;
  config.strategy.group_size = kGroupSize;
  if (step > 0.0) {
    using pr::ScenarioEventKind;
    config.run.scenario.name = "preemptions";
    config.run.scenario.expected_iteration_seconds = step;
    config.run.scenario.events = {
        // Preemption; worker 6 comes back at t=40s, its model ~stale.
        {ScenarioEventKind::kDepart, 5.0, 6, -1, /*duration=*/35.0},
        // Second preemption, for good.
        {ScenarioEventKind::kDepart, 8.0, 7, -1, /*duration=*/1e9},
    };
  }
  return pr::StartRun(config, pr::EngineKind::kSim);
}

}  // namespace

int main() {
  std::printf(
      "Elastic membership under P-Reduce: workers 6 and 7 are preempted at\n"
      "t=5s and t=8s; worker 6 rejoins at t=40s with its stale model.\n"
      "N=8, P=3, GPU-sharing heterogeneity, threshold 85%%.\n\n");

  pr::TablePrinter table({"scenario", "run time (s)", "#updates",
                          "converged", "final acc"});
  auto add = [&](const char* label, const pr::RunResult& r) {
    table.AddRow({label, pr::FormatDouble(r.clock_seconds, 1),
                  std::to_string(r.updates), r.converged ? "yes" : "NO",
                  pr::FormatDouble(r.final_accuracy, 3)});
  };
  const pr::RunResult stable = Run(0.0, pr::StrategyKind::kPReduceConst);
  add("stable membership (CON)", stable);
  // The stable run's simulated step: its clock over the local iterations a
  // worker ran (P gradients per update, over N workers).
  const double step = stable.clock_seconds * kWorkers /
                      (static_cast<double>(stable.updates) * kGroupSize);
  add("churn (CON)", Run(step, pr::StrategyKind::kPReduceConst));
  add("churn (DYN)", Run(step, pr::StrategyKind::kPReduceDynamic));
  table.Print();
  std::printf(
      "\nTraining continues through departures (groups simply form among\n"
      "the remaining workers) and the rejoining stale model is re-absorbed\n"
      "— DYN down-weights it by its iteration-number gap.\n");
  return 0;
}
