// Chaos matrix: churn scenarios x synchronization strategies under the
// simulator, reporting how gracefully each strategy degrades.
//
// Rows are scenarios (fault-free baseline, the CI reference trace, Poisson
// churn, heavy-tailed slowdowns, correlated rack departures); columns are
// strategies (CON, DYN, AR, PS-BSP). Every cell reports:
//   - end_loss and its delta vs. the same strategy's fault-free run,
//   - mean_recovery_seconds: extra virtual run time per scenario event
//     (how long each disruption sets the run back on average),
//   - wasted_gradient_fraction: gradients computed but never incorporated
//     (aborted partial-reduce groups, PS backup drops) over all computed.
//
// Scenario time is calibrated to the run: a fault-free probe measures the
// per-iteration virtual seconds, and every trace is rescaled so its events
// land at the intended iterations in both engines' clocks.
//
// Emits BENCH_scenarios.json and exits non-zero when a CI gate fails:
//   1. CON's end loss under the reference trace is within --loss-tol
//      (default 5%) of its fault-free end loss.
//   2. Zero deadlocks across a --seeds (default 5) seed sweep of CON under
//      the reference trace: every run must finish its update budget without
//      hitting the sim time cap.
//
//   bench_scenarios [--iters N] [--loss-tol F] [--seeds N] [--out PATH]

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/check.h"
#include "obs/json.h"
#include "scenario/scenario.h"
#include "topo/topology.h"
#include "train/run.h"
#include "train/report.h"

namespace {

constexpr int kNumWorkers = 8;
constexpr int kGroupSize = 3;

pr::RunConfig BaseConfig(int iters, uint64_t seed) {
  pr::RunConfig config = pr::PaperSimConfig();
  config.run.num_workers = kNumWorkers;
  config.run.batch_size = 8;
  config.run.model = {pr::ProxyModelSpec::Kind::kMlp, {16}, 8};
  config.run.topology = pr::Topology::Uniform(2, kNumWorkers / 2);
  config.sim.accuracy_threshold = -1.0;  // run the full budget
  config.sim.eval_every = 1u << 30;      // one evaluation at the end
  config.run.seed = seed;
  // The update budget consumes N x iters gradients whatever the strategy
  // incorporates per update (see RunCell).
  config.sim.max_updates = static_cast<size_t>(iters);
  return config;
}

struct CellResult {
  double end_loss = 0.0;
  double end_loss_delta = 0.0;
  double mean_recovery_seconds = 0.0;
  double wasted_gradient_fraction = 0.0;
  double sim_seconds = 0.0;
  size_t updates = 0;
  bool deadlocked = false;
};

CellResult RunCell(const pr::RunConfig& base, pr::StrategyKind kind,
                   const pr::ScenarioSpec& scenario, double time_cap) {
  pr::RunConfig config = base;
  config.strategy.kind = kind;
  config.strategy.group_size = kGroupSize;
  config.run.scenario = scenario;
  config.sim.max_sim_seconds = time_cap;
  // Gradients one global update incorporates, for the budget and the
  // wasted fraction.
  const double per_update =
      pr::GradientsPerUpdate(config.strategy, kNumWorkers);
  const size_t budget =
      static_cast<size_t>(static_cast<double>(config.sim.max_updates) *
                              kNumWorkers / per_update +
                          0.5);
  config.sim.max_updates = budget < 1 ? 1 : budget;
  config.sim.eval_every = config.sim.max_updates + 1;

  const pr::RunResult result = pr::StartRun(config, pr::EngineKind::kSim);
  CellResult cell;
  cell.end_loss = result.curve.empty() ? 0.0 : result.curve.back().loss;
  cell.sim_seconds = result.clock_seconds;
  cell.updates = result.updates;
  cell.deadlocked =
      result.updates == 0 || result.clock_seconds >= 0.999 * time_cap;

  const double aborted = result.metrics.counter("fault.aborted_groups");
  const double wasted = result.metrics.counter("ps.wasted_gradients") +
                        aborted * per_update;
  const double incorporated =
      static_cast<double>(result.updates) * per_update;
  cell.wasted_gradient_fraction =
      wasted + incorporated > 0.0 ? wasted / (wasted + incorporated) : 0.0;
  return cell;
}

/// Rescales a trace authored at its own expected_iteration_seconds so the
/// events land at the same iteration indices under `step` seconds per step.
pr::ScenarioSpec Rescale(pr::ScenarioSpec spec, double step) {
  const double ratio = step / spec.expected_iteration_seconds;
  spec.expected_iteration_seconds = step;
  for (pr::ScenarioEvent& e : spec.events) {
    e.time *= ratio;
    e.duration *= ratio;
  }
  return spec;
}

}  // namespace

int main(int argc, char** argv) {
  int iters = 60;
  double loss_tol = 0.05;
  int sweep_seeds = 5;
  std::string out_path = "BENCH_scenarios.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--iters" && i + 1 < argc) {
      iters = std::atoi(argv[++i]);
    } else if (arg == "--loss-tol" && i + 1 < argc) {
      loss_tol = std::strtod(argv[++i], nullptr);
    } else if (arg == "--seeds" && i + 1 < argc) {
      sweep_seeds = std::atoi(argv[++i]);
    } else if (arg == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      std::fprintf(
          stderr,
          "usage: %s [--iters N] [--loss-tol F] [--seeds N] [--out PATH]\n",
          argv[0]);
      return 2;
    }
  }

  const pr::RunConfig base = BaseConfig(iters, /*seed=*/11);
  const pr::Topology topology = base.run.topology;

  // Probe the virtual per-iteration time with a fault-free CON run so the
  // scenario clocks line up with the cost model's.
  pr::ScenarioSpec empty;
  CellResult probe =
      RunCell(base, pr::StrategyKind::kPReduceConst, empty, 1e9);
  const double step =
      probe.sim_seconds > 0.0 ? probe.sim_seconds / iters : 0.01;
  const double horizon = step * iters;
  const double time_cap = 50.0 * (probe.sim_seconds > 0.0
                                      ? probe.sim_seconds
                                      : horizon);

  std::vector<std::pair<std::string, pr::ScenarioSpec>> scenarios;
  scenarios.emplace_back("fault_free", empty);
  scenarios.emplace_back(
      "reference",
      Rescale(pr::MakeReferenceTrace(kNumWorkers, topology, iters), step));
  {
    pr::PoissonChurnOptions churn;
    churn.num_workers = kNumWorkers;
    churn.horizon_seconds = horizon;
    churn.departures_per_second = 2.0 / horizon;
    churn.mean_absence_seconds = 0.1 * horizon;
    churn.seed = 21;
    scenarios.emplace_back("poisson_churn", pr::MakePoissonChurnTrace(churn));
  }
  {
    pr::HeavyTailSlowdownOptions slow;
    slow.num_workers = kNumWorkers;
    slow.horizon_seconds = horizon;
    slow.events_per_second = 3.0 / horizon;
    slow.window_seconds = 0.1 * horizon;
    slow.seed = 22;
    scenarios.emplace_back("heavy_tail_slowdown",
                           pr::MakeHeavyTailSlowdownTrace(slow));
  }
  {
    pr::RackChurnOptions rack;
    rack.horizon_seconds = horizon;
    rack.departures_per_second = 1.5 / horizon;
    rack.mean_absence_seconds = 0.1 * horizon;
    rack.seed = 23;
    scenarios.emplace_back("rack_churn",
                           pr::MakeRackChurnTrace(topology, rack));
  }
  for (auto& [name, spec] : scenarios) {
    if (!spec.events.empty()) {
      spec.expected_iteration_seconds = step;
    }
    (void)name;
  }

  const std::vector<std::pair<std::string, pr::StrategyKind>> strategies = {
      {"CON", pr::StrategyKind::kPReduceConst},
      {"DYN", pr::StrategyKind::kPReduceDynamic},
      {"AR", pr::StrategyKind::kAllReduce},
      {"PS-BSP", pr::StrategyKind::kPsBsp},
  };

  pr::TablePrinter table({"scenario", "strategy", "end_loss", "loss_delta",
                          "recovery_s", "wasted_frac", "sim_s"});
  pr::JsonWriter json;
  json.BeginObject();
  json.Key("bench").String("scenarios");
  json.Key("iters").Int(iters);
  json.Key("num_workers").Int(kNumWorkers);
  json.Key("group_size").Int(kGroupSize);
  json.Key("loss_tol").Number(loss_tol);
  json.Key("step_seconds").Number(step);
  json.Key("cells").BeginArray();

  double con_fault_free_loss = 0.0;
  double con_reference_loss = 0.0;
  int deadlocks = 0;
  for (const auto& [strat_name, kind] : strategies) {
    double baseline_loss = 0.0;
    double baseline_seconds = 0.0;
    for (const auto& [scen_name, spec] : scenarios) {
      CellResult cell = RunCell(base, kind, spec, time_cap);
      if (scen_name == "fault_free") {
        baseline_loss = cell.end_loss;
        baseline_seconds = cell.sim_seconds;
      }
      cell.end_loss_delta = cell.end_loss - baseline_loss;
      const double extra = cell.sim_seconds - baseline_seconds;
      const size_t events = spec.events.size();
      cell.mean_recovery_seconds =
          events > 0 && extra > 0.0 ? extra / static_cast<double>(events)
                                    : 0.0;
      if (cell.deadlocked) {
        ++deadlocks;
      }
      if (kind == pr::StrategyKind::kPReduceConst) {
        if (scen_name == "fault_free") {
          con_fault_free_loss = cell.end_loss;
        } else if (scen_name == "reference") {
          con_reference_loss = cell.end_loss;
        }
      }

      table.AddRow({scen_name, strat_name, pr::FormatDouble(cell.end_loss, 4),
                    pr::FormatDouble(cell.end_loss_delta, 4),
                    pr::FormatDouble(cell.mean_recovery_seconds, 3),
                    pr::FormatDouble(cell.wasted_gradient_fraction, 4),
                    pr::FormatDouble(cell.sim_seconds, 3)});
      json.BeginObject();
      json.Key("scenario").String(scen_name);
      json.Key("strategy").String(strat_name);
      json.Key("end_loss").Number(cell.end_loss);
      json.Key("end_loss_delta").Number(cell.end_loss_delta);
      json.Key("mean_recovery_seconds").Number(cell.mean_recovery_seconds);
      json.Key("wasted_gradient_fraction")
          .Number(cell.wasted_gradient_fraction);
      json.Key("sim_seconds").Number(cell.sim_seconds);
      json.Key("updates").UInt(cell.updates);
      json.Key("deadlocked").Bool(cell.deadlocked);
      json.EndObject();
    }
  }
  json.EndArray();
  table.Print();

  // Gate 1: CON degrades gracefully under the reference trace.
  const double rel =
      con_fault_free_loss > 0.0
          ? (con_reference_loss - con_fault_free_loss) / con_fault_free_loss
          : 0.0;
  const bool loss_ok = rel <= loss_tol;

  // Gate 2: the matrix plus a multi-seed CON/reference sweep stays
  // deadlock-free — every run finishes its budget under the time cap.
  int sweep_deadlocks = 0;
  for (int s = 0; s < sweep_seeds; ++s) {
    pr::RunConfig seeded = BaseConfig(iters, /*seed=*/100 + s);
    const pr::ScenarioSpec reference =
        Rescale(pr::MakeReferenceTrace(kNumWorkers, topology, iters), step);
    const CellResult cell = RunCell(seeded, pr::StrategyKind::kPReduceConst,
                                    reference, time_cap);
    if (cell.deadlocked) {
      ++sweep_deadlocks;
    }
  }
  const bool deadlock_ok = deadlocks == 0 && sweep_deadlocks == 0;

  json.Key("gates").BeginObject();
  json.Key("con_reference_rel_loss_delta").Number(rel);
  json.Key("con_loss_within_tol").Bool(loss_ok);
  json.Key("matrix_deadlocks").Int(deadlocks);
  json.Key("sweep_seeds").Int(sweep_seeds);
  json.Key("sweep_deadlocks").Int(sweep_deadlocks);
  json.Key("deadlock_free").Bool(deadlock_ok);
  json.EndObject();
  json.EndObject();
  if (!pr::WriteTextFile(out_path, json.str() + "\n")) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::printf("wrote %s\n", out_path.c_str());
  std::printf(
      "gates: CON reference loss delta %+.2f%% (tol %.0f%%) %s; "
      "deadlocks matrix=%d sweep=%d %s\n",
      100.0 * rel, 100.0 * loss_tol, loss_ok ? "OK" : "FAIL", deadlocks,
      sweep_deadlocks, deadlock_ok ? "OK" : "FAIL");
  return loss_ok && deadlock_ok ? 0 : 1;
}
