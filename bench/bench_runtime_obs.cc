// Runtime observability bench: runs CON, DYN, AR, and PS-BSP through BOTH
// engines — real threads (RunThreaded) and the event simulator (StartRun
// with EngineKind::kSim) — under one straggler, and emits BENCH_runtime.json
// with the observability payload of each run: wall time, the controller's
// decision-latency histogram, per-worker idle fractions, stash high-water
// marks, the full metrics snapshot, and trace event counts. Because both
// engines publish the same metric names, each strategy appears twice in the
// report with structurally identical metrics blocks.
//
// Flags: --out <path> (default BENCH_runtime.json)
//        --workers <n> (default 4), --iters <n> (default 40)

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "obs/json.h"
#include "runtime/threaded_runtime.h"
#include "train/run.h"
#include "train/report.h"

namespace {

struct ObsRun {
  std::string engine;  // "threaded" | "sim"
  std::string strategy;
  double clock_seconds = 0.0;  // wall (threaded) or virtual (sim)
  pr::MetricsSnapshot metrics;
  pr::TraceLog trace;
};

constexpr size_t kTraceCapacity = 2048;

ObsRun RunThreadedObs(pr::StrategyKind kind, int workers, size_t iters) {
  pr::RunConfig config;
  config.strategy.kind = kind;
  config.strategy.group_size = 2;
  config.run.num_workers = workers;
  config.run.iterations_per_worker = iters;
  config.run.model.hidden = {16};
  config.run.batch_size = 16;
  config.run.dataset.num_train = 1024;
  config.run.dataset.num_test = 256;
  config.run.dataset.dim = 16;
  config.run.dataset.num_classes = 4;
  config.run.dataset.separation = 3.0;
  config.run.trace_capacity = kTraceCapacity;
  // One straggler at 2 ms/iteration so idle fractions are non-trivial.
  config.run.worker_delay_seconds.assign(static_cast<size_t>(workers), 0.0);
  config.run.worker_delay_seconds.back() = 0.002;

  pr::ThreadedRunResult result = pr::RunThreaded(config);
  ObsRun run;
  run.engine = "threaded";
  run.strategy = result.strategy;
  run.clock_seconds = result.wall_seconds;
  run.metrics = std::move(result.metrics);
  run.trace = std::move(result.trace);
  return run;
}

ObsRun RunSimObs(pr::StrategyKind kind, int workers, size_t iters) {
  pr::RunConfig config = pr::PaperSimConfig();
  config.strategy.kind = kind;
  config.strategy.group_size = 2;
  config.run.num_workers = workers;
  config.sim.max_updates = iters * static_cast<size_t>(workers);
  config.sim.accuracy_threshold = -1.0;
  config.sim.eval_every = 1000000;  // timing-focused: skip mid-run evals
  config.run.trace_capacity = kTraceCapacity;
  std::vector<double> factors(static_cast<size_t>(workers), 1.0);
  factors.back() = 2.0;  // same straggler shape as the threaded runs
  config.sim.hetero = pr::HeteroSpec::FixedFactors(factors);

  pr::RunResult result = pr::StartRun(config, pr::EngineKind::kSim);
  ObsRun run;
  run.engine = "sim";
  run.strategy = result.strategy;
  run.clock_seconds = result.clock_seconds;
  run.metrics = std::move(result.metrics);
  run.trace = std::move(result.trace);
  return run;
}

void WriteRun(pr::JsonWriter* w, const ObsRun& run, int workers) {
  w->BeginObject();
  w->Key("engine").String(run.engine);
  w->Key("strategy").String(run.strategy);
  w->Key("wall_seconds").Number(run.clock_seconds);

  // Headline extracts the driver and CI smoke-check key off of.
  const pr::HistogramSnapshot* latency =
      run.metrics.histogram("controller.decision_latency_seconds");
  w->Key("decision_latency");
  if (latency != nullptr) {
    w->BeginObject();
    w->Key("count").UInt(latency->total_count);
    w->Key("mean_seconds").Number(latency->Mean());
    w->Key("p99_upper_bound_seconds")
        .Number(latency->QuantileUpperBound(0.99));
    w->EndObject();
  } else {
    w->Null();  // strategies without a controller (AR, PS-BSP)
  }

  w->Key("worker_idle_fraction").BeginArray();
  for (int i = 0; i < workers; ++i) {
    w->Number(run.metrics.gauge("worker." + std::to_string(i) +
                                ".idle_fraction"));
  }
  w->EndArray();

  // Transport stash pressure exists only where there is a transport (the
  // threaded engine); the sim reports 0 here.
  w->Key("stash_high_water")
      .Number(run.metrics.gauge("transport.stash_high_water"));

  w->Key("trace_events").UInt(run.trace.events.size());
  w->Key("trace_dropped").UInt(run.trace.dropped);

  w->Key("metrics");
  pr::WriteMetricsSnapshot(w, run.metrics);
  w->EndObject();
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path = "BENCH_runtime.json";
  int workers = 4;
  size_t iters = 40;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else if (std::strcmp(argv[i], "--workers") == 0 && i + 1 < argc) {
      workers = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--iters") == 0 && i + 1 < argc) {
      iters = static_cast<size_t>(std::atoll(argv[++i]));
    } else {
      std::fprintf(stderr,
                   "usage: %s [--out path] [--workers n] [--iters n]\n",
                   argv[0]);
      return 2;
    }
  }
  if (workers < 2 || iters == 0) {
    std::fprintf(stderr, "need --workers >= 2 and --iters >= 1\n");
    return 2;
  }

  const pr::StrategyKind kinds[] = {
      pr::StrategyKind::kPReduceConst, pr::StrategyKind::kPReduceDynamic,
      pr::StrategyKind::kAllReduce, pr::StrategyKind::kPsBsp};

  pr::TablePrinter table({"engine", "strategy", "clock (s)",
                          "decision p99 (s)", "max idle frac",
                          "stash high-water"});
  pr::JsonWriter json;
  json.BeginObject();
  json.Key("bench").String("runtime_obs");
  json.Key("workers").Int(workers);
  json.Key("iterations_per_worker").UInt(iters);
  json.Key("runs").BeginArray();
  for (pr::StrategyKind kind : kinds) {
    for (int pass = 0; pass < 2; ++pass) {
      const ObsRun run = pass == 0 ? RunThreadedObs(kind, workers, iters)
                                   : RunSimObs(kind, workers, iters);
      WriteRun(&json, run, workers);

      const pr::HistogramSnapshot* latency =
          run.metrics.histogram("controller.decision_latency_seconds");
      double max_idle = 0.0;
      for (int i = 0; i < workers; ++i) {
        max_idle = std::max(
            max_idle, run.metrics.gauge("worker." + std::to_string(i) +
                                        ".idle_fraction"));
      }
      table.AddRow(
          {run.engine, run.strategy, pr::FormatDouble(run.clock_seconds, 3),
           latency != nullptr
               ? pr::FormatDouble(latency->QuantileUpperBound(0.99), 6)
               : "-",
           pr::FormatDouble(max_idle, 3),
           pr::FormatDouble(
               run.metrics.gauge("transport.stash_high_water"), 0)});
    }
  }
  json.EndArray();
  json.EndObject();

  table.Print();
  if (!pr::WriteTextFile(out_path, json.str())) {
    std::fprintf(stderr, "failed to write %s\n", out_path.c_str());
    return 1;
  }
  std::printf("\nwrote %s (%zu bytes)\n", out_path.c_str(),
              json.str().size());
  return 0;
}
