// Reproduces Fig. 11: scalability (run-time speedup vs worker count) on
// ImageNet-scale workloads under production heterogeneity, for All-Reduce,
// PS-BK (a quarter of workers as backups) and P-Reduce (P=4).
//
// Speedup is gradient throughput (gradients incorporated per virtual
// second) normalized to one *dedicated* worker — the hardware-efficiency
// component of the paper's run-time speedup, measured timing-only so the
// number is free of threshold-crossing noise. Expected shape: AR flattens
// hard (max-of-N over a heavy tail); P-Reduce stays closest to ideal;
// ResNet-18 (compute-bound) scales better than VGG-16 (communication-
// bound). PS-BK's curve depends on the heterogeneity mix: under the
// *persistent* per-worker skew modeled here, always dropping the slowest
// quarter is throughput-favourable for compute-bound models (it never pays
// for stragglers), while for communication-bound models the central PS
// link caps it — see EXPERIMENTS.md for the comparison with the paper.

// Topology mode (--topo-only): compares flat vs hierarchical two-level
// P-Reduce at N=128/256 on an 8-workers-per-node placement and gates on
// the hierarchy sending at least 2x fewer bytes over inter-node edges at
// an end-loss delta of at most 2%. Exit code 1 on a gate violation, so CI
// can run this as a smoke job.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>

#include "topo/topology.h"
#include "train/run.h"
#include "train/report.h"

namespace {

/// Gradients incorporated per update for each strategy.
double GradientsPerUpdate(pr::StrategyKind kind, int n, int p, int backups) {
  switch (kind) {
    case pr::StrategyKind::kAllReduce:
      return n;
    case pr::StrategyKind::kPsBackup:
      return n - backups;
    case pr::StrategyKind::kPReduceConst:
      return p;
    default:
      return 1;
  }
}

double Throughput(const std::string& model, pr::StrategyKind kind, int n) {
  const int p = std::min(4, n);
  const int backups = n / 4;
  pr::RunConfig config = pr::PaperSimConfig();
  config.run.num_workers = n;
  config.sim.paper_model = model;
  config.sim.cost.compute_scale = 4.0;
  config.sim.hetero = pr::HeteroSpec::Production();
  config.sim.timing_only = true;
  config.sim.timing_updates = 800;
  config.run.seed = 53;
  config.strategy.kind = kind;
  config.strategy.group_size = p;
  config.strategy.backup_workers = backups;

  if (n == 1) {
    // Baseline: one *dedicated* worker (sequential SGD on an unshared
    // device) — a fixed reference, not a random draw from the production
    // skew distribution.
    config.sim.hetero = pr::HeteroSpec::Homogeneous();
    config.strategy.kind = pr::StrategyKind::kAllReduce;
  }
  pr::RunResult r = pr::StartRun(config, pr::EngineKind::kSim);
  const double grads =
      static_cast<double>(r.updates) *
      GradientsPerUpdate(config.strategy.kind, n, p, backups);
  return grads / r.clock_seconds;
}

struct TopoRun {
  double final_loss = 0.0;
  double inter_node_bytes = 0.0;
  double cross_groups = 0.0;
  double intra_groups = 0.0;
  size_t updates = 0;
};

// One real-training run (small MLP, small synthetic task) at group count
// `n / 8` nodes x 8 workers, flat or hierarchical scheduling. Both arms use
// the same topology so the byte accounting is identical; only the group
// selection policy differs.
TopoRun RunTopoArm(int n, bool hierarchical) {
  pr::RunConfig config = pr::PaperSimConfig();
  config.run.num_workers = n;
  config.run.topology = pr::Topology::Uniform(n / 8, 8);
  config.run.model = {pr::ProxyModelSpec::Kind::kMlp, {32}, 8};
  // Well-separated task: both arms reach the same loss plateau within the
  // update cap, so the end-loss gate compares converged models rather than
  // mid-descent transients.
  pr::SyntheticSpec ds;
  ds.num_train = 4096;
  ds.num_test = 512;
  ds.dim = 16;
  ds.num_classes = 4;
  ds.separation = 3.5;
  ds.noise = 0.6;
  config.run.dataset = ds;
  config.run.batch_size = 8;
  config.sim.accuracy_threshold = 0.0;  // run to the update cap
  config.sim.max_updates = 1500;
  config.sim.eval_every = 100;
  config.run.seed = 53;
  config.strategy.kind = pr::StrategyKind::kPReduceConst;
  config.strategy.group_size = 8;
  config.strategy.hierarchy.enabled = hierarchical;
  config.strategy.hierarchy.cross_period = 4;

  const pr::RunResult r = pr::StartRun(config, pr::EngineKind::kSim);
  TopoRun out;
  // End loss = mean of the last three evaluations: single-eval noise at a
  // near-zero plateau would otherwise dominate the drift gate.
  const size_t tail = std::min<size_t>(3, r.curve.size());
  for (size_t i = r.curve.size() - tail; i < r.curve.size(); ++i) {
    out.final_loss += r.curve[i].loss / static_cast<double>(tail);
  }
  out.inter_node_bytes = r.metrics.counter("transport.inter_node_bytes");
  out.cross_groups = r.metrics.counter("topo.cross_node_groups");
  out.intra_groups = r.metrics.counter("topo.intra_node_groups");
  out.updates = r.updates;
  return out;
}

int RunTopoComparison() {
  int rc = 0;
  std::printf("=== Topology: flat vs hierarchical P-Reduce "
              "(8 workers/node, P=8) ===\n");
  pr::TablePrinter table({"N", "mode", "inter-node MB", "cross/intra groups",
                          "final loss"});
  for (int n : {128, 256}) {
    const TopoRun flat = RunTopoArm(n, /*hierarchical=*/false);
    const TopoRun hier = RunTopoArm(n, /*hierarchical=*/true);
    for (const auto* arm : {&flat, &hier}) {
      char mb[32], groups[48], loss[32];
      std::snprintf(mb, sizeof(mb), "%.2f", arm->inter_node_bytes / 1e6);
      std::snprintf(groups, sizeof(groups), "%.0f/%.0f", arm->cross_groups,
                    arm->intra_groups);
      std::snprintf(loss, sizeof(loss), "%.4f", arm->final_loss);
      table.AddRow({std::to_string(n), arm == &flat ? "flat" : "hier", mb,
                    groups, loss});
    }
    const double ratio =
        hier.inter_node_bytes > 0.0
            ? flat.inter_node_bytes / hier.inter_node_bytes
            : std::numeric_limits<double>::infinity();
    // Relative to flat, floored at 0.1 loss: at a near-zero plateau the
    // relative form would amplify eval jitter into phantom drift.
    const double loss_delta = std::fabs(hier.final_loss - flat.final_loss) /
                              std::max(flat.final_loss, 0.1);
    std::printf("N=%d inter-node byte ratio flat/hier = %.2f, "
                "loss delta = %.2f%%\n",
                n, ratio, 100.0 * loss_delta);
    if (ratio < 2.0) {
      std::fprintf(stderr,
                   "TOPO GATE: N=%d hierarchical P-Reduce only cut "
                   "inter-node bytes by %.2fx (need >= 2x)\n",
                   n, ratio);
      rc = 1;
    }
    if (loss_delta > 0.02) {
      std::fprintf(stderr,
                   "TOPO GATE: N=%d hierarchical end loss drifted %.2f%% "
                   "from flat (budget 2%%)\n",
                   n, 100.0 * loss_delta);
      rc = 1;
    }
  }
  table.Print();
  return rc;
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--topo-only") == 0) return RunTopoComparison();
  }
  for (const char* model : {"resnet18", "vgg16"}) {
    std::printf("=== Fig. 11: %s speedup vs workers (production "
                "heterogeneity) ===\n", model);
    pr::TablePrinter table(
        {"N", "AR", "PS-BK", "P-Reduce(P=4)", "ideal"});
    const double base = Throughput(model, pr::StrategyKind::kAllReduce, 1);
    for (int n : {4, 8, 16, 32}) {
      table.AddRow(
          {std::to_string(n),
           pr::FormatSpeedup(
               Throughput(model, pr::StrategyKind::kAllReduce, n) / base),
           pr::FormatSpeedup(
               Throughput(model, pr::StrategyKind::kPsBackup, n) / base),
           pr::FormatSpeedup(
               Throughput(model, pr::StrategyKind::kPReduceConst, n) / base),
           pr::FormatSpeedup(n)});
    }
    table.Print();
    std::printf("\n");
  }
  std::printf(
      "Expected shape: AR flattens with N; P-Reduce scales closest to\n"
      "ideal; ResNet-18 rows sit above VGG-16 rows. PS-BK benefits from\n"
      "persistent skew (it permanently sheds the slow quarter) but its\n"
      "dropped gradients carry real data — the statistical cost shows in\n"
      "bench_table1's #updates, not in raw throughput.\n");
  return 0;
}
