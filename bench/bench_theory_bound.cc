// Empirical check of Theorem 1's trends: the average squared gradient norm
// (1/K) sum_k ||∇F(u_k)||² of constant partial reduce should
//   (a) decay toward a noise floor as K grows (the O(1/(eta K)) term), and
//   (b) at fixed K, not degrade as P grows (larger P averages more
//       gradients per update and shrinks the network-error term:
//       rho = 1 - (P-1)/(N-1) falls with P).
// We measure on an IID homogeneous cluster, the assumptions' home turf,
// and print the closed-form constants (rho, rho_tilde, Eq. 7 LHS) next to
// the measurements.

#include <cstdio>

#include "core/spectral.h"
#include "train/run.h"
#include "train/report.h"

namespace {

/// Mean ||∇F(u_k)||² over the evaluations of one run of exactly
/// `max_updates` updates.
double MeanGradNormSq(int p, size_t max_updates, uint64_t seed) {
  pr::RunConfig config = pr::PaperSimConfig();
  config.run.num_workers = 8;
  config.run.model.hidden = {16};
  pr::SyntheticSpec spec;
  spec.num_train = 4096;
  spec.num_test = 512;
  spec.dim = 32;
  spec.num_classes = 4;
  spec.separation = 2.8;
  config.run.dataset = spec;
  config.run.sgd.learning_rate = 0.02;
  config.run.sgd.momentum = 0.0;  // Theorem 1 analyses plain SGD
  config.sim.paper_model = "resnet18";
  config.sim.accuracy_threshold = -1.0;
  config.sim.max_updates = max_updates;
  config.sim.eval_every = 25;
  config.sim.record_grad_norm = true;
  config.run.seed = seed;
  config.strategy.kind = pr::StrategyKind::kPReduceConst;
  config.strategy.group_size = p;

  pr::RunResult r = pr::StartRun(config, pr::EngineKind::kSim);
  double sum = 0.0;
  for (const auto& pt : r.curve) sum += pt.grad_norm_sq;
  return r.curve.empty() ? 0.0 : sum / static_cast<double>(r.curve.size());
}

double SeedMean(int p, size_t k) {
  double sum = 0.0;
  const int kSeeds = 3;
  for (uint64_t seed = 71; seed < 71 + kSeeds; ++seed) {
    sum += MeanGradNormSq(p, k, seed);
  }
  return sum / kSeeds;
}

}  // namespace

int main() {
  std::printf(
      "Theorem 1 trend check: avg ||grad F(u_k)||^2 for constant partial\n"
      "reduce, N=8, homogeneous, IID shards, plain SGD (3 seeds).\n\n");

  std::printf("Spectral constants (closed form):\n");
  pr::TablePrinter consts({"P", "rho", "rho_tilde", "Eq.7 LHS (gamma=0.02)"});
  for (int p : {2, 4, 8}) {
    const double rho = pr::HomogeneousRho(8, static_cast<size_t>(p));
    consts.AddRow({std::to_string(p), pr::FormatDouble(rho, 3),
                   rho < 1.0 ? pr::FormatDouble(pr::RhoTilde(rho), 2) : "-",
                   pr::FormatDouble(
                       pr::LrConditionLhs(0.02, 10.0, 8,
                                          static_cast<size_t>(p), rho),
                       3)});
  }
  consts.Print();

  std::printf("\nMeasured avg ||grad||^2 (lower is better):\n");
  pr::TablePrinter table({"K (updates)", "P=2", "P=4", "P=8"});
  for (size_t k : {250ul, 500ul, 1000ul, 2000ul}) {
    table.AddRow({std::to_string(k),
                  pr::FormatDouble(SeedMean(2, k), 4),
                  pr::FormatDouble(SeedMean(4, k), 4),
                  pr::FormatDouble(SeedMean(8, k), 4)});
  }
  table.Print();
  std::printf(
      "\nExpected: each column decays with K (sub-linear convergence to a\n"
      "stationary point); rows do not blow up as P shrinks while Eq. 7's\n"
      "condition holds — the O(1/sqrt(PK)) behaviour of Theorem 1.\n");
  return 0;
}
