// Spectral-gap analysis of partial reduce (paper §3.2, Fig. 4).
//
// Prints (a) the closed-form homogeneous rho = 1 - (P-1)/(N-1) across N and
// P, (b) an empirical E[W_k] measured from the controller under homogeneous
// and heterogeneous arrival patterns, reproducing Fig. 4's rho = 0.5 vs
// rho = 0.625 example, and (c) the learning-rate condition of Eq. (7).

#include <cstdio>

#include "core/controller.h"
#include "core/spectral.h"
#include "sim/sim_training.h"
#include "train/run.h"
#include "train/report.h"

namespace {

/// Measures rho from an actual simulated run with the controller recording
/// every W_k.
double MeasuredRho(const pr::HeteroSpec& hetero, int n, int p) {
  pr::RunConfig config = pr::PaperSimConfig();
  config.run.num_workers = n;
  config.sim.timing_only = true;
  config.sim.timing_updates = 6000;
  config.sim.hetero = hetero;
  config.run.seed = 3;
  config.strategy.kind = pr::StrategyKind::kPReduceConst;
  config.strategy.group_size = p;
  config.strategy.record_sync_matrices = true;

  pr::SimTraining ctx(config);
  auto strategy = pr::MakeStrategy(config.strategy, &ctx);
  strategy->Start();
  ctx.engine()->RunUntil([&] { return ctx.stopped(); });
  return pr::SpectralRho(strategy->controller()->ExpectedSyncMatrix());
}

}  // namespace

int main() {
  std::printf("Closed-form homogeneous rho = 1 - (P-1)/(N-1):\n\n");
  pr::TablePrinter table({"N", "P=2", "P=3", "P=4", "P=8"});
  for (int n : {3, 4, 8, 16, 32}) {
    std::vector<std::string> row = {std::to_string(n)};
    for (int p : {2, 3, 4, 8}) {
      row.push_back(p <= n ? pr::FormatDouble(pr::HomogeneousRho(n, p), 4)
                           : "-");
    }
    table.AddRow(row);
  }
  table.Print();

  std::printf("\nEmpirical rho from controller group histories (N=3, P=2):\n");
  const double rho_hom = MeasuredRho(pr::HeteroSpec::Homogeneous(), 3, 2);
  // The paper's Fig. 4(b) scenario: worker 0 exactly 2x slower.
  const double rho_het =
      MeasuredRho(pr::HeteroSpec::FixedFactors({2.0, 1.0, 1.0}), 3, 2);
  std::printf("  homogeneous   rho = %.3f (paper: 0.5)\n", rho_hom);
  std::printf("  heterogeneous rho = %.3f (paper: 0.625 with one 2x-slow "
              "worker)\n", rho_het);
  std::printf("  rho_tilde(hom) = %.3f, rho_tilde(het) = %.3f\n",
              pr::RhoTilde(rho_hom), pr::RhoTilde(rho_het));

  std::printf("\nLearning-rate condition Eq. (7), LHS <= 1 required "
              "(N=8, L=10):\n\n");
  pr::TablePrinter lr_table({"gamma", "P=2", "P=4", "P=8"});
  for (double gamma : {0.001, 0.01, 0.05, 0.1}) {
    std::vector<std::string> row = {pr::FormatDouble(gamma, 3)};
    for (int p : {2, 4, 8}) {
      const double rho = pr::HomogeneousRho(8, p);
      row.push_back(pr::FormatDouble(
          pr::LrConditionLhs(gamma, /*lipschitz_l=*/10.0, 8, p, rho), 3));
    }
    lr_table.AddRow(row);
  }
  lr_table.Print();
  return 0;
}
