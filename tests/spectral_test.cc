#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <queue>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "core/controller.h"
#include "core/spectral.h"
#include "topo/topology.h"

namespace pr {
namespace {

TEST(SpectralTest, Fig4aHomogeneousRhoIsHalf) {
  // N=3, P=2, all pairs equally likely: the paper's Fig. 4(a) value.
  SyncMatrixExpectation e(3);
  e.AddUniformGroup({0, 1});
  e.AddUniformGroup({1, 2});
  e.AddUniformGroup({0, 2});
  EXPECT_NEAR(SpectralRho(e.Mean()), 0.5, 1e-10);
}

TEST(SpectralTest, Fig4bHeterogeneousRho) {
  // Fig. 4(b): worker 3 twice as slow. In the steady pattern of the figure,
  // over one period of worker 3 (two fast iterations), the groups are
  // (1,2), (1,3), (2,3), (1,2) — the fast pair syncs twice as often as each
  // straggler pair. E[W] under that frequency gives rho = 0.625.
  SyncMatrixExpectation e(3);
  e.AddUniformGroup({0, 1});
  e.AddUniformGroup({0, 1});
  e.AddUniformGroup({0, 2});
  e.AddUniformGroup({1, 2});
  EXPECT_NEAR(SpectralRho(e.Mean()), 0.625, 1e-10);
}

TEST(SpectralTest, HomogeneousClosedForm) {
  EXPECT_NEAR(HomogeneousRho(3, 2), 0.5, 1e-12);
  EXPECT_NEAR(HomogeneousRho(8, 8), 0.0, 1e-12);
  EXPECT_NEAR(HomogeneousRho(8, 2), 1.0 - 1.0 / 7.0, 1e-12);
  EXPECT_NEAR(HomogeneousRho(16, 4), 1.0 - 3.0 / 15.0, 1e-12);
}

TEST(SpectralTest, ClosedFormMatchesEigensolverAcrossNP) {
  for (size_t n : {3u, 4u, 6u, 10u}) {
    for (size_t p = 2; p <= n; ++p) {
      // Build exact E[W] for uniform random groups: all C(n,p) groups.
      SyncMatrixExpectation e(n);
      // Enumerate combinations.
      std::vector<int> idx(p);
      for (size_t i = 0; i < p; ++i) idx[i] = static_cast<int>(i);
      while (true) {
        e.AddUniformGroup(idx);
        // next combination
        size_t k = p;
        while (k > 0) {
          --k;
          if (idx[k] < static_cast<int>(n - p + k)) {
            ++idx[k];
            for (size_t j = k + 1; j < p; ++j) idx[j] = idx[j - 1] + 1;
            break;
          }
          if (k == 0) goto done;
        }
      }
    done:
      EXPECT_NEAR(SpectralRho(e.Mean()), HomogeneousRho(n, p), 1e-9)
          << "n=" << n << " p=" << p;
    }
  }
}

TEST(SpectralTest, RhoDecreasesWithP) {
  double prev = 1.0;
  for (size_t p = 2; p <= 8; ++p) {
    double rho = HomogeneousRho(8, p);
    EXPECT_LT(rho, prev);
    prev = rho;
  }
}

TEST(SpectralTest, AllReduceHasZeroRhoAndNetworkError) {
  SyncMatrixExpectation e(4);
  e.AddUniformGroup({0, 1, 2, 3});
  EXPECT_NEAR(SpectralRho(e.Mean()), 0.0, 1e-10);
  EXPECT_DOUBLE_EQ(RhoTilde(0.0), 0.0);
}

TEST(SpectralTest, RhoTildeFormula) {
  const double rho = 0.5;
  const double sq = std::sqrt(rho);
  const double expected = rho / (1 - rho) + 2 * sq / ((1 - sq) * (1 - sq));
  EXPECT_NEAR(RhoTilde(rho), expected, 1e-12);
}

TEST(SpectralTest, RhoTildeMonotone) {
  double prev = -1.0;
  for (double rho = 0.0; rho < 0.95; rho += 0.05) {
    double rt = RhoTilde(rho);
    EXPECT_GT(rt, prev);
    prev = rt;
  }
}

TEST(SpectralTest, LrConditionTightensWithWorseRho) {
  // Same gamma: larger rho (more heterogeneity / smaller P) -> larger LHS.
  const double lhs_good = LrConditionLhs(0.05, 10.0, 8, 8, 0.0);
  const double lhs_bad = LrConditionLhs(0.05, 10.0, 8, 2,
                                        HomogeneousRho(8, 2));
  EXPECT_LT(lhs_good, lhs_bad);
}

TEST(SpectralTest, LrConditionSatisfiedForSmallGamma) {
  EXPECT_LT(LrConditionLhs(1e-4, 10.0, 8, 4, HomogeneousRho(8, 4)), 1.0);
}

TEST(SpectralTest, TheoremOneBoundDecomposition) {
  ConvergenceBoundTerms terms =
      TheoremOneBound(/*gamma=*/0.01, /*L=*/10.0, /*sigma_sq=*/1.0,
                      /*f_gap=*/5.0, /*n=*/8, /*p=*/4, /*k=*/10000,
                      HomogeneousRho(8, 4));
  EXPECT_GT(terms.sgd_error, 0.0);
  EXPECT_GT(terms.network_error, 0.0);
  EXPECT_DOUBLE_EQ(terms.total(), terms.sgd_error + terms.network_error);
}

TEST(SpectralTest, SgdErrorShrinksWithK) {
  auto t1 = TheoremOneBound(0.01, 10.0, 1.0, 5.0, 8, 4, 1000,
                            HomogeneousRho(8, 4));
  auto t2 = TheoremOneBound(0.01, 10.0, 1.0, 5.0, 8, 4, 100000,
                            HomogeneousRho(8, 4));
  EXPECT_LT(t2.sgd_error, t1.sgd_error);
  EXPECT_DOUBLE_EQ(t2.network_error, t1.network_error);
}

TEST(SpectralTest, NetworkErrorVanishesAtAllReduce) {
  auto terms = TheoremOneBound(0.01, 10.0, 1.0, 5.0, 8, 8, 10000, 0.0);
  EXPECT_DOUBLE_EQ(terms.network_error, 0.0);
}

TEST(SpectralTest, HierarchyWithinFlatBoundBasics) {
  // Identical rho trivially satisfies the bound; a degenerate rho >= 1
  // (disconnected expectation) never does.
  const double rho = HomogeneousRho(8, 2);
  EXPECT_TRUE(HierarchyWithinFlatBound(1e-3, 10.0, 8, 2, rho, rho));
  EXPECT_FALSE(HierarchyWithinFlatBound(1e-3, 10.0, 8, 2, rho, 1.0));
  EXPECT_FALSE(HierarchyWithinFlatBound(1e-3, 10.0, 8, 2, 1.0, rho));
  // A slightly larger hierarchical rho passes as long as the Eq. 7 LHS
  // stays within the flat config's own slack (max(1, lhs_flat)).
  EXPECT_TRUE(HierarchyWithinFlatBound(1e-4, 10.0, 8, 2, rho,
                                       0.5 * (1.0 + rho)));
}

// Drives a flat and a hierarchical controller through the same arrival
// pattern and checks the hierarchy's measured E[W_k] spectral gap survives:
// rho_hier < 1 (the expectation mixes) and the Theorem 1 learning-rate
// condition that the flat config satisfies still holds under rho_hier.
TEST(SpectralTest, HierarchicalExpectationKeepsTheoremOneGap) {
  const int n = 8;
  const int p = 2;
  ControllerOptions flat_opt;
  flat_opt.num_workers = n;
  flat_opt.group_size = p;
  flat_opt.record_sync_matrices = true;

  ControllerOptions hier_opt = flat_opt;
  Status s = Topology::FromNodes({{0, 1, 2, 3}, {4, 5, 6, 7}},
                                 &hier_opt.topology);
  ASSERT_TRUE(s.ok()) << s.message();
  hier_opt.hierarchy.enabled = true;
  hier_opt.hierarchy.cross_period = 3;

  Controller flat(flat_opt);
  Controller hier(hier_opt);
  // Interleaved arrivals: both nodes always represented in the queue.
  for (int round = 0; round < 60; ++round) {
    for (int w : {0, 4, 1, 5, 2, 6, 3, 7}) {
      flat.OnReadySignal(w, round);
      hier.OnReadySignal(w, round);
    }
  }
  ASSERT_GT(hier.stats().cross_node_groups, 0u);
  ASSERT_GT(hier.stats().intra_node_groups, 0u);

  const double rho_flat = SpectralRho(flat.ExpectedSyncMatrix());
  const double rho_hier = SpectralRho(hier.ExpectedSyncMatrix());
  EXPECT_LT(rho_flat, 1.0);
  EXPECT_LT(rho_hier, 1.0);  // merges keep E[W_k] mixing
  // Same Theorem 1 learning-rate condition (Eq. 7) the flat config is run
  // under: the hierarchy must not break it.
  const double gamma = 1e-3;
  const double lipschitz_l = 10.0;
  EXPECT_TRUE(HierarchyWithinFlatBound(gamma, lipschitz_l, n, p, rho_flat,
                                       rho_hier));
}

/// Drives a flat P=2 controller in virtual time through a straggler
/// schedule: the N-1 fast workers step 1.0 with seeded +-10% jitter, worker
/// N-1 steps 6.0, and every reduce takes 0.3. A worker signals when its step
/// ends and starts the next step when its group's reduce ends. Stops once
/// `groups` groups have formed (or when no worker is left running) and
/// returns the measured rho of E[W_k].
double StragglerScheduleRho(int n, uint64_t groups, uint64_t seed) {
  ControllerOptions opt;
  opt.num_workers = n;
  opt.group_size = 2;
  opt.record_sync_matrices = true;
  Controller c(opt);
  Rng rng(seed);
  auto step = [&](int w) { return w == n - 1 ? 6.0 : rng.Uniform(0.9, 1.1); };
  using Signal = std::pair<double, int>;  // (virtual time, worker)
  std::priority_queue<Signal, std::vector<Signal>, std::greater<Signal>> next;
  for (int w = 0; w < n; ++w) next.push({step(w), w});
  std::vector<int64_t> iteration(static_cast<size_t>(n), 0);
  while (c.stats().groups_formed < groups && !next.empty()) {
    const auto [now, w] = next.top();
    next.pop();
    for (const GroupDecision& d :
         c.OnReadySignal(w, ++iteration[static_cast<size_t>(w)])) {
      for (int m : d.members) next.push({now + 0.3 + step(m), m});
    }
  }
  EXPECT_GE(c.stats().groups_formed, groups) << "schedule stalled";
  EXPECT_GT(c.stats().bridged_groups, 0u);
  return SpectralRho(c.ExpectedSyncMatrix());
}

// Fast workers are not held for a straggler that cannot group by itself;
// its signals are bridged as they arrive. The measured E[W_k] must still
// have a spectral gap and meet the Theorem 1 learning-rate condition (Eq. 7)
// that the homogeneous schedule meets.
TEST(SpectralTest, StragglerScheduleKeepsTheoremOneGap) {
  for (int n : {4, 8}) {
    const double rho = StragglerScheduleRho(n, 4000, 11);
    EXPECT_LT(rho, 1.0) << "n=" << n;
    const size_t workers = static_cast<size_t>(n);
    EXPECT_TRUE(HierarchyWithinFlatBound(1e-3, 10.0, workers, 2,
                                         HomogeneousRho(workers, 2), rho))
        << "n=" << n << " rho=" << rho;
  }
}

}  // namespace
}  // namespace pr
