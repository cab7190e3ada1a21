#include "strategies/strategy.h"

#include "common/check.h"
#include "strategies/ad_psgd.h"
#include "strategies/all_reduce.h"
#include "strategies/p_reduce.h"
#include "strategies/server_strategy.h"

namespace pr {

std::unique_ptr<Strategy> MakeStrategy(const StrategyOptions& options,
                                       SimTraining* ctx) {
  PR_CHECK(ctx != nullptr);
  switch (options.kind) {
    case StrategyKind::kAllReduce:
      return std::make_unique<AllReduceStrategy>(ctx, options.compression);
    case StrategyKind::kAdPsgd:
      return std::make_unique<AdPsgdStrategy>(ctx, options.compression);
    case StrategyKind::kEagerReduce:
    case StrategyKind::kPsBsp:
    case StrategyKind::kPsAsp:
    case StrategyKind::kPsHete:
    case StrategyKind::kPsBackup:
      return std::make_unique<ServerStrategy>(ctx, options);
    case StrategyKind::kPReduceConst:
    case StrategyKind::kPReduceDynamic:
      return std::make_unique<PReduceStrategy>(ctx, options);
  }
  PR_CHECK(false) << "unreachable";
  return nullptr;
}

}  // namespace pr
