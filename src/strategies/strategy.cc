#include "strategies/strategy.h"

#include "common/check.h"
#include "strategies/ad_psgd.h"
#include "strategies/all_reduce.h"
#include "strategies/eager_reduce.h"
#include "strategies/p_reduce.h"
#include "strategies/parameter_server.h"

namespace pr {

std::unique_ptr<Strategy> MakeStrategy(const StrategyOptions& options,
                                       SimTraining* ctx) {
  PR_CHECK(ctx != nullptr);
  switch (options.kind) {
    case StrategyKind::kAllReduce:
      return std::make_unique<AllReduceStrategy>(ctx, options.compression);
    case StrategyKind::kEagerReduce:
      return std::make_unique<EagerReduceStrategy>(ctx, options);
    case StrategyKind::kAdPsgd:
      return std::make_unique<AdPsgdStrategy>(ctx);
    case StrategyKind::kPsBsp:
      return std::make_unique<PsBspStrategy>(ctx);
    case StrategyKind::kPsAsp:
      return std::make_unique<PsAsyncStrategy>(ctx, /*staleness_aware=*/false);
    case StrategyKind::kPsHete:
      return std::make_unique<PsAsyncStrategy>(ctx, /*staleness_aware=*/true);
    case StrategyKind::kPsBackup:
      return std::make_unique<PsBackupStrategy>(ctx, options.backup_workers);
    case StrategyKind::kPReduceConst:
    case StrategyKind::kPReduceDynamic:
      return std::make_unique<PReduceStrategy>(ctx, options);
  }
  PR_CHECK(false) << "unreachable";
  return nullptr;
}

}  // namespace pr
