#include "runtime/threaded_strategy.h"

#include "common/check.h"
#include "runtime/threaded_strategies.h"

namespace pr {

std::unique_ptr<ThreadedStrategy> MakeThreadedStrategy(
    const StrategyOptions& options) {
  switch (options.kind) {
    case StrategyKind::kPReduceConst:
    case StrategyKind::kPReduceDynamic:
      return MakeThreadedPReduce(options);
    case StrategyKind::kAllReduce:
      return MakeThreadedAllReduce(options);
    case StrategyKind::kAdPsgd:
      return MakeThreadedAdPsgd(options);
    case StrategyKind::kEagerReduce:
    case StrategyKind::kPsBsp:
    case StrategyKind::kPsAsp:
    case StrategyKind::kPsHete:
    case StrategyKind::kPsBackup:
      return MakeThreadedServer(options);
  }
  PR_CHECK(false) << "unknown StrategyKind";
  return nullptr;
}

}  // namespace pr
