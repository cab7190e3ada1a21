#pragma once

#include <memory>

#include "runtime/threaded_strategy.h"

namespace pr {

/// Internal per-family constructors behind MakeThreadedStrategy. Each lives
/// in its own strategy_*.cc translation unit.

/// kPReduceConst / kPReduceDynamic.
std::unique_ptr<ThreadedStrategy> MakeThreadedPReduce(
    const StrategyOptions& options);

/// kAllReduce.
std::unique_ptr<ThreadedStrategy> MakeThreadedAllReduce(
    const StrategyOptions& options);

/// kAdPsgd.
std::unique_ptr<ThreadedStrategy> MakeThreadedAdPsgd(
    const StrategyOptions& options);

/// kPsBsp / kPsAsp / kPsHete / kPsBackup / kEagerReduce.
std::unique_ptr<ThreadedStrategy> MakeThreadedServer(
    const StrategyOptions& options);

}  // namespace pr
