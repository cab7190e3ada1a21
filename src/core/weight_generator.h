#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/enum_names.h"

namespace pr {

/// \brief Policy for the EMA probability mass of relative-iteration slots
/// that no group member occupies (§3.3.3 leaves room for "other
/// approximation strategies"; we implement both readings).
enum class MissingSlotPolicy {
  /// Drop unoccupied slots and renormalize over present members.
  kRenormalize,
  /// Give unoccupied slots' mass to the member(s) with the closest *staler*
  /// iteration number (falling back to the stalest member) — the paper's
  /// "approximate intermediate versions with an older model" reading.
  kAssignToStaler,
  /// Give unoccupied slots' mass to the occupied slot with the closest
  /// relative iteration number in either direction (ties go staler) — the
  /// paper's explicitly suggested alternative: "approximate intermediate
  /// model to the version of the closest iteration number".
  kAssignToNearest,
};

/// Tokens of the `strategy.dynamic.missing_slot` config key.
inline constexpr EnumName<MissingSlotPolicy> kMissingSlotPolicyNames[] = {
    {MissingSlotPolicy::kRenormalize, "renormalize"},
    {MissingSlotPolicy::kAssignToStaler, "staler"},
    {MissingSlotPolicy::kAssignToNearest, "nearest"},
};

/// \brief Options for dynamic (staleness-aware) weight generation.
struct DynamicWeightOptions {
  /// EMA decay alpha in [0, 1); larger alpha discounts stale models less.
  double alpha = 0.5;
  /// Iteration gaps up to this value are treated as the ordinary jitter of
  /// asynchronous execution, not staleness: relative iteration numbers are
  /// shifted down by the tolerance (floored at 1) before the EMA is
  /// applied, so a group whose counters differ by at most the tolerance
  /// aggregates uniformly like constant partial reduce. Penalizing only
  /// *excess* staleness is what keeps dynamic weights from adding noise in
  /// homogeneous clusters (cf. ExcessStalenessLrScale for PS-HETE).
  int64_t staleness_tolerance = 1;
  /// Default follows the paper's "conservative approximation" reading:
  /// missing intermediate versions are treated as older models, i.e. their
  /// EMA mass rolls to the nearest staler member. kRenormalize is the
  /// more aggressive alternative (see bench_ablation_dynamic).
  MissingSlotPolicy missing_slot_policy = MissingSlotPolicy::kAssignToStaler;
};

/// \brief Constant partial-reduce weights: 1/P for each of `group_size`
/// members (Alg. 2, line 7).
std::vector<double> ConstantWeights(size_t group_size);

/// \brief Dynamic partial-reduce weights from the members' iteration
/// numbers (§3.3.3).
///
/// Given the group's iteration counters k_i, define relative iteration
/// numbers khat_i = max_j k_j - k_i + 1, in [1, khat_max]. Slot khat gets
/// EMA mass proportional to (1 - alpha) * alpha^(khat - 1) (newest slot
/// khat = 1 gets the most), normalized by the bias-corrected denominator
/// (1 - alpha^khat_max). Members sharing a khat split that slot's mass
/// equally; unoccupied slots are handled per `options.missing_slot_policy`.
///
/// Returns one weight per member, aligned with `iterations`, summing to 1.
/// With alpha -> towards 1 or all iterations equal, weights approach 1/P.
std::vector<double> DynamicWeights(const std::vector<int64_t>& iterations,
                                   const DynamicWeightOptions& options);

/// \brief Relative iteration numbers khat_i = max_j k_j - k_i + 1.
std::vector<int64_t> RelativeIterations(
    const std::vector<int64_t>& iterations);

}  // namespace pr
