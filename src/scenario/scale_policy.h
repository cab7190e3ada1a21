#pragma once

#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/enum_names.h"

namespace pr {

/// \brief Which autoscaling policy watches the run.
///
/// - kNone: autoscaling off; the worker set only changes through the trace.
/// - kThreshold: classic hysteresis — shrink one worker when mean idle
///   fraction sits above `idle_high`, grow one when it sits below
///   `idle_low`.
/// - kTrend: least-squares slope over the last `trend_window` samples;
///   reacts to idle *rising* before it crosses the threshold (the paper's
///   production traces show straggler onset is gradual, so the trend fires
///   earlier than the threshold on the same schedule).
enum class ScalePolicyKind { kNone = 0, kThreshold = 1, kTrend = 2 };

inline constexpr EnumName<ScalePolicyKind> kScalePolicyKindNames[] = {
    {ScalePolicyKind::kNone, "none"},
    {ScalePolicyKind::kThreshold, "threshold"},
    {ScalePolicyKind::kTrend, "trend"},
};

/// \brief Autoscaling + graceful-degradation knobs, serialized under
/// `strategy.scale_policy.*` in both config dialects.
///
/// The degradation gates apply independently of `kind` (a trace-driven run
/// with no autoscaler still wants them):
/// - `min_group_size`: when fewer than P workers are live, the controller
///   forms smaller groups down to this size instead of holding workers
///   pending — partial progress beats none (the paper's P is a target, not
///   an invariant, during churn).
/// - `liveness_floor`: when the live set falls below this, workers stop
///   waiting on the controller verdict path and take local SGD steps until
///   membership recovers.
/// - `partition_ckpt_seconds`: a network partition lasting at least this
///   long forces a checkpoint cut at the next boundary, bounding lost work
///   if the partition turns out to be a prelude to failure.
struct ScalePolicyConfig {
  ScalePolicyKind kind = ScalePolicyKind::kNone;
  double interval_seconds = 0.25;  ///< evaluation cadence (both clocks)
  double idle_high = 0.5;          ///< shrink above this mean idle fraction
  double idle_low = 0.15;          ///< grow below this mean idle fraction
  int min_workers = 2;             ///< never shrink the live set below this
  int max_workers = 0;             ///< 0 = the run's num_workers
  int trend_window = 4;            ///< samples per trend fit (>= 2)

  int min_group_size = 0;
  int liveness_floor = 0;
  double partition_ckpt_seconds = 0.0;

  bool enabled() const { return kind != ScalePolicyKind::kNone; }
  bool degradation_enabled() const {
    return min_group_size > 0 || liveness_floor > 0 ||
           partition_ckpt_seconds > 0.0;
  }
};

/// \brief One observation of the run, engine-agnostic. The threaded engine
/// samples the live metrics registry on the wall clock; the simulator
/// samples its counters on virtual-time ticks. Both build it with
/// ScaleDirector::Sample.
struct ScaleSample {
  double mean_idle_fraction = 0.0;
  int active_workers = 0;
};

/// The live workers' mean idle fraction over one sampling span:
/// idle_delta / (span * active), clamped to [0, 1]; 0 when the span or the
/// active count is not positive.
double MeanIdleFraction(double idle_delta_seconds, double span_seconds,
                        int active_workers);

/// \brief Pure decision engine: feed samples, get desired live-set sizes.
///
/// Deterministic and side-effect free — both engines drive the same class,
/// and the unit tests exercise it with hand-written sample streams.
class ScalePolicy {
 public:
  ScalePolicy(const ScalePolicyConfig& config, int num_workers);

  /// Feeds one sample and returns the desired live worker count, clamped to
  /// [min_workers, max_workers]. Returning `sample.active_workers` means
  /// "no change". Policies move by one worker per decision: scaling is
  /// damped by design, churn is what it is reacting to.
  int Decide(const ScaleSample& sample);

  const ScalePolicyConfig& config() const { return config_; }

 private:
  int Clamp(int desired) const;

  ScalePolicyConfig config_;
  int num_workers_;
  std::vector<ScaleSample> window_;
};

/// \brief Thread-safe pause board between a scaling driver and worker loops.
///
/// Either engine's policy tick calls SetTarget with the policy's desired
/// live count; the board pauses the highest-id workers first and resumes
/// them in reverse, so the surviving set is always a prefix —
/// deterministic given the same decision stream. Workers poll
/// ShouldPause(me) at iteration boundaries and route through the same
/// kKindPause / kKindRejoin elastic paths a trace-driven departure uses.
class ScaleDirector {
 public:
  explicit ScaleDirector(int num_workers);

  /// Worker side (lock-free): true while `worker` should sit out.
  bool ShouldPause(int worker) const {
    return paused_[static_cast<size_t>(worker)].load(
        std::memory_order_acquire);
  }

  /// Driver side: adjusts the paused set toward `target` active workers
  /// (clamped to [1, num_workers]). Returns the signed change in the active
  /// count (positive = workers resumed, negative = workers paused) and, with
  /// `released`, appends the workers it resumed.
  int SetTarget(int target, std::vector<int>* released = nullptr);

  /// Active (unpaused) workers in the director's view. The trace may pause
  /// more behind its back; this tracks only policy-driven pauses.
  int active() const;

  /// The policy's sample over one span: active() and MeanIdleFraction.
  ScaleSample Sample(double idle_delta_seconds, double span_seconds) const;

 private:
  int num_workers_;
  mutable std::mutex mu_;  // serializes drivers; workers read atomics
  std::unique_ptr<std::atomic<bool>[]> paused_;
};

}  // namespace pr
