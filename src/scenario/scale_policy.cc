#include "scenario/scale_policy.h"

#include <algorithm>

#include "common/check.h"

namespace pr {

ScalePolicy::ScalePolicy(const ScalePolicyConfig& config, int num_workers)
    : config_(config), num_workers_(num_workers) {
  PR_CHECK_GT(num_workers_, 0);
  if (config_.max_workers <= 0) config_.max_workers = num_workers_;
  config_.max_workers = std::min(config_.max_workers, num_workers_);
  config_.min_workers = std::max(1, std::min(config_.min_workers,
                                             config_.max_workers));
  config_.trend_window = std::max(2, config_.trend_window);
}

double MeanIdleFraction(double idle_delta_seconds, double span_seconds,
                        int active_workers) {
  if (span_seconds <= 0.0 || active_workers <= 0) return 0.0;
  return std::clamp(idle_delta_seconds /
                        (span_seconds * static_cast<double>(active_workers)),
                    0.0, 1.0);
}

int ScalePolicy::Clamp(int desired) const {
  return std::max(config_.min_workers,
                  std::min(config_.max_workers, desired));
}

int ScalePolicy::Decide(const ScaleSample& sample) {
  const int active = Clamp(sample.active_workers);
  switch (config_.kind) {
    case ScalePolicyKind::kNone:
      return active;
    case ScalePolicyKind::kThreshold: {
      if (sample.mean_idle_fraction > config_.idle_high) {
        return Clamp(active - 1);
      }
      if (sample.mean_idle_fraction < config_.idle_low) {
        return Clamp(active + 1);
      }
      return active;
    }
    case ScalePolicyKind::kTrend: {
      window_.push_back(sample);
      const size_t w = static_cast<size_t>(config_.trend_window);
      if (window_.size() > w) {
        window_.erase(window_.begin(),
                      window_.begin() + (window_.size() - w));
      }
      if (window_.size() < w) return active;
      // Least-squares slope of idle fraction over the window, in idle
      // units per sample (sample spacing is the policy interval, so a
      // per-sample slope is already cadence-normalized).
      const double n = static_cast<double>(window_.size());
      double sx = 0.0, sy = 0.0, sxx = 0.0, sxy = 0.0;
      for (size_t i = 0; i < window_.size(); ++i) {
        const double x = static_cast<double>(i);
        const double y = window_[i].mean_idle_fraction;
        sx += x;
        sy += y;
        sxx += x * x;
        sxy += x * y;
      }
      const double denom = n * sxx - sx * sx;
      const double slope = denom != 0.0 ? (n * sxy - sx * sy) / denom : 0.0;
      const double mid = 0.5 * (config_.idle_low + config_.idle_high);
      const double latest = window_.back().mean_idle_fraction;
      // Rising idle above the midpoint: capacity is going to waste, shed a
      // worker before the threshold trips. Falling idle below the midpoint:
      // demand is returning, re-admit one.
      constexpr double kSlopeEpsilon = 1e-3;
      if (slope > kSlopeEpsilon && latest > mid) return Clamp(active - 1);
      if (slope < -kSlopeEpsilon && latest < mid) return Clamp(active + 1);
      // The threshold still backstops the trend at the extremes.
      if (latest > config_.idle_high) return Clamp(active - 1);
      if (latest < config_.idle_low) return Clamp(active + 1);
      return active;
    }
  }
  return active;
}

ScaleDirector::ScaleDirector(int num_workers)
    : num_workers_(num_workers),
      paused_(new std::atomic<bool>[static_cast<size_t>(num_workers)]) {
  PR_CHECK_GT(num_workers_, 0);
  for (int w = 0; w < num_workers_; ++w) {
    paused_[static_cast<size_t>(w)].store(false, std::memory_order_relaxed);
  }
}

int ScaleDirector::active() const {
  std::lock_guard<std::mutex> lock(mu_);
  int live = 0;
  for (int w = 0; w < num_workers_; ++w) {
    if (!paused_[static_cast<size_t>(w)].load(std::memory_order_relaxed)) {
      ++live;
    }
  }
  return live;
}

ScaleSample ScaleDirector::Sample(double idle_delta_seconds,
                                  double span_seconds) const {
  ScaleSample sample;
  sample.active_workers = active();
  sample.mean_idle_fraction = MeanIdleFraction(
      idle_delta_seconds, span_seconds, sample.active_workers);
  return sample;
}

int ScaleDirector::SetTarget(int target, std::vector<int>* released) {
  target = std::max(1, std::min(target, num_workers_));
  std::lock_guard<std::mutex> lock(mu_);
  int live = 0;
  for (int w = 0; w < num_workers_; ++w) {
    if (!paused_[static_cast<size_t>(w)].load(std::memory_order_relaxed)) {
      ++live;
    }
  }
  int delta = 0;
  // Shed from the top of the id range, readmit from the bottom of the
  // paused range: the active set stays a prefix.
  for (int w = num_workers_ - 1; w >= 0 && live > target; --w) {
    std::atomic<bool>& p = paused_[static_cast<size_t>(w)];
    if (!p.load(std::memory_order_relaxed)) {
      p.store(true, std::memory_order_release);
      --live;
      --delta;
    }
  }
  for (int w = 0; w < num_workers_ && live < target; ++w) {
    std::atomic<bool>& p = paused_[static_cast<size_t>(w)];
    if (p.load(std::memory_order_relaxed)) {
      p.store(false, std::memory_order_release);
      ++live;
      ++delta;
      if (released != nullptr) released->push_back(w);
    }
  }
  return delta;
}

}  // namespace pr
