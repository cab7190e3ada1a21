#include "obs/metrics.h"

#include <algorithm>

#include "common/check.h"

namespace pr {
namespace {

// Relaxed atomic add for doubles via CAS (std::atomic<double>::fetch_add is
// C++20 but not guaranteed lock-free everywhere; the CAS loop compiles to
// the same thing where it is).
void AtomicAdd(std::atomic<double>* target, double delta) {
  double current = target->load(std::memory_order_relaxed);
  while (!target->compare_exchange_weak(current, current + delta,
                                        std::memory_order_relaxed)) {
  }
}

}  // namespace

std::string MetricName(std::string_view pattern, std::string_view slot) {
  const size_t open = pattern.find('<');
  PR_CHECK_EQ(open == std::string_view::npos, slot.empty())
      << "metric " << pattern << " given slot '" << slot << "'";
  if (slot.empty()) return std::string(pattern);
  const size_t close = pattern.find('>', open);
  PR_CHECK(close != std::string_view::npos) << "metric " << pattern;
  std::string name(pattern.substr(0, open));
  name += slot;
  name += pattern.substr(close + 1);
  return name;
}

void Counter::Increment(double delta) { AtomicAdd(&value_, delta); }

void Gauge::SetMax(double value) {
  double current = value_.load(std::memory_order_relaxed);
  while (current < value &&
         !value_.compare_exchange_weak(current, value,
                                       std::memory_order_relaxed)) {
  }
}

double HistogramSnapshot::Mean() const {
  return total_count == 0 ? 0.0 : sum / static_cast<double>(total_count);
}

double HistogramSnapshot::QuantileUpperBound(double q) const {
  if (total_count == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const uint64_t rank = static_cast<uint64_t>(
      q * static_cast<double>(total_count - 1));
  uint64_t seen = 0;
  for (size_t i = 0; i < counts.size(); ++i) {
    seen += counts[i];
    if (seen > rank) {
      return i < upper_bounds.size() ? upper_bounds[i] : upper_bounds.back();
    }
  }
  return upper_bounds.empty() ? 0.0 : upper_bounds.back();
}

Histogram::Histogram(std::vector<double> upper_bounds)
    : upper_bounds_(std::move(upper_bounds)),
      counts_(upper_bounds_.size() + 1) {
  PR_CHECK(!upper_bounds_.empty());
  PR_CHECK(std::is_sorted(upper_bounds_.begin(), upper_bounds_.end()));
}

void Histogram::Observe(double value) {
  const size_t bucket = static_cast<size_t>(
      std::lower_bound(upper_bounds_.begin(), upper_bounds_.end(), value) -
      upper_bounds_.begin());
  counts_[bucket].fetch_add(1, std::memory_order_relaxed);
  total_.fetch_add(1, std::memory_order_relaxed);
  AtomicAdd(&sum_, value);
}

HistogramSnapshot Histogram::Snapshot() const {
  HistogramSnapshot snap;
  snap.upper_bounds = upper_bounds_;
  snap.counts.reserve(counts_.size());
  for (const auto& c : counts_) {
    snap.counts.push_back(c.load(std::memory_order_relaxed));
  }
  snap.total_count = total_.load(std::memory_order_relaxed);
  snap.sum = sum_.load(std::memory_order_relaxed);
  return snap;
}

double MetricsSnapshot::counter(const std::string& name) const {
  auto it = counters.find(name);
  return it == counters.end() ? 0.0 : it->second;
}

double MetricsSnapshot::gauge(const std::string& name) const {
  auto it = gauges.find(name);
  return it == gauges.end() ? 0.0 : it->second;
}

const HistogramSnapshot* MetricsSnapshot::histogram(
    const std::string& name) const {
  auto it = histograms.find(name);
  return it == histograms.end() ? nullptr : &it->second;
}

Counter* MetricsShard::GetCounter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return slot.get();
}

Gauge* MetricsShard::GetGauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = gauges_[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return slot.get();
}

Histogram* MetricsShard::GetHistogram(const std::string& name,
                                      std::vector<double> upper_bounds) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = histograms_[name];
  if (!slot) {
    slot = std::make_unique<Histogram>(std::move(upper_bounds));
  } else {
    PR_CHECK(slot->upper_bounds() == upper_bounds)
        << "histogram " << name << " re-registered with different buckets";
  }
  return slot.get();
}

MetricsShard* MetricsRegistry::NewShard() {
  std::lock_guard<std::mutex> lock(mu_);
  shards_.push_back(std::unique_ptr<MetricsShard>(new MetricsShard(this)));
  return shards_.back().get();
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  MetricsSnapshot snap;
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> shard_lock(shard->mu_);
    for (const auto& [name, counter] : shard->counters_) {
      snap.counters[name] += counter->value();
    }
    for (const auto& [name, gauge] : shard->gauges_) {
      auto [it, inserted] = snap.gauges.try_emplace(name, gauge->value());
      if (!inserted) it->second = std::max(it->second, gauge->value());
    }
    for (const auto& [name, histogram] : shard->histograms_) {
      HistogramSnapshot h = histogram->Snapshot();
      auto [it, inserted] = snap.histograms.try_emplace(name, h);
      if (!inserted) {
        HistogramSnapshot& merged = it->second;
        PR_CHECK(merged.upper_bounds == h.upper_bounds)
            << "histogram " << name << " has mismatched buckets across shards";
        for (size_t i = 0; i < merged.counts.size(); ++i) {
          merged.counts[i] += h.counts[i];
        }
        merged.total_count += h.total_count;
        merged.sum += h.sum;
      }
    }
  }
  return snap;
}

MetricsSnapshot MergeSnapshots(const std::vector<MetricsSnapshot>& parts) {
  MetricsSnapshot merged;
  for (const MetricsSnapshot& part : parts) {
    for (const auto& [name, value] : part.counters) {
      merged.counters[name] += value;
    }
    for (const auto& [name, value] : part.gauges) {
      auto [it, inserted] = merged.gauges.try_emplace(name, value);
      if (!inserted) it->second = std::max(it->second, value);
    }
    for (const auto& [name, h] : part.histograms) {
      auto [it, inserted] = merged.histograms.try_emplace(name, h);
      if (inserted) continue;
      HistogramSnapshot& into = it->second;
      if (into.upper_bounds != h.upper_bounds) continue;  // first wins
      for (size_t i = 0; i < into.counts.size() && i < h.counts.size(); ++i) {
        into.counts[i] += h.counts[i];
      }
      into.total_count += h.total_count;
      into.sum += h.sum;
    }
  }
  return merged;
}

const std::vector<double>& DecisionLatencyBuckets() {
  static const std::vector<double> kBuckets = {
      1e-7, 2.5e-7, 5e-7, 1e-6, 2.5e-6, 5e-6, 1e-5,
      2.5e-5, 5e-5, 1e-4, 2.5e-4, 1e-3, 1e-2};
  return kBuckets;
}

const std::vector<double>& StalenessBuckets() {
  static const std::vector<double> kBuckets = {0, 1, 2,  3,  4,  5,  6,  7,
                                               8, 9, 10, 11, 12, 13, 14, 15};
  return kBuckets;
}

const std::vector<double>& CkptSaveSecondsBuckets() {
  // Checkpoint writes are filesystem-bound: decades from 10us to 10s cover
  // everything from a tiny proxy-model shard on tmpfs to a slow disk.
  static const std::vector<double> kBuckets = {
      1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0};
  return kBuckets;
}

const std::vector<double>& QueueDelayBuckets() {
  static const std::vector<double> kBuckets = {
      0.001, 0.003, 0.01, 0.03, 0.1, 0.3, 1.0, 3.0, 10.0, 30.0};
  return kBuckets;
}

}  // namespace pr
