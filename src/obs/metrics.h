#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace pr {

/// \brief A monotonically increasing counter (double-valued so second
/// accumulators fit; integral counts stay exact up to 2^53).
///
/// Increment is a relaxed atomic add: safe from any thread, cheap enough for
/// per-iteration use. Fetch the handle once (MetricsShard::GetCounter) and
/// hold it across the hot loop — the name lookup takes a lock, the increment
/// does not.
class Counter {
 public:
  void Increment(double delta = 1.0);
  double value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// \brief A last-written / high-water value. Set overwrites; SetMax keeps
/// the maximum ever observed (the natural semantics for "stash high-water"
/// style diagnostics). Across shards, gauges merge by maximum.
class Gauge {
 public:
  void Set(double value) { value_.store(value, std::memory_order_relaxed); }
  void SetMax(double value);
  double value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// \brief Snapshot of one histogram, merged across shards.
struct HistogramSnapshot {
  /// Ascending bucket upper bounds; bucket i counts observations
  /// v <= upper_bounds[i] (first match). counts.back() is the overflow
  /// bucket (v > upper_bounds.back()).
  std::vector<double> upper_bounds;
  std::vector<uint64_t> counts;  ///< size = upper_bounds.size() + 1
  uint64_t total_count = 0;
  double sum = 0.0;

  double Mean() const;
  /// Upper bound of the bucket containing quantile `q` in [0, 1]
  /// (upper_bounds.back() for the overflow bucket); 0 when empty.
  double QuantileUpperBound(double q) const;
};

/// \brief A fixed-bucket histogram. Observe is a pair of relaxed atomic
/// increments plus a binary search over the (immutable) bounds — no locks,
/// per-iteration cheap.
class Histogram {
 public:
  explicit Histogram(std::vector<double> upper_bounds);

  void Observe(double value);
  HistogramSnapshot Snapshot() const;
  const std::vector<double>& upper_bounds() const { return upper_bounds_; }

 private:
  std::vector<double> upper_bounds_;
  std::vector<std::atomic<uint64_t>> counts_;  // upper_bounds_.size() + 1
  std::atomic<double> sum_{0.0};
  std::atomic<uint64_t> total_{0};
};

/// \brief Merged view of every instrument in a registry, keyed by name.
///
/// Merge rules across shards: counters and histogram buckets sum; gauges
/// take the maximum (per-worker metrics use shard-unique names, so the rule
/// only matters for deliberately shared high-water gauges).
struct MetricsSnapshot {
  std::map<std::string, double> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, HistogramSnapshot> histograms;

  /// Value lookups that return 0 / null for absent names, so callers can
  /// probe optional instrumentation without branching on strategy kind.
  double counter(const std::string& name) const;
  double gauge(const std::string& name) const;
  const HistogramSnapshot* histogram(const std::string& name) const;
};

/// \brief Merges already-scraped snapshots under the same rules a registry
/// applies to its shards: counters and histogram buckets sum, gauges take
/// the maximum. Histograms whose bucket bounds disagree keep the first
/// occurrence. The multi-process launcher uses this to fold per-process
/// reports into one run-level snapshot with the usual metric names.
MetricsSnapshot MergeSnapshots(const std::vector<MetricsSnapshot>& parts);

/// \brief When a run registers a metric. Each entry of the metric table
/// (obs/metric_table.h) names one gate; a run opens the gates its
/// configuration and engine call for and registers every entry they open.
enum class MetricGate : uint8_t {
  kAlways,       ///< every run, on both engines
  kController,   ///< the P-Reduce kinds (the controller)
  kServer,       ///< the ServerCore kinds: Eager-Reduce and the PS family
  kFault,        ///< an enabled fault plan, a compiled scenario's included
  kScenario,     ///< ScenarioMode: a scenario, scale policy or degradation
  kCkpt,         ///< coordinated checkpointing, or a resumed run
  kCompression,  ///< a gradient codec
  kThreaded,     ///< the threaded engine only
  kSim,          ///< the simulator only
  kService,      ///< the training service, not a run
};

/// \brief A set of open gates; kAlways is always open.
class MetricGates {
 public:
  MetricGates& Open(MetricGate gate, bool when = true) {
    if (when) bits_ |= 1u << static_cast<unsigned>(gate);
    return *this;
  }
  bool open(MetricGate gate) const {
    return (bits_ >> static_cast<unsigned>(gate) & 1u) != 0;
  }
  static MetricGates All() {
    MetricGates all;
    all.bits_ = ~0u;
    return all;
  }

 private:
  uint32_t bits_ = 1u;  // kAlways
};

/// \brief One metric, declared once in obs/metric_table.h: its name, the
/// gate that registers it and, for a Histogram, its bucket bounds. `T` is
/// the instrument (Counter, Gauge or Histogram). The name may hold one slot
/// -- `<i>` (a worker id), `<tenant>` or `<state>` -- that the instrument
/// site fills.
template <typename T>
struct MetricDef {
  using Instrument = T;
  const char* name;
  MetricGate gate;
  const std::vector<double>& (*buckets)() = nullptr;
};

/// `pattern` with its slot replaced by `slot`; `slot` must be non-empty
/// exactly when the pattern has one.
std::string MetricName(std::string_view pattern, std::string_view slot = {});

class MetricsRegistry;

/// \brief One thread's (or one subsystem's) set of instruments.
///
/// Instruments are created on first Get*; the returned handles stay valid
/// for the shard's lifetime and their updates are lock-free. The Get* calls
/// themselves take the shard lock — hoist them out of hot loops.
///
/// Same-named instruments in different shards merge at snapshot time; a
/// worker thread owning its shard therefore never contends with another
/// thread on the hot path.
class MetricsShard {
 public:
  Counter* GetCounter(const std::string& name);
  Gauge* GetGauge(const std::string& name);
  /// `upper_bounds` must be strictly ascending and must match any earlier
  /// registration of the same name in this shard.
  Histogram* GetHistogram(const std::string& name,
                          std::vector<double> upper_bounds);

  /// The instrument `def` declares, its slot filled with `slot`; null when
  /// the registry's run did not open `def`'s gate.
  template <typename T>
  T* Get(const MetricDef<T>& def, std::string_view slot = {});
  /// `def`'s `<i>` instrument for `worker`.
  template <typename T>
  T* Get(const MetricDef<T>& def, int worker) {
    return Get(def, std::to_string(worker));
  }

 private:
  friend class MetricsRegistry;
  explicit MetricsShard(const MetricsRegistry* registry)
      : registry_(registry) {}

  const MetricsRegistry* registry_;

  mutable std::mutex mu_;  // guards the maps, not the instruments
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

/// \brief The run-wide metrics registry: hands out per-thread shards and
/// merges them into a MetricsSnapshot at scrape time.
///
/// Snapshot may run concurrently with writers (all instrument updates are
/// relaxed atomics), but a consistent cut is only guaranteed once writer
/// threads have quiesced — the runtimes scrape after joining their threads.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Creates a shard owned by the registry. Thread-safe.
  MetricsShard* NewShard();

  /// Opens `gates` for every shard of this registry and registers, at zero
  /// in a new shard (returned), each metric-table entry they open: a `<i>`
  /// entry once per worker in [0, num_workers), an entry with another slot
  /// on first use. Call once at run start, before the run's threads. A
  /// registry never opened hands out every instrument.
  MetricsShard* Open(MetricGates gates, int num_workers);

  MetricsSnapshot Snapshot() const;

 private:
  friend class MetricsShard;
  MetricGates gates_ = MetricGates::All();
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<MetricsShard>> shards_;
};

template <typename T>
T* MetricsShard::Get(const MetricDef<T>& def, std::string_view slot) {
  if (!registry_->gates_.open(def.gate)) return nullptr;
  std::string name = MetricName(def.name, slot);
  if constexpr (std::is_same_v<T, Histogram>) {
    return GetHistogram(name, def.buckets());
  } else if constexpr (std::is_same_v<T, Gauge>) {
    return GetGauge(name);
  } else {
    static_assert(std::is_same_v<T, Counter>);
    return GetCounter(name);
  }
}

/// Canonical buckets for controller decision latency (seconds): 100 ns up
/// to 10 ms. Shared by the simulator and threaded paths so the metric is
/// comparable across engines.
const std::vector<double>& DecisionLatencyBuckets();

/// Canonical buckets for PS push staleness: exact integer buckets 0..15
/// plus overflow, matching the legacy per-value staleness histogram.
const std::vector<double>& StalenessBuckets();

/// Canonical buckets for ckpt.save_seconds (checkpoint write latency).
const std::vector<double>& CkptSaveSecondsBuckets();

/// Buckets for service.queue_delay_seconds (submit to lease).
const std::vector<double>& QueueDelayBuckets();

}  // namespace pr
