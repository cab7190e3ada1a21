#include "obs/metric_table.h"

#include <type_traits>

namespace pr {
namespace {

/// Calls `fn(def, slot)` for every instrument `gates` registers at run
/// start: once for an entry without a slot, once per worker for a `<i>`
/// entry. Entries with another slot register on first use.
template <typename Fn>
void ForEachRunInstrument(MetricGates gates, int num_workers, Fn&& fn) {
  const auto visit = [&](const auto& def) {
    if (!gates.open(def.gate)) return;
    const std::string_view name = def.name;
    if (name.find('<') == std::string_view::npos) {
      fn(def, std::string());
    } else if (name.find("<i>") != std::string_view::npos) {
      for (int w = 0; w < num_workers; ++w) fn(def, std::to_string(w));
    }
  };
#define PR_METRIC_VISIT(id, ...) visit(metric::id);
  PR_METRIC_TABLE(PR_METRIC_VISIT)
#undef PR_METRIC_VISIT
}

}  // namespace

MetricsShard* MetricsRegistry::Open(MetricGates gates, int num_workers) {
  gates_ = gates;
  MetricsShard* shard = NewShard();
  ForEachRunInstrument(gates, num_workers,
                       [&](const auto& def, const std::string& slot) {
                         shard->Get(def, slot);
                       });
  return shard;
}

MetricNames ExpandMetricTable(MetricGates gates, int num_workers) {
  MetricNames names;
  ForEachRunInstrument(
      gates, num_workers, [&](const auto& def, const std::string& slot) {
        using T = typename std::decay_t<decltype(def)>::Instrument;
        std::set<std::string>* into = &names.counters;
        if constexpr (std::is_same_v<T, Gauge>) into = &names.gauges;
        if constexpr (std::is_same_v<T, Histogram>) into = &names.histograms;
        into->insert(MetricName(def.name, slot));
      });
  return names;
}

}  // namespace pr
