#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/enum_names.h"
#include "common/status.h"
#include "fault/fault_plan.h"
#include "obs/metrics.h"
#include "topo/topology.h"

namespace pr {

/// \brief One timed churn/fault event in a scenario trace.
///
/// Events are expressed in *scenario time* (seconds from run start). On
/// both engines a worker event (depart, arrive, slowdown, crash, hang) lands
/// on the local iteration `time / ScenarioSpec::expected_iteration_seconds`;
/// window lengths and partitions run on the engine's clock (wall seconds
/// threaded, virtual seconds simulated). Events target a single `worker`,
/// or — for the
/// correlated rack-wide shapes the production traces show — a whole
/// topology `node` (every worker placed on that node receives the event).
enum class ScenarioEventKind {
  kDepart = 0,    ///< worker leaves for `duration` seconds, then rejoins
  kArrive = 1,    ///< worker is absent from run start and joins at `time`
  kSlowdown = 2,  ///< compute stretched by `factor` for `duration` seconds
  kCrash = 3,     ///< worker process dies at `time` (fault-tolerant path)
  kHang = 4,      ///< worker stops mid-protocol at `time` (lease eviction)
  kPartition = 5  ///< network severed for `duration` seconds
};

struct ScenarioEvent {
  ScenarioEventKind kind = ScenarioEventKind::kDepart;
  double time = 0.0;   ///< scenario seconds from run start; >= 0
  int worker = -1;     ///< target worker id, or -1 when `node` targets a rack
  int node = -1;       ///< topology node id for correlated events, or -1
  double duration = 0.0;  ///< absence / window length in scenario seconds
  double factor = 1.0;    ///< slowdown multiplier (> 1 stretches compute)
};

/// \brief A deterministic churn trace: named, seeded, and replayable.
///
/// `expected_iteration_seconds` converts scenario time into local
/// iterations; it should approximate one training step's duration on the
/// engine that runs the trace (the simulator's as a fault-free probe run
/// measures it).
struct ScenarioSpec {
  std::string name = "scenario";
  uint64_t seed = 1;
  double expected_iteration_seconds = 0.01;
  std::vector<ScenarioEvent> events;

  bool enabled() const { return !events.empty(); }
};

/// Event-kind tokens of the prtrace dialects and the `scenario.event` key.
inline constexpr EnumName<ScenarioEventKind> kScenarioEventKindNames[] = {
    {ScenarioEventKind::kDepart, "depart"},
    {ScenarioEventKind::kArrive, "arrive"},
    {ScenarioEventKind::kSlowdown, "slowdown"},
    {ScenarioEventKind::kCrash, "crash"},
    {ScenarioEventKind::kHang, "hang"},
    {ScenarioEventKind::kPartition, "partition"},
};

inline const char* ScenarioEventKindName(ScenarioEventKind kind) {
  return NameOf(kScenarioEventKindNames, kind);
}

/// Text dialect: a `prtrace 1` header followed by key-value lines and one
/// `event <kind> time <t> [worker <w>] [node <n>] [duration <d>]
/// [factor <f>]` line per event. Same conventions as the `prconfig` /
/// `prtopo` dialects: '#' comments, blank lines skipped, unknown keys
/// rejected as version skew. Serialize/Parse round-trips byte-identically.
std::string SerializeScenario(const ScenarioSpec& spec);
Status ParseScenario(const std::string& text, ScenarioSpec* out);

/// JSON dialect, derived mechanically from the text dialect:
/// {"prtrace": 1, "name": "...", "seed": 1, "expected_iteration_seconds": x,
///  "events": [{"kind": "depart", "time": 0.5, "worker": 2, ...}, ...]}.
std::string ScenarioToJson(const ScenarioSpec& spec);
Status ScenarioFromJson(const std::string& json, ScenarioSpec* out);

/// Loads either dialect from a file, sniffing JSON by a leading '{'.
Status LoadScenario(const std::string& path, ScenarioSpec* out);

/// True for a trace name every dialect accepts: one token of letters,
/// digits, '_', '-' and '.'.
bool IsNameToken(const std::string& name);

/// Structural validation against a concrete run: event targets must resolve
/// (worker in [0, num_workers), node in [0, topology.num_nodes()) with a
/// non-flat topology), times must be finite and non-negative, durations
/// non-negative, slowdown factors >= 1.
Status ValidateScenario(const ScenarioSpec& spec, int num_workers,
                        const Topology& topology);

// ---------------------------------------------------------------------------
// Synthetic Tencent-like generators. All are pure functions of their
// options: same options, same trace, byte-for-byte.
// ---------------------------------------------------------------------------

/// Poisson churn: departures arrive as a Poisson process of rate
/// `departures_per_second` over [0, horizon); each departed worker stays
/// away for an exponential absence of mean `mean_absence_seconds`.
struct PoissonChurnOptions {
  int num_workers = 8;
  double horizon_seconds = 10.0;
  double departures_per_second = 0.5;
  double mean_absence_seconds = 1.0;
  uint64_t seed = 1;
};
ScenarioSpec MakePoissonChurnTrace(const PoissonChurnOptions& options);

/// Heavy-tailed slowdowns: slowdown windows arrive Poisson at
/// `events_per_second`; each window's stretch factor is Pareto-distributed
/// (tail index `pareto_alpha`, scale `min_factor`), matching the
/// straggler-duration tails in the paper's production measurements.
struct HeavyTailSlowdownOptions {
  int num_workers = 8;
  double horizon_seconds = 10.0;
  double events_per_second = 1.0;
  double pareto_alpha = 1.5;
  double min_factor = 1.5;
  double max_factor = 32.0;  ///< clamp so one draw cannot stall a whole run
  double window_seconds = 0.5;
  uint64_t seed = 1;
};
ScenarioSpec MakeHeavyTailSlowdownTrace(const HeavyTailSlowdownOptions& options);

/// Correlated rack-wide departures: whole topology nodes leave together
/// (eviction of a machine takes all its workers at once). Node picks and
/// departure times are Poisson at `departures_per_second`; each outage
/// lasts an exponential absence of mean `mean_absence_seconds`.
struct RackChurnOptions {
  double horizon_seconds = 10.0;
  double departures_per_second = 0.2;
  double mean_absence_seconds = 1.0;
  uint64_t seed = 1;
};
ScenarioSpec MakeRackChurnTrace(const Topology& topology,
                                const RackChurnOptions& options);

/// The CI reference trace: a fixed, hand-written schedule exercising >= 3
/// event kinds — a single-worker departure, a heavy slowdown window, and a
/// correlated departure of topology node `rack_node` (every worker on it) —
/// sized for a short smoke run of `iterations` steps per worker.
ScenarioSpec MakeReferenceTrace(int num_workers, const Topology& topology,
                                int iterations);

// ---------------------------------------------------------------------------
// Compilation: a scenario becomes engine-native event streams.
// ---------------------------------------------------------------------------

/// One elastic absence window, engine-agnostic: the worker sits out once
/// it has completed `after_iterations` local steps (0: before its first)
/// and stays away `pause_seconds` on the engine's clock. Engines hand them
/// to the P-Reduce worker cores, which decide when each one falls due.
struct ChurnWindow {
  int worker = -1;
  int after_iterations = 0;
  double pause_seconds = 0.0;
};

/// A compiled scenario: everything the engines consume.
///
/// - `fault` carries iteration-keyed crash/hang/slowdown events and timed
///   partition windows merged *into* the run's existing fault plan.
/// - `churn` carries depart/arrive absence windows.
struct CompiledScenario {
  FaultPlan fault;
  std::vector<ChurnWindow> churn;
};

/// Compiles `spec` against a run shape. `base` is the run's existing fault
/// plan; compiled events are merged into a copy (the scenario never erases
/// hand-written faults). Fails if ValidateScenario fails or if a node-keyed
/// event is used with a flat topology.
Status CompileScenario(const ScenarioSpec& spec, int num_workers,
                       const Topology& topology, const FaultPlan& base,
                       CompiledScenario* out);

/// The scenario.* compile counters and their values for `spec`
/// (events_total plus one per-kind counter, zeros included); both engines
/// add them at run start (RegisterRunMetrics).
std::vector<std::pair<const MetricDef<Counter>*, double>>
ScenarioMetricCounts(const ScenarioSpec& spec);

}  // namespace pr
