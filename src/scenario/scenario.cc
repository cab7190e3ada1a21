#include "scenario/scenario.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "common/check.h"
#include "common/line_reader.h"
#include "common/rng.h"
#include "obs/json.h"
#include "obs/metric_table.h"

namespace pr {
namespace {

Status JsonNumber(const JsonValue& value, const char* field, double* out) {
  if (!value.is_number()) {
    return Status::InvalidArgument(std::string("scenario json: bad event ") +
                                   field);
  }
  *out = value.number_value();
  return Status::OK();
}

// Converts a scenario time to the iteration index at which an
// iteration-keyed fault fires. floor() so an event inside step k's window
// fires at the k-th boundary in both engines.
int TimeToIteration(double time, double expected_iteration_seconds) {
  PR_CHECK_GT(expected_iteration_seconds, 0.0);
  return static_cast<int>(std::floor(time / expected_iteration_seconds));
}

}  // namespace

std::string SerializeScenario(const ScenarioSpec& spec) {
  std::ostringstream out;
  out << "prtrace 1\n";
  out << "name " << spec.name << '\n';
  out << "seed " << spec.seed << '\n';
  out << "expected_iteration_seconds "
      << FormatShortest(spec.expected_iteration_seconds) << '\n';
  for (const ScenarioEvent& e : spec.events) {
    out << "event " << ScenarioEventKindName(e.kind) << " time "
        << FormatShortest(e.time);
    if (e.worker >= 0) out << " worker " << e.worker;
    if (e.node >= 0) out << " node " << e.node;
    if (e.duration != 0.0) out << " duration " << FormatShortest(e.duration);
    if (e.factor != 1.0) out << " factor " << FormatShortest(e.factor);
    out << '\n';
  }
  return out.str();
}

Status ParseScenario(const std::string& text, ScenarioSpec* out) {
  LineReader lines(text, "prtrace", 1);
  ScenarioSpec spec;
  while (lines.Next()) {
    const std::string_view key = lines.key();
    if (key == "name") {
      PR_RETURN_NOT_OK(lines.Take(&spec.name));
      if (!IsNameToken(spec.name)) return lines.Bad();
    } else if (key == "seed") {
      PR_RETURN_NOT_OK(lines.Take(&spec.seed));
    } else if (key == "expected_iteration_seconds") {
      PR_RETURN_NOT_OK(lines.Take(&spec.expected_iteration_seconds));
      if (!(spec.expected_iteration_seconds > 0.0)) return lines.Bad();
    } else if (key == "event") {
      ScenarioEvent event;
      PR_RETURN_NOT_OK(lines.Take(&event.kind, kScenarioEventKindNames));
      bool saw_time = false;
      while (!lines.AtEnd()) {
        std::string field;
        PR_RETURN_NOT_OK(lines.Take(&field));
        if (field == "time") {
          PR_RETURN_NOT_OK(lines.Take(&event.time));
          saw_time = true;
        } else if (field == "worker") {
          PR_RETURN_NOT_OK(lines.Take(&event.worker));
        } else if (field == "node") {
          PR_RETURN_NOT_OK(lines.Take(&event.node));
        } else if (field == "duration") {
          PR_RETURN_NOT_OK(lines.Take(&event.duration));
        } else if (field == "factor") {
          PR_RETURN_NOT_OK(lines.Take(&event.factor));
        } else {
          return lines.Error("unknown event field '" + field + "'");
        }
      }
      if (!saw_time) return lines.Error("event missing time");
      spec.events.push_back(event);
    } else {
      // Unknown keys are version skew, not noise to skip.
      return lines.Error("unknown key '" + std::string(key) + "'");
    }
  }
  PR_RETURN_NOT_OK(lines.status());
  *out = std::move(spec);
  return Status::OK();
}

std::string ScenarioToJson(const ScenarioSpec& spec) {
  JsonWriter writer;
  writer.BeginObject();
  writer.Key("prtrace").Int(1);
  writer.Key("name").String(spec.name);
  writer.Key("seed").Number(static_cast<double>(spec.seed));
  writer.Key("expected_iteration_seconds")
      .Number(spec.expected_iteration_seconds);
  writer.Key("events").BeginArray();
  for (const ScenarioEvent& e : spec.events) {
    writer.BeginObject();
    writer.Key("kind").String(ScenarioEventKindName(e.kind));
    writer.Key("time").Number(e.time);
    if (e.worker >= 0) writer.Key("worker").Int(e.worker);
    if (e.node >= 0) writer.Key("node").Int(e.node);
    if (e.duration != 0.0) writer.Key("duration").Number(e.duration);
    if (e.factor != 1.0) writer.Key("factor").Number(e.factor);
    writer.EndObject();
  }
  writer.EndArray();
  writer.EndObject();
  return writer.str();
}

Status ScenarioFromJson(const std::string& json, ScenarioSpec* out) {
  JsonValue doc;
  PR_RETURN_NOT_OK(ParseJson(json, &doc));
  if (!doc.is_object()) {
    return Status::InvalidArgument("scenario json: not an object");
  }
  const JsonValue* marker = doc.Find("prtrace");
  if (marker == nullptr || !marker->is_number() ||
      marker->number_value() != 1.0) {
    return Status::InvalidArgument("scenario json: missing 'prtrace': 1");
  }
  ScenarioSpec spec;
  for (const auto& [key, value] : doc.members()) {
    if (key == "prtrace") continue;
    if (key == "name") {
      if (!value.is_string() || !IsNameToken(value.string_value())) {
        return Status::InvalidArgument("scenario json: bad name");
      }
      spec.name = value.string_value();
    } else if (key == "seed") {
      PR_RETURN_NOT_OK(JsonInt(value, "scenario json: seed", &spec.seed));
    } else if (key == "expected_iteration_seconds") {
      if (!value.is_number() || !(value.number_value() > 0.0)) {
        return Status::InvalidArgument(
            "scenario json: bad expected_iteration_seconds");
      }
      spec.expected_iteration_seconds = value.number_value();
    } else if (key == "events") {
      if (!value.is_array()) {
        return Status::InvalidArgument("scenario json: 'events' not an array");
      }
      for (const JsonValue& item : value.items()) {
        if (!item.is_object()) {
          return Status::InvalidArgument(
              "scenario json: event entry not an object");
        }
        ScenarioEvent event;
        bool saw_kind = false;
        bool saw_time = false;
        for (const auto& [ekey, evalue] : item.members()) {
          if (ekey == "kind") {
            if (!evalue.is_string() ||
                !ParseEnum(kScenarioEventKindNames, evalue.string_value(),
                           &event.kind)) {
              return Status::InvalidArgument(
                  "scenario json: bad event kind");
            }
            saw_kind = true;
          } else if (ekey == "time") {
            PR_RETURN_NOT_OK(JsonNumber(evalue, "time", &event.time));
            saw_time = true;
          } else if (ekey == "worker") {
            PR_RETURN_NOT_OK(
                JsonInt(evalue, "scenario json: event worker", &event.worker));
          } else if (ekey == "node") {
            PR_RETURN_NOT_OK(
                JsonInt(evalue, "scenario json: event node", &event.node));
          } else if (ekey == "duration") {
            PR_RETURN_NOT_OK(JsonNumber(evalue, "duration", &event.duration));
          } else if (ekey == "factor") {
            PR_RETURN_NOT_OK(JsonNumber(evalue, "factor", &event.factor));
          } else {
            return Status::InvalidArgument(
                "scenario json: unknown event field: " + ekey);
          }
        }
        if (!saw_kind || !saw_time) {
          return Status::InvalidArgument(
              "scenario json: event missing kind or time");
        }
        spec.events.push_back(event);
      }
    } else {
      return Status::InvalidArgument("scenario json: unknown key: " + key);
    }
  }
  *out = std::move(spec);
  return Status::OK();
}

Status LoadScenario(const std::string& path, ScenarioSpec* out) {
  std::string text;
  PR_RETURN_NOT_OK(ReadTextFile(path, &text));
  return IsJsonObjectText(text) ? ScenarioFromJson(text, out)
                                : ParseScenario(text, out);
}

bool IsNameToken(const std::string& name) {
  if (name.empty()) return false;
  for (char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == '-' || c == '.';
    if (!ok) return false;
  }
  return true;
}

Status ValidateScenario(const ScenarioSpec& spec, int num_workers,
                        const Topology& topology) {
  if (!IsNameToken(spec.name)) {
    return Status::InvalidArgument("scenario: bad name '" + spec.name + "'");
  }
  if (!(spec.expected_iteration_seconds > 0.0) ||
      !std::isfinite(spec.expected_iteration_seconds)) {
    return Status::InvalidArgument(
        "scenario: expected_iteration_seconds must be positive");
  }
  for (size_t i = 0; i < spec.events.size(); ++i) {
    const ScenarioEvent& e = spec.events[i];
    const std::string where =
        "scenario: event " + std::to_string(i) + " (" +
        ScenarioEventKindName(e.kind) + ")";
    if (!std::isfinite(e.time) || e.time < 0.0) {
      return Status::InvalidArgument(where + ": time must be >= 0");
    }
    if (!std::isfinite(e.duration) || e.duration < 0.0) {
      return Status::InvalidArgument(where + ": duration must be >= 0");
    }
    const bool has_worker = e.worker >= 0;
    const bool has_node = e.node >= 0;
    if (has_worker == has_node) {
      return Status::InvalidArgument(
          where + ": exactly one of worker/node must be set");
    }
    if (has_worker && e.worker >= num_workers) {
      return Status::InvalidArgument(where + ": worker " +
                                     std::to_string(e.worker) +
                                     " out of range");
    }
    if (has_node) {
      if (topology.flat()) {
        return Status::InvalidArgument(
            where + ": node-keyed event needs a non-flat topology");
      }
      if (e.node >= topology.num_nodes()) {
        return Status::InvalidArgument(where + ": node " +
                                       std::to_string(e.node) +
                                       " out of range");
      }
    }
    switch (e.kind) {
      case ScenarioEventKind::kDepart:
      case ScenarioEventKind::kHang:
      case ScenarioEventKind::kPartition:
        if (!(e.duration > 0.0)) {
          return Status::InvalidArgument(where +
                                         ": duration must be positive");
        }
        break;
      case ScenarioEventKind::kSlowdown:
        if (!(e.duration > 0.0)) {
          return Status::InvalidArgument(where +
                                         ": duration must be positive");
        }
        if (!std::isfinite(e.factor) || e.factor < 1.0) {
          return Status::InvalidArgument(where + ": factor must be >= 1");
        }
        break;
      case ScenarioEventKind::kArrive:
        if (!(e.time > 0.0)) {
          return Status::InvalidArgument(where + ": time must be positive");
        }
        break;
      case ScenarioEventKind::kCrash:
        break;
    }
  }
  return Status::OK();
}

ScenarioSpec MakePoissonChurnTrace(const PoissonChurnOptions& options) {
  PR_CHECK_GT(options.num_workers, 0);
  ScenarioSpec spec;
  spec.name = "poisson-churn";
  spec.seed = options.seed;
  Rng rng(options.seed ^ 0x70636875726eULL);  // "pchurn"
  // Workers already absent cannot depart again until they return.
  std::vector<double> busy_until(static_cast<size_t>(options.num_workers),
                                 0.0);
  double t = 0.0;
  while (true) {
    t += rng.Exponential(options.departures_per_second);
    if (t >= options.horizon_seconds) break;
    const int worker =
        static_cast<int>(rng.UniformInt(
            static_cast<uint64_t>(options.num_workers)));
    const double absence =
        rng.Exponential(1.0 / options.mean_absence_seconds);
    if (busy_until[static_cast<size_t>(worker)] > t) continue;
    ScenarioEvent e;
    e.kind = ScenarioEventKind::kDepart;
    e.time = t;
    e.worker = worker;
    e.duration = absence;
    busy_until[static_cast<size_t>(worker)] = t + absence;
    spec.events.push_back(e);
  }
  return spec;
}

ScenarioSpec MakeHeavyTailSlowdownTrace(
    const HeavyTailSlowdownOptions& options) {
  PR_CHECK_GT(options.num_workers, 0);
  PR_CHECK_GT(options.pareto_alpha, 0.0);
  ScenarioSpec spec;
  spec.name = "heavy-tail-slowdown";
  spec.seed = options.seed;
  Rng rng(options.seed ^ 0x736c6f77ULL);  // "slow"
  double t = 0.0;
  while (true) {
    t += rng.Exponential(options.events_per_second);
    if (t >= options.horizon_seconds) break;
    // Pareto(alpha, xm): xm * (1 - U)^(-1/alpha), the heavy-tailed straggler
    // magnitude distribution; clamped so one draw cannot stall a smoke run.
    const double u = rng.Uniform();
    double factor =
        options.min_factor * std::pow(1.0 - u, -1.0 / options.pareto_alpha);
    factor = std::min(factor, options.max_factor);
    ScenarioEvent e;
    e.kind = ScenarioEventKind::kSlowdown;
    e.time = t;
    e.worker = static_cast<int>(
        rng.UniformInt(static_cast<uint64_t>(options.num_workers)));
    e.duration = options.window_seconds;
    e.factor = factor;
    spec.events.push_back(e);
  }
  return spec;
}

ScenarioSpec MakeRackChurnTrace(const Topology& topology,
                                const RackChurnOptions& options) {
  PR_CHECK(!topology.flat()) << "rack churn needs a non-flat topology";
  ScenarioSpec spec;
  spec.name = "rack-churn";
  spec.seed = options.seed;
  Rng rng(options.seed ^ 0x7261636bULL);  // "rack"
  const int num_nodes = topology.num_nodes();
  std::vector<double> busy_until(static_cast<size_t>(num_nodes), 0.0);
  double t = 0.0;
  while (true) {
    t += rng.Exponential(options.departures_per_second);
    if (t >= options.horizon_seconds) break;
    const int node =
        static_cast<int>(rng.UniformInt(static_cast<uint64_t>(num_nodes)));
    const double absence =
        rng.Exponential(1.0 / options.mean_absence_seconds);
    if (busy_until[static_cast<size_t>(node)] > t) continue;
    ScenarioEvent e;
    e.kind = ScenarioEventKind::kDepart;
    e.time = t;
    e.node = node;
    e.duration = absence;
    busy_until[static_cast<size_t>(node)] = t + absence;
    spec.events.push_back(e);
  }
  return spec;
}

ScenarioSpec MakeReferenceTrace(int num_workers, const Topology& topology,
                                int iterations) {
  PR_CHECK_GE(num_workers, 2);
  PR_CHECK_GE(iterations, 10);
  ScenarioSpec spec;
  spec.name = "reference";
  spec.seed = 7;
  const double step = spec.expected_iteration_seconds;
  const double horizon = iterations * step;
  // Three event kinds on a fixed schedule: a lone departure early, a heavy
  // straggler window mid-run, and a correlated rack-wide departure (the
  // whole last node when placement is known, else the last worker) late.
  ScenarioEvent depart;
  depart.kind = ScenarioEventKind::kDepart;
  depart.time = 0.2 * horizon;
  depart.worker = 1;
  depart.duration = 0.15 * horizon;
  spec.events.push_back(depart);

  ScenarioEvent slowdown;
  slowdown.kind = ScenarioEventKind::kSlowdown;
  slowdown.time = 0.45 * horizon;
  slowdown.worker = 0;
  slowdown.duration = 0.15 * horizon;
  slowdown.factor = 3.0;
  spec.events.push_back(slowdown);

  ScenarioEvent rack;
  rack.kind = ScenarioEventKind::kDepart;
  rack.time = 0.7 * horizon;
  rack.duration = 0.15 * horizon;
  if (!topology.flat()) {
    rack.node = topology.num_nodes() - 1;
  } else {
    rack.worker = num_workers - 1;
  }
  spec.events.push_back(rack);
  return spec;
}

std::vector<std::pair<const MetricDef<Counter>*, double>>
ScenarioMetricCounts(const ScenarioSpec& spec) {
  double departs = 0, arrives = 0, slowdowns = 0, crashes = 0, hangs = 0,
         partitions = 0;
  for (const ScenarioEvent& e : spec.events) {
    switch (e.kind) {
      case ScenarioEventKind::kDepart: departs += 1; break;
      case ScenarioEventKind::kArrive: arrives += 1; break;
      case ScenarioEventKind::kSlowdown: slowdowns += 1; break;
      case ScenarioEventKind::kCrash: crashes += 1; break;
      case ScenarioEventKind::kHang: hangs += 1; break;
      case ScenarioEventKind::kPartition: partitions += 1; break;
    }
  }
  return {
      {&metric::kScenarioEventsTotal, static_cast<double>(spec.events.size())},
      {&metric::kScenarioDeparts, departs},
      {&metric::kScenarioArrives, arrives},
      {&metric::kScenarioSlowdowns, slowdowns},
      {&metric::kScenarioCrashes, crashes},
      {&metric::kScenarioHangs, hangs},
      {&metric::kScenarioPartitions, partitions},
  };
}

Status CompileScenario(const ScenarioSpec& spec, int num_workers,
                       const Topology& topology, const FaultPlan& base,
                       CompiledScenario* out) {
  Status status = ValidateScenario(spec, num_workers, topology);
  if (!status.ok()) return status;
  CompiledScenario compiled;
  compiled.fault = base;
  const double eis = spec.expected_iteration_seconds;
  // Node-keyed events expand to every worker on the node — the correlated
  // rack-wide shapes — before compilation proper.
  for (const ScenarioEvent& authored : spec.events) {
    std::vector<int> targets;
    if (authored.worker >= 0) {
      targets.push_back(authored.worker);
    } else {
      for (int w : topology.nodes()[static_cast<size_t>(authored.node)]) {
        if (w < num_workers) targets.push_back(w);
      }
    }
    for (int worker : targets) {
      switch (authored.kind) {
        case ScenarioEventKind::kDepart: {
          ChurnWindow window;
          window.worker = worker;
          window.after_iterations = TimeToIteration(authored.time, eis);
          window.pause_seconds = authored.duration;
          compiled.churn.push_back(window);
          break;
        }
        case ScenarioEventKind::kArrive: {
          // Absent from the start, joining at `time`.
          ChurnWindow window;
          window.worker = worker;
          window.after_iterations = 0;
          window.pause_seconds = authored.time;
          compiled.churn.push_back(window);
          break;
        }
        case ScenarioEventKind::kSlowdown: {
          WorkerFaultEvent event;
          event.worker = worker;
          event.kind = WorkerFaultEvent::Kind::kSlowdown;
          event.after_iterations = TimeToIteration(authored.time, eis);
          event.slowdown_factor = authored.factor;
          event.slowdown_iterations = std::max(
              1, TimeToIteration(authored.duration, eis));
          compiled.fault.worker_events.push_back(event);
          break;
        }
        case ScenarioEventKind::kCrash: {
          WorkerFaultEvent event;
          event.worker = worker;
          event.kind = WorkerFaultEvent::Kind::kCrash;
          event.after_iterations = TimeToIteration(authored.time, eis);
          compiled.fault.worker_events.push_back(event);
          break;
        }
        case ScenarioEventKind::kHang: {
          WorkerFaultEvent event;
          event.worker = worker;
          event.kind = WorkerFaultEvent::Kind::kHang;
          event.after_iterations = TimeToIteration(authored.time, eis);
          event.hang_seconds = authored.duration;
          compiled.fault.worker_events.push_back(event);
          break;
        }
        case ScenarioEventKind::kPartition: {
          PartitionEvent event;
          event.worker = worker;
          event.start_seconds = authored.time;
          event.duration_seconds = authored.duration;
          compiled.fault.partition_events.push_back(event);
          break;
        }
      }
    }
  }
  std::sort(compiled.churn.begin(), compiled.churn.end(),
            [](const ChurnWindow& a, const ChurnWindow& b) {
              if (a.worker != b.worker) return a.worker < b.worker;
              return a.after_iterations < b.after_iterations;
            });
  std::sort(compiled.fault.partition_events.begin(),
            compiled.fault.partition_events.end(),
            [](const PartitionEvent& a, const PartitionEvent& b) {
              return a.start_seconds < b.start_seconds;
            });
  if (compiled.fault.seed == 0) compiled.fault.seed = spec.seed;
  *out = std::move(compiled);
  return Status::OK();
}

}  // namespace pr
