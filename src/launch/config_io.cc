#include "launch/config_io.h"

#include <algorithm>
#include <sstream>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/line_reader.h"
#include "obs/json.h"

namespace pr {
namespace {

// Range checks a double column may carry; both reject NaN.
using Check = bool (*)(double);
bool Positive(double v) { return v > 0.0; }
bool NonNegative(double v) { return v >= 0.0; }
using TokenCheck = bool (*)(const std::string&);

// Topology keeps its fields private, so the table reads and writes this
// mirror. Readers apply it after the last record, which validates the node
// rows as one placement however they were ordered.
struct TopologyFields {
  double inter_cost;
  double inter_latency_factor;
  std::vector<std::vector<int>> nodes;
};

TopologyFields MirrorOf(const Topology& topology) {
  return {topology.inter_cost(), topology.inter_latency_factor(),
          topology.nodes()};
}

template <class Col, class Spec>
void EdgeColumns(Col& col, Spec& spec) {
  col(spec.drop_prob);
  col(spec.dup_prob);
  col(spec.delay_prob);
  col(spec.delay_seconds);
}

// The field table: every prconfig key, declared once, in the order the
// writers emit them. A walker `w` sees each key in one of four layouts:
//
//   w(key, field [, names | check])  one line holding one value;
//   w.Row(key, columns)              one line holding several values;
//   w.List(key, seq, columns)        one line per vector or map element
//                                    (absent while empty; the first line a
//                                    reader meets replaces the default);
//   w.Text(key, string)              the rest of the line (may hold spaces).
//
// `columns(col, ...)` lists a line's values in order: col(field), col(enum,
// names), col(double, check), col(string, token check), or col(ints) for a
// variable-length tail.
// Config is const for the writers and mutable for the readers.
template <class W, class Config, class Topo>
void VisitRunConfig(W& w, Config& c, Topo& topo) {
  auto& s = c.strategy;
  w("strategy.kind", s.kind, kStrategyKindNames);
  w("strategy.group_size", s.group_size);
  w("strategy.backup_workers", s.backup_workers);
  w("strategy.er_quorum", s.er_quorum);
  w("strategy.frozen_avoidance", s.frozen_avoidance);
  w("strategy.history_window", s.history_window);
  w("strategy.record_sync_matrices", s.record_sync_matrices);
  w("strategy.average_momentum", s.average_momentum);
  w("strategy.compression", s.compression, kCompressionKindNames);
  w("strategy.dynamic.alpha", s.dynamic.alpha);
  w("strategy.dynamic.staleness_tolerance", s.dynamic.staleness_tolerance);
  w("strategy.dynamic.missing_slot", s.dynamic.missing_slot_policy,
    kMissingSlotPolicyNames);
  w("strategy.hierarchy.enabled", s.hierarchy.enabled);
  w("strategy.hierarchy.cross_period", s.hierarchy.cross_period);
  w("strategy.group_cost_budget", s.group_cost_budget);
  auto& sp = s.scale_policy;
  w("strategy.scale_policy.kind", sp.kind, kScalePolicyKindNames);
  w("strategy.scale_policy.interval_seconds", sp.interval_seconds);
  w("strategy.scale_policy.idle_high", sp.idle_high);
  w("strategy.scale_policy.idle_low", sp.idle_low);
  w("strategy.scale_policy.min_workers", sp.min_workers);
  w("strategy.scale_policy.max_workers", sp.max_workers);
  w("strategy.scale_policy.trend_window", sp.trend_window);
  w("strategy.scale_policy.min_group_size", sp.min_group_size);
  w("strategy.scale_policy.liveness_floor", sp.liveness_floor);
  w("strategy.scale_policy.partition_ckpt_seconds",
    sp.partition_ckpt_seconds);

  auto& r = c.run;
  w("run.num_workers", r.num_workers);
  w("run.iterations_per_worker", r.iterations_per_worker);
  w("run.batch_size", r.batch_size);
  w("run.seed", r.seed);
  w("run.record_timeline", r.record_timeline);
  w("run.trace_capacity", r.trace_capacity);
  w("run.sgd.learning_rate", r.sgd.learning_rate);
  w("run.sgd.momentum", r.sgd.momentum);
  w("run.sgd.weight_decay", r.sgd.weight_decay);
  w("run.model.kind", r.model.kind, kProxyModelKindNames);
  w.List("run.model.hidden", r.model.hidden,
         [](auto& col, auto& width) { col(width); });
  w("run.model.conv_filters", r.model.conv_filters);
  w("run.dataset.num_train", r.dataset.num_train);
  w("run.dataset.num_test", r.dataset.num_test);
  w("run.dataset.dim", r.dataset.dim);
  w("run.dataset.num_classes", r.dataset.num_classes);
  w("run.dataset.modes_per_class", r.dataset.modes_per_class);
  w("run.dataset.separation", r.dataset.separation);
  w("run.dataset.noise", r.dataset.noise);
  w("run.dataset.label_noise", r.dataset.label_noise);
  w("run.dataset.dirichlet_alpha", r.dataset.dirichlet_alpha);
  w("run.dataset.seed", r.dataset.seed);
  w.List("run.delay", r.worker_delay_seconds,
         [](auto& col, auto& delay) { col(delay); });
  // Writers omit an unset checkpoint dir; readers always accept the key.
  if (!W::kWrites || !r.ckpt.dir.empty()) w.Text("run.ckpt.dir", r.ckpt.dir);
  w("run.ckpt.every_iterations", r.ckpt.every_iterations);

  // Flat (default) topologies emit nothing: a pre-topology config and a flat
  // config are byte-identical.
  if (!W::kWrites || !topo.nodes.empty()) {
    w("topology.inter_cost", topo.inter_cost, Positive);
    w("topology.inter_latency_factor", topo.inter_latency_factor, Positive);
    w.List("topology.node", topo.nodes,
           [](auto& col, auto& workers) { col(workers); });
  }

  auto& f = r.fault;
  w("fault.seed", f.seed);
  w("fault.force_fault_tolerant", f.force_fault_tolerant);
  w.Row("fault.default_edge",
        [&](auto& col) { EdgeColumns(col, f.default_edge); });
  w.List("fault.edge", f.edges, [](auto& col, auto& entry) {
    auto& [edge, spec] = entry;
    col(edge.first);
    col(edge.second);
    EdgeColumns(col, spec);
  });
  w.List("fault.link_delay", f.link_delay_seconds,
         [](auto& col, auto& entry) {
           auto& [edge, seconds] = entry;
           col(edge.first);
           col(edge.second);
           col(seconds, NonNegative);
         });
  w.List("fault.worker_event", f.worker_events, [](auto& col, auto& e) {
    col(e.worker);
    col(e.kind, kWorkerFaultKindNames);
    col(e.after_iterations);
    col(e.in_group);
    col(e.hang_seconds);
    col(e.slowdown_factor);
    col(e.slowdown_iterations);
  });
  w.List("fault.controller_event", f.controller_events,
         [](auto& col, auto& e) {
           col(e.after_groups);
           col(e.down_seconds);
           col(e.restart);
         });
  w("fault.lease_seconds", f.lease_seconds);
  w("fault.missed_threshold", f.missed_threshold);
  w("fault.recv_timeout_seconds", f.recv_timeout_seconds);
  w("fault.stuck_report_ticks", f.stuck_report_ticks);
  w("fault.resend_ready_ticks", f.resend_ready_ticks);
  w("fault.stuck_abort_reports", f.stuck_abort_reports);
  w("fault.max_verdict_wait_seconds", f.max_verdict_wait_seconds);
  w("fault.max_reduce_stall_seconds", f.max_reduce_stall_seconds);
  w("fault.reregister_backoff_seconds", f.reregister_backoff_seconds);
  w("fault.reregister_backoff_max_seconds", f.reregister_backoff_max_seconds);
  w("fault.reregister_window_seconds", f.reregister_window_seconds);
  w("fault.max_controller_outage_seconds", f.max_controller_outage_seconds);
  w("fault.reregister_report_groups", f.reregister_report_groups);

  // Chaos scenario: the header fields always serialize; events mirror the
  // standalone `prtrace 1` dialect's event grammar, positionally.
  auto& sc = r.scenario;
  w("scenario.name", sc.name, IsNameToken);
  w("scenario.seed", sc.seed);
  w("scenario.expected_iteration_seconds", sc.expected_iteration_seconds,
    Positive);
  w.List("scenario.event", sc.events, [](auto& col, auto& e) {
    col(e.kind, kScenarioEventKindNames);
    col(e.time, NonNegative);
    col(e.worker);
    col(e.node);
    col(e.duration, NonNegative);
    col(e.factor);
  });
}

// Each walker is also the column sink its declarations write into: w(key,
// ...) declares a key, and a one-argument or (value, names | check) call is
// a column.
struct TextWriter {
  static constexpr bool kWrites = true;
  std::ostringstream out;

  template <class T, class... Extra>
  void operator()(const char* key, const T& field, const Extra&... extra) {
    Row(key, [&](auto& col) { col(field, extra...); });
  }
  template <class Columns>
  void Row(const char* key, Columns columns) {
    out << key;
    columns(*this);
    out << '\n';
  }
  template <class Seq, class Columns>
  void List(const char* key, const Seq& seq, Columns columns) {
    for (const auto& e : seq) Row(key, [&](auto& col) { columns(col, e); });
  }
  void Text(const char* key, const std::string& value) {
    out << key << ' ' << value << '\n';
  }

  template <class T>
  void operator()(const T& v) {
    if constexpr (std::is_same_v<T, bool>) {
      out << ' ' << (v ? 1 : 0);
    } else if constexpr (std::is_floating_point_v<T>) {
      out << ' ' << FormatExact(v);
    } else if constexpr (std::is_integral_v<T>) {
      out << ' ' << v;
    } else {
      for (int x : v) out << ' ' << x;
    }
  }
  void operator()(double v, Check) { (*this)(v); }
  void operator()(const std::string& v, TokenCheck) { out << ' ' << v; }
  template <class E, size_t N>
  void operator()(E v, const EnumName<E> (&names)[N]) {
    out << ' ' << NameOf(names, v);
  }
};

// A one-value line is a JSON scalar, a several-value line an array, and a
// list an array of such arrays.
struct JsonOut {
  static constexpr bool kWrites = true;
  JsonWriter json;

  template <class T, class... Extra>
  void operator()(const char* key, const T& field, const Extra&... extra) {
    json.Key(key);
    (*this)(field, extra...);
  }
  template <class Columns>
  void Row(const char* key, Columns columns) {
    json.Key(key).BeginArray();
    columns(*this);
    json.EndArray();
  }
  template <class Seq, class Columns>
  void List(const char* key, const Seq& seq, Columns columns) {
    if (seq.empty()) return;
    json.Key(key).BeginArray();
    for (const auto& e : seq) {
      json.BeginArray();
      columns(*this, e);
      json.EndArray();
    }
    json.EndArray();
  }
  void Text(const char* key, const std::string& value) {
    json.Key(key).String(value);
  }

  template <class T>
  void operator()(const T& v) {
    if constexpr (std::is_arithmetic_v<T>) {
      json.Number(static_cast<double>(v));
    } else {
      for (int x : v) json.Number(x);
    }
  }
  void operator()(double v, Check) { json.Number(v); }
  void operator()(const std::string& v, TokenCheck) { json.String(v); }
  template <class E, size_t N>
  void operator()(E v, const EnumName<E> (&names)[N]) {
    json.String(NameOf(names, v));
  }
};

// The JSON counterpart of LineReader: the values of one line, taken with the
// same calls, each checking its JSON type. Integers go through JsonInt, so
// 2.0 reads as 2 but 2.5, true and "2" fail; a bool also reads 0 or 1.
class JsonRow {
 public:
  JsonRow(std::string_view key, const JsonValue& value)
      : key_(key), value_(value) {
    if (value.is_array()) {
      for (const JsonValue& item : value.items()) items_.push_back(&item);
    } else {
      items_.push_back(&value);
    }
  }

  template <class T>
  Status Take(T* out) {
    const JsonValue* v = Next();
    if (v == nullptr) return Missing();
    if constexpr (std::is_same_v<T, bool>) {
      int flag = v->is_bool() && v->bool_value();
      if (!v->is_bool()) PR_RETURN_NOT_OK(JsonInt(*v, What(), &flag));
      if (flag != 0 && flag != 1) return Bad();
      *out = flag == 1;
    } else if constexpr (std::is_integral_v<T>) {
      return JsonInt(*v, What(), out);
    } else if constexpr (std::is_same_v<T, std::string>) {
      if (!v->is_string()) return Bad();
      *out = v->string_value();
    } else {
      if (!v->is_number()) return Bad();
      *out = v->number_value();
    }
    return Status::OK();
  }
  template <class E, size_t N>
  Status Take(E* out, const EnumName<E> (&names)[N]) {
    const JsonValue* v = Next();
    if (v == nullptr) return Missing();
    return v->is_string() && ParseEnum(names, v->string_value(), out)
               ? Status::OK()
               : Bad();
  }
  Status TakeAll(std::vector<int>* out) {
    while (next_ < items_.size()) PR_RETURN_NOT_OK(Take(&out->emplace_back()));
    return Status::OK();
  }
  // A string standing for the rest of a text line: anything but a newline.
  Status TakeRest(std::string* out) {
    const JsonValue* v = Next();
    if (v == nullptr) return Missing();
    if (!v->is_string() || v->string_value().empty() ||
        v->string_value().find_first_of("\r\n") != std::string::npos) {
      return Bad();
    }
    *out = v->string_value();
    return Status::OK();
  }
  // A list member holds one row per entry.
  template <class F>
  Status ForEachRow(F parse) {
    if (!value_.is_array()) return Error(What() + " must be an array of rows");
    for (const JsonValue& entry : value_.items()) {
      JsonRow row(key_, entry);
      PR_RETURN_NOT_OK(parse(&row));
      PR_RETURN_NOT_OK(row.End());
    }
    next_ = items_.size();
    return Status::OK();
  }
  Status End() const {
    if (next_ == items_.size()) return Status::OK();
    return Error(What() + " has trailing value " + items_[next_]->Dump());
  }

  Status Error(const std::string& what) const {
    return Status::InvalidArgument("json config: " + what);
  }
  Status Missing() const { return Error(What() + " is missing a value"); }
  Status Bad() const {
    return Error(What() + " has bad value " + items_[next_ - 1]->Dump());
  }

 private:
  const JsonValue* Next() {
    return next_ < items_.size() ? items_[next_++] : nullptr;
  }
  std::string What() const { return "key '" + std::string(key_) + "'"; }

  std::string_view key_;
  const JsonValue& value_;
  std::vector<const JsonValue*> items_;
  size_t next_ = 0;
};

// A text list record is one line; a JSON list member is an array of rows.
template <class F>
Status ForEachRow(LineReader* line, F parse) { return parse(line); }
template <class F>
Status ForEachRow(JsonRow* member, F parse) {
  return member->ForEachRow(parse);
}

// Reads records (text lines, or JSON members) into one config. Each record
// walks the table, which skips every declaration but the one its key names.
template <class Source>
class ConfigReader {
 public:
  static constexpr bool kWrites = false;

  Status Read(std::string_view key, Source* src) {
    key_ = key;
    src_ = src;
    matched_ = false;
    VisitRunConfig(*this, config_, topo_);
    if (!matched_) return src->Error("unknown key '" + std::string(key) + "'");
    return status_;
  }

  Status Finish(RunConfig* out) {
    Topology& topology = config_.run.topology;
    topology.set_inter_cost(topo_.inter_cost);
    topology.set_inter_latency_factor(topo_.inter_latency_factor);
    if (!topo_.nodes.empty()) {
      PR_RETURN_NOT_OK(Topology::FromNodes(topo_.nodes, &topology));
    }
    *out = std::move(config_);
    return Status::OK();
  }

  template <class T, class... Extra>
  void operator()(const char* key, T& field, const Extra&... extra) {
    Row(key, [&](auto& col) { col(field, extra...); });
  }
  template <class Columns>
  void Row(const char* key, Columns columns) {
    if (Match(key)) columns(*this);
  }
  template <class Seq, class Columns>
  void List(const char* key, Seq& seq, Columns columns) {
    if (!Match(key)) return;
    Source* const line = src_;
    status_ = ForEachRow(line, [&](Source* row) {
      // The first row read replaces the default list.
      if (std::find(started_.begin(), started_.end(), key_) == started_.end()) {
        started_.push_back(key);
        seq.clear();
      }
      src_ = row;
      if constexpr (requires { typename Seq::mapped_type; }) {
        std::pair<typename Seq::key_type, typename Seq::mapped_type> entry{};
        columns(*this, entry);
        seq[entry.first] = entry.second;
      } else {
        columns(*this, seq.emplace_back());
      }
      src_ = line;
      return status_;
    });
  }
  void Text(const char* key, std::string& value) {
    if (Match(key)) status_ = src_->TakeRest(&value);
  }

  template <class T>
  void operator()(T& v) {
    if (status_.ok()) status_ = src_->Take(&v);
  }
  void operator()(std::vector<int>& v) {
    if (status_.ok()) status_ = src_->TakeAll(&v);
  }
  void operator()(double& v, Check check) {
    (*this)(v);
    if (status_.ok() && !check(v)) status_ = src_->Bad();
  }
  void operator()(std::string& v, TokenCheck check) {
    (*this)(v);
    if (status_.ok() && !check(v)) status_ = src_->Bad();
  }
  template <class E, size_t N>
  void operator()(E& v, const EnumName<E> (&names)[N]) {
    if (status_.ok()) status_ = src_->Take(&v, names);
  }

 private:
  bool Match(const char* key) {
    if (matched_ || key_ != key) return false;
    return matched_ = true;
  }

  RunConfig config_;
  TopologyFields topo_ = MirrorOf(Topology());
  std::vector<std::string_view> started_;  ///< list keys already read
  std::string_view key_;
  Source* src_ = nullptr;
  bool matched_ = false;
  Status status_;
};

}  // namespace

std::string SerializeRunConfig(const RunConfig& config) {
  TextWriter writer;
  writer.out << "prconfig 1\n";
  const TopologyFields topo = MirrorOf(config.run.topology);
  VisitRunConfig(writer, config, topo);
  return writer.out.str();
}

Status ParseRunConfig(const std::string& text, RunConfig* out) {
  ConfigReader<LineReader> reader;
  LineReader lines(text, "prconfig", 1);
  while (lines.Next()) PR_RETURN_NOT_OK(reader.Read(lines.key(), &lines));
  PR_RETURN_NOT_OK(lines.status());
  return reader.Finish(out);
}

Status SaveRunConfig(const std::string& path, const RunConfig& config) {
  return WriteFileAtomically(path, SerializeRunConfig(config));
}

Status LoadRunConfig(const std::string& path, RunConfig* out) {
  std::string text;
  PR_RETURN_NOT_OK(ReadTextFile(path, &text));
  return ParseRunConfig(text, out);
}

std::string RunConfigToJson(const RunConfig& config) {
  JsonOut writer;
  writer.json.BeginObject();
  writer.json.Key("prconfig").Number(1);
  const TopologyFields topo = MirrorOf(config.run.topology);
  VisitRunConfig(writer, config, topo);
  writer.json.EndObject();
  return writer.json.str();
}

Status RunConfigFromJson(const std::string& json, RunConfig* out) {
  JsonValue root;
  PR_RETURN_NOT_OK(ParseJson(json, &root));
  if (!root.is_object()) {
    return Status::InvalidArgument("json config must be an object");
  }
  const JsonValue* version = root.Find("prconfig");
  if (version == nullptr || !version->is_number() ||
      version->number_value() != 1) {
    return Status::InvalidArgument(
        "json config is missing '\"prconfig\": 1'");
  }
  ConfigReader<JsonRow> reader;
  for (const auto& [key, value] : root.members()) {
    if (key == "prconfig") continue;
    JsonRow row(key, value);
    PR_RETURN_NOT_OK(reader.Read(key, &row));
    PR_RETURN_NOT_OK(row.End());
  }
  return reader.Finish(out);
}

}  // namespace pr
