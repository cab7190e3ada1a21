#pragma once

#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/status.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace pr {

/// \brief Minimal streaming JSON writer (no external dependency).
///
/// Handles comma placement and string escaping; the caller is responsible
/// for well-formed nesting (Begin/End pairs, Key before each object value).
/// Non-finite numbers serialize as null, keeping the output strict JSON.
class JsonWriter {
 public:
  JsonWriter& BeginObject();
  JsonWriter& EndObject();
  JsonWriter& BeginArray();
  JsonWriter& EndArray();
  JsonWriter& Key(std::string_view key);
  JsonWriter& String(std::string_view value);
  JsonWriter& Number(double value);
  JsonWriter& Int(int64_t value);
  JsonWriter& UInt(uint64_t value);
  JsonWriter& Bool(bool value);
  JsonWriter& Null();

  const std::string& str() const { return out_; }

 private:
  void BeforeValue();

  std::string out_;
  std::vector<bool> need_comma_;
  bool pending_key_ = false;
};

/// Escapes `value` for inclusion in a JSON string literal (no quotes added).
std::string JsonEscape(std::string_view value);

/// Serializes a merged metrics snapshot:
/// {"counters": {...}, "gauges": {...}, "histograms": {name:
///  {"upper_bounds": [...], "counts": [...], "sum": s, "count": n}}}.
std::string MetricsSnapshotJson(const MetricsSnapshot& snapshot);

/// Appends the snapshot under the writer's current value position (the
/// building block behind MetricsSnapshotJson and the bench reports).
void WriteMetricsSnapshot(JsonWriter* writer, const MetricsSnapshot& snapshot);

/// Serializes a trace log: {"dropped": n, "events": [{"t": ...,
/// "kind": "group_formed", "worker": w, "a": ..., "b": ...}]}.
std::string TraceLogJson(const TraceLog& log);

/// Appends the trace log under the writer's current value position.
void WriteTraceLog(JsonWriter* writer, const TraceLog& log);

/// \brief A parsed JSON document node (null/bool/number/string/array/object).
///
/// The read-side counterpart of JsonWriter, still dependency-free. Objects
/// preserve insertion order (the writer's order survives a round trip) and
/// are looked up linearly — documents here are config-sized, not data-sized.
class JsonValue {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  using Member = std::pair<std::string, JsonValue>;

  JsonValue() = default;

  static JsonValue MakeNull() { return JsonValue(); }
  static JsonValue MakeBool(bool v);
  static JsonValue MakeNumber(double v);
  static JsonValue MakeString(std::string v);
  static JsonValue MakeArray(std::vector<JsonValue> items = {});
  static JsonValue MakeObject(std::vector<Member> members = {});

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::kNull; }
  bool is_bool() const { return kind_ == Kind::kBool; }
  bool is_number() const { return kind_ == Kind::kNumber; }
  bool is_string() const { return kind_ == Kind::kString; }
  bool is_array() const { return kind_ == Kind::kArray; }
  bool is_object() const { return kind_ == Kind::kObject; }

  /// Typed accessors; calling one on the wrong kind is a checked programmer
  /// error (callers branch on kind() / is_*() first).
  bool bool_value() const;
  double number_value() const;
  const std::string& string_value() const;
  const std::vector<JsonValue>& items() const;
  std::vector<JsonValue>& mutable_items();
  const std::vector<Member>& members() const;
  std::vector<Member>& mutable_members();

  /// Object lookup by key; nullptr when absent (or when not an object).
  const JsonValue* Find(std::string_view key) const;

  /// Sets `key` to `value`, replacing an existing member of that name or
  /// appending a new one; requires an object.
  void Set(std::string key, JsonValue value);

  /// Appends `value`; requires an array.
  void Append(JsonValue value);

  /// Re-serializes this value through JsonWriter (canonical output: numbers
  /// in their shortest exact-round-trip form, escaped strings, no
  /// whitespace).
  std::string Dump() const;
  void Write(JsonWriter* writer) const;

 private:
  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<JsonValue> items_;
  std::vector<Member> members_;
};

/// \brief Parses a complete strict-JSON document into `*out`.
///
/// Rejects trailing garbage, trailing commas, unquoted keys, and comments;
/// accepts the full escape set JsonWriter emits (including \uXXXX with
/// surrogate pairs, decoded to UTF-8). Errors carry a byte offset.
Status ParseJson(std::string_view text, JsonValue* out);

/// True when the first non-blank character of `text` opens a JSON object:
/// how a loader that takes either dialect tells JSON from text.
inline bool IsJsonObjectText(std::string_view text) {
  const size_t first = text.find_first_not_of(" \t\r\n");
  return first != std::string_view::npos && text[first] == '{';
}

/// \brief The one conversion from a JSON number to an integer.
///
/// Fails unless `value` is a finite, integral number inside T's range, so
/// true, "6", 2.7 and (for an int) 1e10 are all rejected while 2.0 reads as
/// 2. `what` names the value in the error: "<what> must be a number" or
/// "<what> must be an integer".
template <typename T>
  requires std::is_integral_v<T>
Status JsonInt(const JsonValue& value, std::string_view what, T* out) {
  if (!value.is_number()) {
    return Status::InvalidArgument(std::string(what) + " must be a number");
  }
  const double v = value.number_value();
  // T's max rounds up to 2^bits for 64-bit types, so `< max + 1` stays exact.
  if (v != std::floor(v) ||
      v < static_cast<double>(std::numeric_limits<T>::min()) ||
      !(v < static_cast<double>(std::numeric_limits<T>::max()) + 1.0)) {
    return Status::InvalidArgument(std::string(what) + " must be an integer");
  }
  *out = static_cast<T>(v);
  return Status::OK();
}

}  // namespace pr
