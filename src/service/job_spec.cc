#include "service/job_spec.h"

#include <utility>

#include "common/check.h"
#include "launch/config_io.h"

namespace pr {
namespace {

Status JsonString(const JsonValue& value, const char* key, std::string* out) {
  if (!value.is_string()) {
    return Status::InvalidArgument(std::string("job spec: \"") + key +
                                   "\" must be a string");
  }
  *out = value.string_value();
  return Status::OK();
}

}  // namespace

JsonValue JobSpecToJsonValue(const JobSpec& spec) {
  JsonValue out = JsonValue::MakeObject();
  out.Set("name", JsonValue::MakeString(spec.name));
  out.Set("tenant", JsonValue::MakeString(spec.tenant));
  out.Set("priority", JsonValue::MakeNumber(spec.priority));
  out.Set("min_workers", JsonValue::MakeNumber(spec.min_workers));
  out.Set("max_workers", JsonValue::MakeNumber(spec.max_workers));
  out.Set("data_shard", JsonValue::MakeNumber(spec.data_shard));
  out.Set("engine", JsonValue::MakeString(EngineKindName(spec.engine)));
  // Re-use the one RunConfig JSON dialect instead of inventing a nested one.
  JsonValue config;
  Status parsed = ParseJson(RunConfigToJson(spec.config), &config);
  PR_CHECK(parsed.ok()) << "RunConfigToJson emitted invalid JSON: "
                        << parsed.message();
  out.Set("config", std::move(config));
  return out;
}

std::string JobSpecToJson(const JobSpec& spec) {
  return JobSpecToJsonValue(spec).Dump();
}

Status JobSpecFromJsonValue(const JsonValue& value, JobSpec* out) {
  if (!value.is_object()) {
    return Status::InvalidArgument("job spec: document must be an object");
  }
  JobSpec spec;
  bool saw_config = false;
  for (const JsonValue::Member& member : value.members()) {
    const std::string& key = member.first;
    const JsonValue& v = member.second;
    Status status = Status::OK();
    if (key == "name") {
      status = JsonString(v, "name", &spec.name);
    } else if (key == "tenant") {
      status = JsonString(v, "tenant", &spec.tenant);
      if (status.ok() && spec.tenant.empty()) {
        status = Status::InvalidArgument("job spec: \"tenant\" is empty");
      }
    } else if (key == "priority") {
      status = JsonInt(v, "job spec: \"priority\"", &spec.priority);
    } else if (key == "min_workers") {
      status = JsonInt(v, "job spec: \"min_workers\"", &spec.min_workers);
    } else if (key == "max_workers") {
      status = JsonInt(v, "job spec: \"max_workers\"", &spec.max_workers);
    } else if (key == "data_shard") {
      status = JsonInt(v, "job spec: \"data_shard\"", &spec.data_shard);
    } else if (key == "engine") {
      std::string token;
      status = JsonString(v, "engine", &token);
      if (status.ok() && !ParseEngineKind(token, &spec.engine)) {
        status = Status::InvalidArgument("job spec: unknown engine \"" +
                                         token + "\"");
      }
    } else if (key == "config") {
      status = RunConfigFromJson(v.Dump(), &spec.config);
      saw_config = status.ok();
    } else {
      status = Status::InvalidArgument("job spec: unknown key \"" + key +
                                       "\"");
    }
    if (!status.ok()) {
      return status;
    }
  }
  if (!saw_config) {
    return Status::InvalidArgument("job spec: missing \"config\" object");
  }
  if (spec.min_workers < 1) {
    return Status::InvalidArgument("job spec: min_workers must be >= 1");
  }
  if (spec.max_workers < spec.min_workers) {
    return Status::InvalidArgument(
        "job spec: max_workers must be >= min_workers");
  }
  *out = std::move(spec);
  return Status::OK();
}

Status JobSpecFromJson(const std::string& json, JobSpec* out) {
  JsonValue value;
  Status parsed = ParseJson(json, &value);
  if (!parsed.ok()) {
    return parsed;
  }
  return JobSpecFromJsonValue(value, out);
}

}  // namespace pr
