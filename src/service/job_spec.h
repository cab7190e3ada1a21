#pragma once

#include <string>

#include "common/status.h"
#include "obs/json.h"
#include "runtime/threaded_runtime.h"
#include "train/run.h"

namespace pr {

/// \brief A declarative training-job request submitted to the service.
///
/// Everything about the training run itself — model, strategy kind, SGD
/// knobs, dataset — lives in the embedded RunConfig (the same struct both
/// engines execute); the remaining fields describe how the job behaves as
/// *workload*: who owns it, how urgent it is, and how many pooled workers it
/// can use. The service overrides the config's worker count with the actual
/// lease size at admission, so min_workers/max_workers — not
/// config.run.num_workers — is the capacity request.
struct JobSpec {
  /// Human-readable label (optional; reported back in job states).
  std::string name;
  /// Fair-share accounting bucket. Jobs of one tenant compete by priority;
  /// tenants compete by weighted usage (see JobQueue).
  std::string tenant = "default";
  /// Higher runs earlier within its tenant.
  int priority = 0;
  /// Admission waits until at least this many pool workers are free.
  int min_workers = 1;
  /// The lease never exceeds this many workers.
  int max_workers = 1;
  /// Data-shard selector (`run.dataset.shard`): every shard trains on the
  /// same synthetic task, each on its own draw of samples; shard 0 draws
  /// what the run draws outside the service.
  int data_shard = 0;
  /// Which engine executes the run (sim jobs occupy one pool worker).
  EngineKind engine = EngineKind::kThreaded;
  /// The run request itself (strategy + training options).
  RunConfig config;
};

/// JSON round trip. The document embeds the RunConfig under "config" using
/// the RunConfigToJson dialect, so a job file has exactly one serialization
/// convention end to end:
///   {"name": "...", "tenant": "...", "priority": 0, "min_workers": 2,
///    "max_workers": 4, "data_shard": 0, "engine": "threaded",
///    "config": {"prconfig": 1, "strategy.kind": "CON", ...}}
/// Parsing is strict: unknown members and malformed values are errors.
std::string JobSpecToJson(const JobSpec& spec);
Status JobSpecFromJson(const std::string& json, JobSpec* out);

/// JsonValue-level variants for embedding specs in larger documents (a jobs
/// file is a JSON array of specs; prserve parses it with these).
JsonValue JobSpecToJsonValue(const JobSpec& spec);
Status JobSpecFromJsonValue(const JsonValue& value, JobSpec* out);

}  // namespace pr
