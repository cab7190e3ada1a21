#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/buffer.h"
#include "common/enum_names.h"
#include "common/status.h"

namespace pr {

/// \brief Which execution engine carries a run.
///
/// The same RunConfig drives both: kThreaded executes on real OS threads
/// through WorkerRuntime (wall-clock time, real transport), kSim executes
/// under the discrete-event simulator (virtual time, cost-model transport).
/// Callers that schedule runs as workload — the job service, benches,
/// examples — pick an engine per run instead of hard-coding an entry point.
enum class EngineKind {
  kThreaded,
  kSim,
};

inline constexpr EnumName<EngineKind> kEngineKindNames[] = {
    {EngineKind::kThreaded, "threaded"},
    {EngineKind::kSim, "sim"},
};

inline const char* EngineKindName(EngineKind kind) {
  return NameOf(kEngineKindNames, kind);
}

/// False on a name EngineKindName does not emit.
inline bool ParseEngineKind(const std::string& token, EngineKind* out) {
  return ParseEnum(kEngineKindNames, token, out);
}

/// \brief One worker's entry in a run manifest.
struct ManifestWorker {
  int worker = -1;
  /// Protocol iteration counter (the value dynamic weighting advances); on
  /// restore the worker resumes signalling with this counter.
  int64_t iteration = 0;
  /// Local iterations completed at the cut; the resumed run executes
  /// iterations completed+1 .. budget.
  uint64_t completed = 0;
  /// Shard file name, relative to the manifest's directory.
  std::string shard_file;
};

/// \brief A coordinated checkpoint of one training run.
///
/// The manifest binds per-worker shards (params + optimizer velocity in
/// PRCKPT01 framing) to the run-level state a resume needs: iteration
/// counters, the controller's group-history window, and its group-id
/// watermark. Serialized as magic "PRMANIF1" + fields + trailing FNV-1a
/// checksum, written atomically (tmp + rename) — a torn manifest fails the
/// checksum and FindLatestManifest falls back to the previous epoch.
struct RunManifest {
  uint32_t version = 1;
  std::string engine;    ///< EngineKindName of the engine that wrote it
  std::string strategy;  ///< StrategyKindName ("CON", "DYN", "AR", ...)
  int num_workers = 0;
  uint64_t num_params = 0;
  uint64_t seed = 0;
  /// Checkpoint index: k / every_iterations (CutEpoch). Strictly
  /// increasing within one run.
  uint64_t epoch = 0;
  /// Global updates (group reduces / rounds) performed when the manifest
  /// was written.
  uint64_t updates_done = 0;
  /// Controller group-id watermark: the restored controller hands out ids
  /// from here so workers' ascending-id dedup keeps working across a
  /// restore.
  uint64_t next_group_id = 1;
  /// Engine clock at the cut (wall seconds threaded, virtual seconds sim).
  double saved_at_seconds = 0.0;
  /// The controller's group-history DB window, oldest first.
  std::vector<std::vector<int>> history;
  std::vector<ManifestWorker> workers;
};

/// "manifest-<epoch>.prm" under `dir`.
std::string ManifestPath(const std::string& dir, uint64_t epoch);
/// "shard-e<epoch>-w<worker>.prc".
std::string ShardFileName(uint64_t epoch, int worker);
std::string ShardPath(const std::string& dir, uint64_t epoch, int worker);

/// Atomically writes `manifest` to ManifestPath(dir, manifest.epoch),
/// creating `dir` if needed.
Status SaveManifest(const std::string& dir, const RunManifest& manifest);

/// Parses and validates (magic, version, checksum) one manifest file.
Status LoadManifest(const std::string& path, RunManifest* out);

/// Scans `dir` for manifest files and loads the highest epoch that
/// validates, skipping torn or corrupt ones. NotFound when none survive.
Status FindLatestManifest(const std::string& dir, RunManifest* out,
                          std::string* path_out = nullptr);

/// Writes one worker shard: `params` immediately followed by `velocity` as
/// a single PRCKPT01 vector (2 * num_params floats), atomically and without
/// copying either span.
Status SaveWorkerShard(const std::string& path, Slice params, Slice velocity);

/// Splits a shard back into params + velocity; fails unless the shard holds
/// exactly 2 * num_params floats.
Status LoadWorkerShard(const std::string& path, size_t num_params,
                       std::vector<float>* params,
                       std::vector<float>* velocity);

}  // namespace pr
