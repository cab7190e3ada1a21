#include "ckpt/protocol.h"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <utility>

#include "obs/metric_table.h"

namespace pr {
namespace {

/// Runs `write` and observes its wall-clock latency as one ckpt.save_seconds
/// sample: both engines time the real file I/O, whatever their own clock.
Status Timed(Histogram* save_seconds, const std::function<Status()>& write) {
  const auto begin = std::chrono::steady_clock::now();
  const Status s = write();
  if (save_seconds != nullptr) {
    save_seconds->Observe(std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - begin)
                              .count());
  }
  return s;
}

}  // namespace

uint64_t CutEpoch(const CheckpointConfig& config, size_t k, size_t budget,
                  bool forced) {
  const size_t every = config.every_iterations;
  if (!config.enabled() || k == 0 || k >= budget) return 0;
  if (forced) return std::max<uint64_t>(1, (k + every - 1) / every);
  return k % every == 0 ? k / every : 0;
}

Status SaveCutShard(MetricsShard* metrics, const std::string& dir,
                    uint64_t epoch, int worker, Slice params,
                    const std::vector<float>& velocity) {
  return Timed(metrics->Get(metric::kCkptSaveSeconds), [&] {
    return SaveWorkerShard(ShardPath(dir, epoch, worker), params,
                           Slice(velocity.data(), velocity.size()));
  });
}

CkptCoordinator::CkptCoordinator(std::string dir, const RunIdentity& identity,
                                 MetricsShard* metrics, TraceRecorder* trace,
                                 const RunManifest* resume)
    : dir_(std::move(dir)),
      save_seconds_(metrics->Get(metric::kCkptSaveSeconds)),
      trace_(trace),
      manifests_written_(metrics->Get(metric::kCkptManifestsWritten)) {
  header_.engine = EngineKindName(identity.engine);
  header_.strategy = identity.strategy;
  header_.num_workers = identity.num_workers;
  header_.num_params = identity.num_params;
  header_.seed = identity.seed;
  if (resume != nullptr) {
    if (Counter* restores = metrics->Get(metric::kCkptRestoreCount)) {
      restores->Increment();
    }
    last_written_ = resume->epoch;
  }
}

bool CkptCoordinator::Report(uint64_t epoch, const ManifestWorker& report,
                             const CutState& state) {
  const size_t n = static_cast<size_t>(header_.num_workers);
  if (epoch <= last_written_ || report.worker < 0 ||
      static_cast<size_t>(report.worker) >= n) {
    return false;
  }
  std::map<int, ManifestWorker>& reports = pending_[epoch];
  reports[report.worker] = report;
  if (reports.size() < n) return false;

  RunManifest m = header_;
  m.epoch = epoch;
  m.updates_done = state.updates_done;
  m.saved_at_seconds = state.clock_seconds;
  if (state.stamp) state.stamp(&m);
  for (const auto& [w, r] : reports) m.workers.push_back(r);
  // The epoch is spent either way: a failed write leaves the previous
  // manifest as the restore point.
  last_written_ = epoch;
  pending_.erase(pending_.begin(), pending_.upper_bound(epoch));
  if (!Timed(save_seconds_, [&] { return SaveManifest(dir_, m); }).ok()) {
    return false;
  }
  manifests_written_->Increment();
  trace_->Record(state.clock_seconds, TraceEventKind::kCkptSaved, -1,
                 static_cast<int64_t>(epoch),
                 static_cast<int64_t>(m.updates_done));
  return true;
}

bool CkptCoordinator::ReportAll(uint64_t epoch, size_t k,
                                const CutState& state) {
  bool wrote = false;
  for (int w = 0; w < header_.num_workers; ++w) {
    wrote = Report(epoch,
                   {w, static_cast<int64_t>(k), k, ShardFileName(epoch, 0)},
                   state);
  }
  return wrote;
}

Status LoadResume(const std::string& manifest_path, const RunIdentity& expect,
                  ResumeState* out) {
  RunManifest m;
  PR_RETURN_NOT_OK(LoadManifest(manifest_path, &m));
  using std::to_string;
  const size_t n = static_cast<size_t>(expect.num_workers);
  const std::string checks[][3] = {
      {"engine", m.engine, EngineKindName(expect.engine)},
      {"strategy", m.strategy, expect.strategy},
      {"seed", to_string(m.seed), to_string(expect.seed)},
      {"worker count", to_string(m.num_workers), to_string(n)},
      {"worker entries", to_string(m.workers.size()), to_string(n)},
      {"parameter count", to_string(m.num_params),
       to_string(expect.num_params)}};
  for (const auto& [what, got, want] : checks) {
    if (got != want) {
      return Status::InvalidArgument("manifest " + what + " " + got +
                                     " does not match the requested " + want);
    }
  }

  const std::string dir =
      std::filesystem::path(manifest_path).parent_path().string();
  std::vector<WorkerResume> workers(n);
  std::vector<bool> seen(n, false);
  for (const ManifestWorker& mw : m.workers) {
    const size_t w = static_cast<size_t>(mw.worker);
    if (mw.worker < 0 || w >= n || seen[w]) {
      return Status::InvalidArgument("manifest lists worker " +
                                     std::to_string(mw.worker) +
                                     " out of range or twice");
    }
    seen[w] = true;
    PR_RETURN_NOT_OK(LoadWorkerShard(dir + "/" + mw.shard_file, m.num_params,
                                     &workers[w].params,
                                     &workers[w].velocity));
    workers[w].iteration = mw.iteration;
    workers[w].completed = mw.completed;
  }
  out->manifest = std::move(m);
  out->workers = std::move(workers);
  return Status::OK();
}

}  // namespace pr
