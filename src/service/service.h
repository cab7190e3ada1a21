#pragma once

#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/status.h"
#include "fault/failure_detector.h"
#include "obs/metrics.h"
#include "scenario/scale_policy.h"
#include "service/job_queue.h"
#include "service/job_spec.h"
#include "service/worker_pool.h"
#include "train/run.h"

namespace pr {

/// Lifecycle of a submitted job.
///
///   kQueued ----> kRunning ----> kCompleted   (run finished its budget)
///      |             |---------> kCancelled   (Cancel(); P-Reduce drains
///      |             |                         cooperatively, others are
///      |             |                         aborted after the grace)
///      |             '---------> kEvicted     (liveness monitor declared
///      |                                       the run hung and aborted it)
///      '---------------------> kCancelled     (cancelled while queued)
enum class JobState {
  kQueued,
  kRunning,
  kCompleted,
  kCancelled,
  kEvicted,
};

const char* JobStateName(JobState state);
bool IsTerminalJobState(JobState state);

/// \brief Service-wide configuration.
struct ServiceOptions {
  int pool_size = 8;
  /// Fair-share weights per tenant (absent tenants weigh 1.0).
  std::map<std::string, double> tenant_weights;
  /// Liveness monitoring of running jobs: a job whose progress tick stalls
  /// for lease_seconds * missed_threshold is declared hung and evicted.
  /// The defaults give a 10 s horizon — generous against scheduling noise,
  /// tight enough that a deadlocked run frees its workers promptly.
  double lease_seconds = 0.25;
  int missed_threshold = 40;
  /// A cancelled job that has not drained cooperatively after this long is
  /// hard-aborted.
  double cancel_grace_seconds = 2.0;
  /// Root for per-job checkpoint directories: a job with checkpointing
  /// enabled writes under <ckpt_root>/job-<id> (or <its own dir>/job-<id>
  /// when empty), so concurrent jobs never share manifests.
  std::string ckpt_root;
  double monitor_period_seconds = 0.02;
  /// Pool-level lease autoscaling. When enabled, the monitor thread feeds
  /// pool utilization (1 - BusyFraction as the idle signal, leased slots as
  /// the active count) into the policy every interval and resizes the lease
  /// cap future admissions get: a saturated pool shrinks new leases toward
  /// each job's min_workers, an idle pool lets them grow back to max. The
  /// same ScalePolicy class the training engines run, driven by service
  /// metrics instead of worker wait-time.
  ScalePolicyConfig scale_policy;
};

/// \brief Caller-facing snapshot of one job.
struct JobStatus {
  int64_t id = 0;
  std::string name;
  std::string tenant;
  JobState state = JobState::kQueued;
  int priority = 0;
  EngineKind engine = EngineKind::kThreaded;
  std::string strategy;
  /// Size of the worker lease (0 while queued).
  int leased_workers = 0;
  /// Service-clock timestamps (seconds since service start; negative when
  /// the job has not reached that point yet).
  double submit_seconds = 0.0;
  double start_seconds = -1.0;
  double finish_seconds = -1.0;
  /// start - submit once running; time queued so far while queued.
  double queue_delay_seconds = 0.0;
  /// Valid in terminal states that ran (kCompleted and drained kCancelled).
  double final_accuracy = 0.0;
  double final_loss = 0.0;
  uint64_t sync_rounds = 0;
};

JsonValue JobStatusToJsonValue(const JobStatus& status);

/// \brief The multi-tenant job service: hundreds of small training runs
/// multiplexed over one fixed WorkerPool.
///
/// Submit() validates and queues a JobSpec; the scheduler thread admits jobs
/// by priority within a tenant and weighted fair share across tenants
/// (JobQueue), leases pool workers (min_workers..max_workers, shrinking to
/// min when others wait), and hands the run to a runner thread that executes
/// it *on the leased pool agents* via the WorkerLauncher seam — worker
/// threads are never created or destroyed per job. A monitor thread samples
/// each running job's RunControl progress tick through a per-job
/// FailureDetector lease and hard-aborts hung runs (kEvicted), and enforces
/// the cancellation grace period.
///
/// Isolation: each job gets its own MetricsRegistry (surfaced under
/// `job.<id>.*` in Snapshot()), its own metrics scope on the pool endpoints
/// it borrows, and its own checkpoint directory.
class TrainingService {
 public:
  explicit TrainingService(ServiceOptions options);
  ~TrainingService();
  TrainingService(const TrainingService&) = delete;
  TrainingService& operator=(const TrainingService&) = delete;

  /// Validates and enqueues a job; returns its id through `id`.
  Status Submit(const JobSpec& spec, int64_t* id);

  Status Inspect(int64_t id, JobStatus* out) const;
  std::vector<JobStatus> List() const;

  /// Cancels a job: queued jobs terminate immediately; running jobs get a
  /// cooperative cancel (P-Reduce drains through the Leave protocol) plus a
  /// stash-exercising nudge to their leased slots, and are hard-aborted
  /// after cancel_grace_seconds. Idempotent on terminal jobs.
  Status Cancel(int64_t id);

  /// Blocks until every submitted job is terminal.
  void Drain();

  /// Service-wide metrics: scheduler counters/gauges (`service.*`,
  /// including per-tenant lease counts), pool utilization, and each job's
  /// isolated metrics re-published under `job.<id>.*`.
  MetricsSnapshot Snapshot() const;

  /// Leased-worker usage charged against a tenant so far.
  double TenantUsage(const std::string& tenant) const;

  WorkerPool& pool() { return pool_; }

  /// Seconds since service start (the clock all job timestamps use).
  double NowSeconds() const;

 private:
  struct Job;

  void SchedulerLoop();
  void MonitorLoop();
  /// One lease-autoscaling decision (called from MonitorLoop under mu_):
  /// samples the pool, feeds the policy, and moves lease_cap_ by one.
  void PolicyTickLocked(double now);
  void RunJob(Job* job);
  void ReapFinishedRunnersLocked(std::vector<std::thread>* out);
  JobStatus StatusOfLocked(const Job& job) const;

  const ServiceOptions options_;
  const double start_seconds_;

  MetricsRegistry registry_;       // service-level (scheduler) metrics
  MetricsShard* shard_ = nullptr;  // owned by registry_

  mutable std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  int64_t next_job_id_ = 1;
  std::map<int64_t, std::unique_ptr<Job>> jobs_;
  JobQueue queue_;

  /// Lease autoscaling state (guarded by mu_). lease_cap_ is the most slots
  /// the scheduler grants a new admission; 0 = uncapped.
  std::unique_ptr<ScalePolicy> scale_policy_;
  int lease_cap_ = 0;
  double last_policy_tick_ = 0.0;

  // Declared after jobs_ so it is destroyed (agents joined) first: pool
  // endpoints hold observer pointers into per-job registries.
  WorkerPool pool_;

  std::thread scheduler_;
  std::thread monitor_;
};

/// \brief JSON-string control surface over TrainingService — the wire-level
/// API prserve exposes. Every call returns a JSON document with an "ok"
/// field; errors carry {"ok": false, "error": "..."}.
class ServiceHandle {
 public:
  explicit ServiceHandle(TrainingService* service) : service_(service) {}

  /// Accepts a JobSpec document; {"ok": true, "job": <id>} on success.
  std::string Submit(const std::string& spec_json);
  /// {"ok": true, "job": {<JobStatus>}}.
  std::string Inspect(int64_t id);
  /// {"ok": true, "jobs": [<JobStatus>...]}.
  std::string List();
  std::string Cancel(int64_t id);
  /// Blocks; {"ok": true, "jobs": [...]} with every job terminal.
  std::string Drain();
  /// The merged service snapshot as a metrics JSON document.
  std::string Metrics();

 private:
  TrainingService* service_;
};

}  // namespace pr
