#include "service/service.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "common/check.h"
#include "obs/json.h"
#include "obs/metric_table.h"

namespace pr {
namespace {

double SteadySeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Re-publishes a snapshot's instruments under `prefix`, with the usual
/// merge rules should prefixed names collide (they do not in practice: the
/// prefixes are per-job-unique).
void PrefixInto(const MetricsSnapshot& part, const std::string& prefix,
                MetricsSnapshot* out) {
  for (const auto& [name, value] : part.counters) {
    out->counters[prefix + name] += value;
  }
  for (const auto& [name, value] : part.gauges) {
    double& slot = out->gauges[prefix + name];
    slot = std::max(slot, value);
  }
  for (const auto& [name, hist] : part.histograms) {
    out->histograms.emplace(prefix + name, hist);
  }
}

}  // namespace

const char* JobStateName(JobState state) {
  switch (state) {
    case JobState::kQueued:
      return "queued";
    case JobState::kRunning:
      return "running";
    case JobState::kCompleted:
      return "completed";
    case JobState::kCancelled:
      return "cancelled";
    case JobState::kEvicted:
      return "evicted";
  }
  return "unknown";
}

bool IsTerminalJobState(JobState state) {
  return state == JobState::kCompleted || state == JobState::kCancelled ||
         state == JobState::kEvicted;
}

JsonValue JobStatusToJsonValue(const JobStatus& status) {
  JsonValue out = JsonValue::MakeObject();
  out.Set("id", JsonValue::MakeNumber(static_cast<double>(status.id)));
  out.Set("name", JsonValue::MakeString(status.name));
  out.Set("tenant", JsonValue::MakeString(status.tenant));
  out.Set("state", JsonValue::MakeString(JobStateName(status.state)));
  out.Set("priority", JsonValue::MakeNumber(status.priority));
  out.Set("engine", JsonValue::MakeString(EngineKindName(status.engine)));
  out.Set("strategy", JsonValue::MakeString(status.strategy));
  out.Set("leased_workers", JsonValue::MakeNumber(status.leased_workers));
  out.Set("submit_seconds", JsonValue::MakeNumber(status.submit_seconds));
  out.Set("start_seconds", JsonValue::MakeNumber(status.start_seconds));
  out.Set("finish_seconds", JsonValue::MakeNumber(status.finish_seconds));
  out.Set("queue_delay_seconds",
          JsonValue::MakeNumber(status.queue_delay_seconds));
  out.Set("final_accuracy", JsonValue::MakeNumber(status.final_accuracy));
  out.Set("final_loss", JsonValue::MakeNumber(status.final_loss));
  out.Set("sync_rounds",
          JsonValue::MakeNumber(static_cast<double>(status.sync_rounds)));
  return out;
}

/// Per-job bookkeeping. Protected by the service mutex except where noted;
/// `registry` stays alive for the service's lifetime because pool endpoints
/// keep observer pointers into it between jobs (until the next handoff).
struct TrainingService::Job {
  int64_t id = 0;
  JobSpec spec;
  JobState state = JobState::kQueued;
  double submit_seconds = 0.0;
  double start_seconds = -1.0;
  double finish_seconds = -1.0;
  WorkerPool::Lease lease;
  std::shared_ptr<RunControl> control;
  std::unique_ptr<MetricsRegistry> registry;
  MetricsShard* shard = nullptr;
  std::unique_ptr<FailureDetector> detector;
  uint64_t last_progress = 0;
  bool evicted = false;
  double cancel_deadline = -1.0;  ///< < 0: no cancellation in flight
  std::thread runner;
  RunResult outcome;
  bool has_outcome = false;
};

TrainingService::TrainingService(ServiceOptions options)
    : options_(std::move(options)),
      start_seconds_(SteadySeconds()),
      pool_(options_.pool_size) {
  shard_ = registry_.Open(MetricGates().Open(MetricGate::kService),
                          /*num_workers=*/0);
  for (const auto& [tenant, weight] : options_.tenant_weights) {
    queue_.SetTenantWeight(tenant, weight);
  }
  if (options_.scale_policy.enabled()) {
    scale_policy_ =
        std::make_unique<ScalePolicy>(options_.scale_policy, pool_.size());
    lease_cap_ = options_.scale_policy.max_workers > 0
                     ? std::min(options_.scale_policy.max_workers,
                                pool_.size())
                     : pool_.size();
  }
  scheduler_ = std::thread([this] { SchedulerLoop(); });
  monitor_ = std::thread([this] { MonitorLoop(); });
}

TrainingService::~TrainingService() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
    // Abort whatever is still running so runner threads come home; sim jobs
    // have nothing to abort and simply run out (they are small by
    // construction).
    for (auto& [id, job] : jobs_) {
      (void)id;
      if (job->state == JobState::kRunning && job->control) {
        job->control->Abort();
      }
    }
  }
  cv_.notify_all();
  scheduler_.join();
  monitor_.join();
  std::vector<std::thread> runners;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto& [id, job] : jobs_) {
      (void)id;
      if (job->runner.joinable()) {
        runners.push_back(std::move(job->runner));
      }
    }
  }
  for (std::thread& t : runners) {
    t.join();
  }
  // pool_ destructs before jobs_ (declared after it), joining the agent
  // threads while the per-job registries their endpoints observe are alive.
}

double TrainingService::NowSeconds() const {
  return SteadySeconds() - start_seconds_;
}

Status TrainingService::Submit(const JobSpec& spec, int64_t* id) {
  if (spec.min_workers < 1) {
    return Status::InvalidArgument("min_workers must be >= 1");
  }
  if (spec.max_workers < spec.min_workers) {
    return Status::InvalidArgument("max_workers must be >= min_workers");
  }
  if (spec.engine == EngineKind::kThreaded) {
    if (!IsPsFamily(spec.config.strategy.kind) && spec.min_workers < 2) {
      return Status::InvalidArgument(
          StrategyKindName(spec.config.strategy.kind) +
          " needs at least 2 workers; raise min_workers");
    }
    if (spec.min_workers > pool_.size()) {
      return Status::InvalidArgument("min_workers exceeds the pool size");
    }
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (stop_) {
    return Status::FailedPrecondition("service is shutting down");
  }
  auto job = std::make_unique<Job>();
  job->id = next_job_id_++;
  job->spec = spec;
  job->submit_seconds = NowSeconds();
  JobQueue::Entry entry;
  entry.id = job->id;
  entry.priority = spec.priority;
  entry.tenant = spec.tenant;
  // A sim job simulates config.run.num_workers virtual workers on a single
  // pool slot, whatever its min/max say.
  entry.min_workers = spec.engine == EngineKind::kSim ? 1 : spec.min_workers;
  entry.enqueue_seconds = job->submit_seconds;
  queue_.Push(entry);
  shard_->Get(metric::kServiceJobsSubmitted)->Increment();
  *id = job->id;
  jobs_.emplace(job->id, std::move(job));
  cv_.notify_all();
  return Status::OK();
}

void TrainingService::ReapFinishedRunnersLocked(std::vector<std::thread>* out) {
  for (auto& [id, job] : jobs_) {
    (void)id;
    if (job->runner.joinable() && IsTerminalJobState(job->state)) {
      out->push_back(std::move(job->runner));
    }
  }
}

void TrainingService::SchedulerLoop() {
  std::unique_lock<std::mutex> lock(mu_);
  while (true) {
    std::vector<std::thread> done;
    ReapFinishedRunnersLocked(&done);
    if (!done.empty()) {
      lock.unlock();
      for (std::thread& t : done) {
        t.join();
      }
      lock.lock();
      continue;
    }
    if (stop_) {
      break;
    }
    while (true) {
      // Frees only grow between these two calls (this thread is the only
      // leaser), so an admissible pop always leases successfully.
      const int free = pool_.free_slots();
      JobQueue::Entry entry;
      if (free <= 0 || !queue_.PopAdmissible(free, &entry)) {
        break;
      }
      Job* job = jobs_.at(entry.id).get();
      const bool sim = job->spec.engine == EngineKind::kSim;
      const int min_slots = sim ? 1 : job->spec.min_workers;
      int max_slots = sim ? 1 : std::min(job->spec.max_workers, pool_.size());
      if (!queue_.empty()) {
        // Other jobs are waiting: take the minimum and leave room.
        max_slots = min_slots;
      }
      if (!sim && lease_cap_ > 0) {
        // Policy-driven lease resize: admissions honor the autoscaler's cap
        // (a job's min_workers floor always wins over the cap).
        max_slots = std::max(min_slots, std::min(max_slots, lease_cap_));
      }
      WorkerPool::Lease lease;
      PR_CHECK(pool_.TryLease(job->id, min_slots, max_slots, &lease));
      queue_.ChargeUsage(job->spec.tenant, lease.size());
      const std::string& tenant = job->spec.tenant;
      shard_->Get(metric::kServiceTenantLeases, tenant)
          ->Increment(lease.size());
      shard_->Get(metric::kServiceTenantJobs, tenant)->Increment();
      const double now = NowSeconds();
      shard_->Get(metric::kServiceQueueDelay)
          ->Observe(now - job->submit_seconds);
      job->state = JobState::kRunning;
      job->start_seconds = now;
      job->lease = std::move(lease);
      job->control = std::make_shared<RunControl>();
      job->registry = std::make_unique<MetricsRegistry>();
      job->shard = job->registry->NewShard();
      job->detector = std::make_unique<FailureDetector>(
          1, options_.lease_seconds, options_.missed_threshold, now);
      job->last_progress = 0;
      job->runner = std::thread([this, job] { RunJob(job); });
    }
    cv_.wait_for(lock, std::chrono::milliseconds(20));
  }
}

void TrainingService::MonitorLoop() {
  std::unique_lock<std::mutex> lock(mu_);
  while (!stop_) {
    const double now = NowSeconds();
    for (auto& [id, job] : jobs_) {
      (void)id;
      if (job->state != JobState::kRunning ||
          job->spec.engine != EngineKind::kThreaded) {
        continue;
      }
      // The run's gradient tick is the job's heartbeat: while it moves, the
      // job's one-worker lease stays fresh; a stall past the eviction
      // horizon means a hung run holding pool slots hostage.
      const uint64_t progress = job->control->progress();
      if (progress != job->last_progress) {
        job->last_progress = progress;
        job->detector->Beat(0, now);
      }
      if (!job->detector->Expired(now).empty()) {
        job->evicted = true;
        job->control->Abort();
      }
      if (job->cancel_deadline >= 0.0 && now >= job->cancel_deadline) {
        // Cooperative drain did not finish within the grace period.
        job->control->Abort();
      }
    }
    if (scale_policy_ != nullptr &&
        now - last_policy_tick_ >=
            options_.scale_policy.interval_seconds) {
      PolicyTickLocked(now);
    }
    cv_.wait_for(lock, std::chrono::duration<double>(
                           options_.monitor_period_seconds));
  }
}

void TrainingService::PolicyTickLocked(double now) {
  ScaleSample sample;
  sample.mean_idle_fraction = 1.0 - pool_.BusyFraction();
  sample.active_workers = lease_cap_;
  last_policy_tick_ = now;
  const int desired = scale_policy_->Decide(sample);
  if (desired > lease_cap_) {
    ++lease_cap_;
    shard_->Get(metric::kServiceScaleGrow)->Increment();
    cv_.notify_all();  // the scheduler may now admit wider leases
  } else if (desired < lease_cap_) {
    --lease_cap_;
    shard_->Get(metric::kServiceScaleShrink)->Increment();
  }
  shard_->Get(metric::kServiceLeaseCap)->Set(static_cast<double>(lease_cap_));
}

void TrainingService::RunJob(Job* job) {
  // Immutable after admission: spec, lease, control, shard.
  RunConfig config = job->spec.config;
  const int n = job->lease.size();
  const bool sim = job->spec.engine == EngineKind::kSim;

  // Per-job data shard: the same task, a disjoint draw of its samples.
  config.run.dataset.shard = static_cast<uint64_t>(
      job->spec.data_shard < 0 ? 0 : job->spec.data_shard);
  // Per-job checkpoint isolation: jobs never share a manifest directory.
  if (!CheckpointSupported(config.strategy.kind)) {
    config.run.ckpt = CheckpointConfig{};
  } else if (config.run.ckpt.enabled()) {
    const std::string root = options_.ckpt_root.empty()
                                 ? config.run.ckpt.dir
                                 : options_.ckpt_root;
    config.run.ckpt.dir = root + "/job-" + std::to_string(job->id);
  }
  if (!sim) {
    // Fit the run to the lease. ValidateRunConfig aborts the process on
    // violations, so the service sanitizes rather than trusting the spec:
    // the worker count becomes the lease size and every P-Reduce-only
    // feature is clamped or dropped for other kinds.
    StrategyOptions& strategy = config.strategy;
    config.run.num_workers = n;
    if (IsPReduce(strategy.kind)) {
      strategy.group_size = std::max(2, std::min(strategy.group_size, n));
    } else if (config.run.fault.enabled()) {
      config.run.fault = FaultPlan{};
    }
    if (strategy.kind == StrategyKind::kEagerReduce &&
        strategy.er_quorum > n) {
      strategy.er_quorum = 0;  // fall back to majority
    }
    if (strategy.kind == StrategyKind::kPsBackup) {
      strategy.backup_workers =
          std::max(0, std::min(strategy.backup_workers, n - 1));
    }
    if (!config.run.worker_delay_seconds.empty()) {
      config.run.worker_delay_seconds.resize(static_cast<size_t>(n), 0.0);
    }
    auto& events = config.run.fault.worker_events;
    events.erase(std::remove_if(events.begin(), events.end(),
                                [n](const WorkerFaultEvent& e) {
                                  return e.worker < 0 || e.worker >= n;
                                }),
                 events.end());
    config.run.control = job->control;
  }

  RunResult outcome;
  bool ran = false;
  std::unique_ptr<WorkerLauncher> launcher = pool_.MakeLauncher(
      job->lease, job->shard, [this] { return NowSeconds(); });
  if (sim) {
    // The whole simulation is one pool task; the runner just waits.
    launcher->Launch(0, [&] {
      outcome = StartRun(config, EngineKind::kSim);
      ran = true;
    });
    launcher->JoinAll();
  } else {
    // Worker bodies run on the leased agents; the strategy's service loop
    // (controller / PS server) runs inline right here on the runner thread.
    config.run.launcher = launcher.get();
    outcome = StartRun(config, EngineKind::kThreaded);
    ran = true;
  }
  launcher.reset();
  pool_.Release(job->lease);

  {
    std::lock_guard<std::mutex> lock(mu_);
    job->outcome = std::move(outcome);
    job->has_outcome = ran;
    job->finish_seconds = NowSeconds();
    if (job->evicted) {
      job->state = JobState::kEvicted;
    } else if (job->control->cancel_requested() || job->control->aborted()) {
      job->state = JobState::kCancelled;
    } else {
      job->state = JobState::kCompleted;
    }
    shard_->Get(metric::kServiceJobsByState, JobStateName(job->state))
        ->Increment();
  }
  cv_.notify_all();
}

Status TrainingService::Cancel(int64_t id) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = jobs_.find(id);
  if (it == jobs_.end()) {
    return Status::NotFound("no job " + std::to_string(id));
  }
  Job* job = it->second.get();
  if (IsTerminalJobState(job->state)) {
    return Status::OK();  // idempotent
  }
  if (job->state == JobState::kQueued) {
    PR_CHECK(queue_.Remove(id));
    job->state = JobState::kCancelled;
    job->finish_seconds = NowSeconds();
    shard_->Get(metric::kServiceJobsByState, JobStateName(job->state))
        ->Increment();
    cv_.notify_all();
    return Status::OK();
  }
  job->control->RequestCancel();
  if (job->cancel_deadline < 0.0) {
    job->cancel_deadline = NowSeconds() + options_.cancel_grace_seconds;
  }
  // Wake the monitor so the grace clock is armed promptly, and nudge the
  // leased slots (a realistic stray message their endpoints will stash).
  pool_.NudgeSlots(job->lease);
  cv_.notify_all();
  return Status::OK();
}

JobStatus TrainingService::StatusOfLocked(const Job& job) const {
  JobStatus s;
  s.id = job.id;
  s.name = job.spec.name;
  s.tenant = job.spec.tenant;
  s.state = job.state;
  s.priority = job.spec.priority;
  s.engine = job.spec.engine;
  s.strategy = StrategyKindName(job.spec.config.strategy.kind);
  s.leased_workers = job.lease.size();
  s.submit_seconds = job.submit_seconds;
  s.start_seconds = job.start_seconds;
  s.finish_seconds = job.finish_seconds;
  if (job.start_seconds >= 0.0) {
    s.queue_delay_seconds = job.start_seconds - job.submit_seconds;
  } else if (IsTerminalJobState(job.state)) {
    s.queue_delay_seconds = job.finish_seconds - job.submit_seconds;
  } else {
    s.queue_delay_seconds = NowSeconds() - job.submit_seconds;
  }
  if (job.has_outcome) {
    s.final_accuracy = job.outcome.final_accuracy;
    s.final_loss = job.outcome.final_loss;
    s.sync_rounds = job.outcome.updates;
  }
  return s;
}

Status TrainingService::Inspect(int64_t id, JobStatus* out) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = jobs_.find(id);
  if (it == jobs_.end()) {
    return Status::NotFound("no job " + std::to_string(id));
  }
  *out = StatusOfLocked(*it->second);
  return Status::OK();
}

std::vector<JobStatus> TrainingService::List() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<JobStatus> out;
  out.reserve(jobs_.size());
  for (const auto& [id, job] : jobs_) {
    (void)id;
    out.push_back(StatusOfLocked(*job));
  }
  return out;
}

void TrainingService::Drain() {
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock, [this] {
    for (const auto& [id, job] : jobs_) {
      (void)id;
      if (!IsTerminalJobState(job->state)) {
        return false;
      }
    }
    return true;
  });
}

MetricsSnapshot TrainingService::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  shard_->Get(metric::kServicePoolSize)->Set(static_cast<double>(pool_.size()));
  shard_->Get(metric::kServicePoolUtilization)->Set(pool_.BusyFraction());
  shard_->Get(metric::kServiceQueueLength)
      ->Set(static_cast<double>(queue_.size()));
  MetricsSnapshot out = registry_.Snapshot();
  for (const auto& [id, job] : jobs_) {
    const std::string prefix = "job." + std::to_string(id) + ".";
    if (job->registry != nullptr) {
      PrefixInto(job->registry->Snapshot(), prefix, &out);
    }
    if (job->has_outcome) {
      PrefixInto(job->outcome.metrics, prefix, &out);
    }
  }
  return out;
}

double TrainingService::TenantUsage(const std::string& tenant) const {
  std::lock_guard<std::mutex> lock(mu_);
  return queue_.usage(tenant);
}

namespace {

std::string ErrorJson(const Status& status) {
  JsonValue out = JsonValue::MakeObject();
  out.Set("ok", JsonValue::MakeBool(false));
  out.Set("error", JsonValue::MakeString(status.message()));
  return out.Dump();
}

JsonValue JobsArray(const std::vector<JobStatus>& jobs) {
  JsonValue array = JsonValue::MakeArray();
  for (const JobStatus& job : jobs) {
    array.Append(JobStatusToJsonValue(job));
  }
  return array;
}

}  // namespace

std::string ServiceHandle::Submit(const std::string& spec_json) {
  JobSpec spec;
  Status status = JobSpecFromJson(spec_json, &spec);
  if (!status.ok()) {
    return ErrorJson(status);
  }
  int64_t id = 0;
  status = service_->Submit(spec, &id);
  if (!status.ok()) {
    return ErrorJson(status);
  }
  JsonValue out = JsonValue::MakeObject();
  out.Set("ok", JsonValue::MakeBool(true));
  out.Set("job", JsonValue::MakeNumber(static_cast<double>(id)));
  return out.Dump();
}

std::string ServiceHandle::Inspect(int64_t id) {
  JobStatus job;
  Status status = service_->Inspect(id, &job);
  if (!status.ok()) {
    return ErrorJson(status);
  }
  JsonValue out = JsonValue::MakeObject();
  out.Set("ok", JsonValue::MakeBool(true));
  out.Set("job", JobStatusToJsonValue(job));
  return out.Dump();
}

std::string ServiceHandle::List() {
  JsonValue out = JsonValue::MakeObject();
  out.Set("ok", JsonValue::MakeBool(true));
  out.Set("jobs", JobsArray(service_->List()));
  return out.Dump();
}

std::string ServiceHandle::Cancel(int64_t id) {
  Status status = service_->Cancel(id);
  if (!status.ok()) {
    return ErrorJson(status);
  }
  JsonValue out = JsonValue::MakeObject();
  out.Set("ok", JsonValue::MakeBool(true));
  return out.Dump();
}

std::string ServiceHandle::Drain() {
  service_->Drain();
  JsonValue out = JsonValue::MakeObject();
  out.Set("ok", JsonValue::MakeBool(true));
  out.Set("jobs", JobsArray(service_->List()));
  return out.Dump();
}

std::string ServiceHandle::Metrics() {
  return MetricsSnapshotJson(service_->Snapshot());
}

}  // namespace pr
