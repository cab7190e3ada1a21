// Job service: many small training jobs from two tenants sharing one
// fixed worker pool.
//
// A 4-slot pool serves ten jobs — eight 2-worker partial-reduce runs plus
// two simulator runs — submitted by a heavy tenant (fair-share weight 2)
// and a light tenant (weight 1). The scheduler leases pool slots with
// weighted fair share across tenants and priority FIFO within each, every
// job's metrics land in its own `job.<id>.*` namespace, and the pool's
// workers are reused across jobs with their diagnostics reset in between.
// The JSON flavor of the same surface (declarative specs, ServiceHandle)
// is what `prserve --jobs` drives; see README "Running a job service".

#include <cstdio>

#include "service/service.h"
#include "train/report.h"

namespace {

pr::JobSpec MakeJob(const std::string& tenant, int index, bool sim) {
  pr::JobSpec spec;
  spec.name = tenant + "-" + std::to_string(index);
  spec.tenant = tenant;
  spec.priority = index % 2;
  spec.engine = sim ? pr::EngineKind::kSim : pr::EngineKind::kThreaded;
  spec.min_workers = sim ? 1 : 2;
  spec.max_workers = sim ? 1 : 3;
  spec.data_shard = index;  // each job its own draw of the same task

  pr::RunConfig& config = spec.config;
  config.strategy.kind = sim ? pr::StrategyKind::kPsAsp
                             : pr::StrategyKind::kPReduceConst;
  config.strategy.group_size = 2;
  config.run.num_workers = sim ? 4 : 2;  // sim workers are virtual
  config.run.iterations_per_worker = 12;
  config.run.batch_size = 16;
  config.run.model.hidden = {16};
  config.run.dataset.num_train = 256;
  config.run.dataset.num_test = 64;
  config.run.dataset.dim = 16;
  config.run.dataset.num_classes = 4;
  return spec;
}

}  // namespace

int main() {
  pr::ServiceOptions options;
  options.pool_size = 4;
  options.tenant_weights["team-heavy"] = 2.0;
  pr::TrainingService service(options);

  int submitted = 0;
  for (int i = 0; i < 5; ++i) {
    for (const char* tenant : {"team-heavy", "team-light"}) {
      const bool sim = i == 4;  // last pair runs on the simulator
      int64_t id = 0;
      pr::Status status = service.Submit(MakeJob(tenant, i, sim), &id);
      if (!status.ok()) {
        std::printf("submit failed: %s\n", std::string(status.message()).c_str());
        return 1;
      }
      ++submitted;
    }
  }
  std::printf("submitted %d jobs to a %d-slot pool, draining...\n\n",
              submitted, options.pool_size);
  service.Drain();

  pr::TablePrinter table({"job", "tenant", "engine", "strategy", "state",
                          "workers", "queue (s)", "accuracy"});
  int completed = 0;
  for (const pr::JobStatus& job : service.List()) {
    if (job.state == pr::JobState::kCompleted) ++completed;
    table.AddRow({job.name, job.tenant, pr::EngineKindName(job.engine),
                  job.strategy, pr::JobStateName(job.state),
                  std::to_string(job.leased_workers),
                  pr::FormatDouble(job.queue_delay_seconds, 4),
                  pr::FormatDouble(job.final_accuracy, 3)});
  }
  table.Print();

  const pr::MetricsSnapshot snapshot = service.Snapshot();
  std::printf(
      "\n%d/%d jobs completed; pool utilization %.2f\n"
      "fair share (leased workers): team-heavy %.0f at weight 2, "
      "team-light %.0f at weight 1\n",
      completed, submitted, snapshot.gauge("service.pool.utilization"),
      service.TenantUsage("team-heavy"), service.TenantUsage("team-light"));
  // Per-job isolation: each job's run metrics live under job.<id>.*.
  std::printf("job 1 ran %.0f worker iterations under its own namespace\n",
              snapshot.counter("job.1.worker.0.iterations") +
                  snapshot.counter("job.1.worker.1.iterations"));
  return completed == submitted ? 0 : 1;
}
