#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "launch/config_io.h"
#include "obs/json.h"
#include "service/job_queue.h"
#include "service/job_spec.h"
#include "service/service.h"
#include "service/worker_pool.h"
#include "train/run.h"

namespace pr {
namespace {

/// A tiny two-worker partial-reduce job (finishes in a few milliseconds).
JobSpec SmallThreadedJob(const std::string& tenant, int priority = 0) {
  JobSpec spec;
  spec.tenant = tenant;
  spec.priority = priority;
  spec.min_workers = 2;
  spec.max_workers = 2;
  RunConfig& config = spec.config;
  config.strategy.kind = StrategyKind::kPReduceConst;
  config.strategy.group_size = 2;
  config.run.num_workers = 2;
  config.run.iterations_per_worker = 4;
  config.run.batch_size = 8;
  config.run.model.hidden = {8};
  config.run.dataset.num_train = 64;
  config.run.dataset.num_test = 32;
  config.run.dataset.dim = 8;
  config.run.dataset.num_classes = 3;
  config.run.seed = 21;
  return spec;
}

/// A single-worker PS-ASP job (occupies exactly one pool slot).
JobSpec OneWorkerPsJob(double delay_seconds, size_t iterations) {
  JobSpec spec;
  spec.min_workers = 1;
  spec.max_workers = 1;
  RunConfig& config = spec.config;
  config.strategy.kind = StrategyKind::kPsAsp;
  config.run.num_workers = 1;
  config.run.iterations_per_worker = iterations;
  config.run.batch_size = 8;
  config.run.model.hidden = {8};
  config.run.dataset.num_train = 64;
  config.run.dataset.num_test = 32;
  config.run.dataset.dim = 8;
  config.run.dataset.num_classes = 3;
  if (delay_seconds > 0.0) {
    config.run.worker_delay_seconds = {delay_seconds};
  }
  return spec;
}

JobStatus MustInspect(TrainingService* service, int64_t id) {
  JobStatus status;
  Status found = service->Inspect(id, &status);
  EXPECT_TRUE(found.ok()) << found.message();
  return status;
}

void WaitForState(TrainingService* service, int64_t id, JobState state) {
  for (int i = 0; i < 2000; ++i) {
    if (MustInspect(service, id).state == state) {
      return;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  FAIL() << "job " << id << " never reached " << JobStateName(state)
         << " (now " << JobStateName(MustInspect(service, id).state) << ")";
}

TEST(JobSpecTest, JsonRoundTrip) {
  JobSpec spec;
  spec.name = "night-train";
  spec.tenant = "acme";
  spec.priority = 7;
  spec.min_workers = 2;
  spec.max_workers = 5;
  spec.data_shard = 3;
  spec.engine = EngineKind::kSim;
  spec.config.strategy.kind = StrategyKind::kPReduceDynamic;
  spec.config.strategy.group_size = 4;
  spec.config.run.num_workers = 6;
  spec.config.run.iterations_per_worker = 17;
  spec.config.run.model.hidden = {24, 12};
  spec.config.run.seed = 99;

  JobSpec parsed;
  Status status = JobSpecFromJson(JobSpecToJson(spec), &parsed);
  ASSERT_TRUE(status.ok()) << status.message();
  EXPECT_EQ(parsed.name, "night-train");
  EXPECT_EQ(parsed.tenant, "acme");
  EXPECT_EQ(parsed.priority, 7);
  EXPECT_EQ(parsed.min_workers, 2);
  EXPECT_EQ(parsed.max_workers, 5);
  EXPECT_EQ(parsed.data_shard, 3);
  EXPECT_EQ(parsed.engine, EngineKind::kSim);
  // The embedded RunConfig survives byte-for-byte in its text serialization.
  EXPECT_EQ(SerializeRunConfig(parsed.config), SerializeRunConfig(spec.config));
}

TEST(JobSpecTest, RejectsMalformedSpecs) {
  JobSpec out;
  EXPECT_FALSE(JobSpecFromJson("[]", &out).ok());
  EXPECT_FALSE(JobSpecFromJson("{\"priority\": 1}", &out).ok());  // no config
  const std::string valid = JobSpecToJson(SmallThreadedJob("t"));
  JsonValue doc;
  ASSERT_TRUE(ParseJson(valid, &doc).ok());
  doc.Set("engine", JsonValue::MakeString("quantum"));
  EXPECT_FALSE(JobSpecFromJson(doc.Dump(), &out).ok());
  ASSERT_TRUE(ParseJson(valid, &doc).ok());
  doc.Set("surprise", JsonValue::MakeNumber(1.0));
  EXPECT_FALSE(JobSpecFromJson(doc.Dump(), &out).ok());
  ASSERT_TRUE(ParseJson(valid, &doc).ok());
  doc.Set("min_workers", JsonValue::MakeNumber(4.0));
  doc.Set("max_workers", JsonValue::MakeNumber(2.0));
  EXPECT_FALSE(JobSpecFromJson(doc.Dump(), &out).ok());
}

TEST(JobQueueTest, WeightedFairShareAcrossTenants) {
  JobQueue queue;
  queue.SetTenantWeight("heavy", 2.0);
  for (int i = 0; i < 6; ++i) {
    JobQueue::Entry entry;
    entry.id = 100 + i;
    entry.tenant = "heavy";
    entry.min_workers = 2;
    queue.Push(entry);
    entry.id = 200 + i;
    entry.tenant = "light";
    queue.Push(entry);
  }
  std::vector<std::string> order;
  JobQueue::Entry popped;
  while (queue.PopAdmissible(2, &popped)) {
    order.push_back(popped.tenant);
    queue.ChargeUsage(popped.tenant, 2.0);
  }
  ASSERT_EQ(order.size(), 12u);
  // Weight 2:1 admission interleaves roughly 2 heavy per light throughout.
  int heavy_in_first_half = 0;
  for (size_t i = 0; i < 6; ++i) {
    heavy_in_first_half += order[i] == "heavy" ? 1 : 0;
  }
  EXPECT_EQ(heavy_in_first_half, 4);
  EXPECT_DOUBLE_EQ(queue.usage("heavy"), 12.0);
  EXPECT_DOUBLE_EQ(queue.usage("light"), 12.0);
}

TEST(JobQueueTest, PriorityThenFifoWithinTenant) {
  JobQueue queue;
  for (int i = 0; i < 3; ++i) {
    JobQueue::Entry entry;
    entry.id = i;
    entry.tenant = "t";
    entry.priority = i == 1 ? 5 : 0;
    entry.min_workers = 1;
    queue.Push(entry);
  }
  JobQueue::Entry popped;
  ASSERT_TRUE(queue.PopAdmissible(8, &popped));
  EXPECT_EQ(popped.id, 1);  // highest priority
  ASSERT_TRUE(queue.PopAdmissible(8, &popped));
  EXPECT_EQ(popped.id, 0);  // FIFO among equals
  ASSERT_TRUE(queue.PopAdmissible(8, &popped));
  EXPECT_EQ(popped.id, 2);
}

TEST(JobQueueTest, BigJobDoesNotBlockOtherTenants) {
  JobQueue queue;
  JobQueue::Entry big;
  big.id = 1;
  big.tenant = "a";
  big.min_workers = 8;
  queue.Push(big);
  JobQueue::Entry small;
  small.id = 2;
  small.tenant = "b";
  small.min_workers = 2;
  queue.Push(small);
  JobQueue::Entry popped;
  ASSERT_TRUE(queue.PopAdmissible(2, &popped));
  EXPECT_EQ(popped.id, 2);
  EXPECT_FALSE(queue.PopAdmissible(2, &popped));
  ASSERT_TRUE(queue.PopAdmissible(8, &popped));
  EXPECT_EQ(popped.id, 1);
}

TEST(ServiceTest, RunsJobsToCompletionWithIsolatedMetrics) {
  ServiceOptions options;
  options.pool_size = 4;
  TrainingService service(options);
  int64_t first = 0;
  int64_t second = 0;
  ASSERT_TRUE(service.Submit(SmallThreadedJob("t"), &first).ok());
  JobSpec sim = OneWorkerPsJob(0.0, 8);
  sim.engine = EngineKind::kSim;
  sim.config.run.num_workers = 4;
  ASSERT_TRUE(service.Submit(sim, &second).ok());
  service.Drain();

  JobStatus status = MustInspect(&service, first);
  EXPECT_EQ(status.state, JobState::kCompleted);
  EXPECT_EQ(status.leased_workers, 2);
  EXPECT_GT(status.sync_rounds, 0u);
  EXPECT_GE(status.queue_delay_seconds, 0.0);
  status = MustInspect(&service, second);
  EXPECT_EQ(status.state, JobState::kCompleted);
  EXPECT_EQ(status.engine, EngineKind::kSim);

  // Per-job metric namespaces, plus service-level scheduler metrics.
  const MetricsSnapshot snapshot = service.Snapshot();
  EXPECT_GT(snapshot.counter("job.1.worker.0.iterations"), 0.0);
  EXPECT_GT(snapshot.counter("job.2.worker.0.iterations"), 0.0);
  EXPECT_EQ(snapshot.counter("service.jobs_submitted"), 2.0);
  EXPECT_EQ(snapshot.counter("service.jobs_completed"), 2.0);
  EXPECT_GE(snapshot.gauge("service.pool.utilization"), 0.0);
  EXPECT_EQ(snapshot.gauge("service.pool.size"), 4.0);
}

TEST(ServiceTest, DataShardSelectsTheDataASimJobTrainsOn) {
  ServiceOptions options;
  options.pool_size = 2;
  TrainingService service(options);
  JobSpec spec = SmallThreadedJob("t");
  spec.engine = EngineKind::kSim;
  int64_t shard0 = 0;
  int64_t shard1 = 0;
  ASSERT_TRUE(service.Submit(spec, &shard0).ok());
  spec.data_shard = 1;
  ASSERT_TRUE(service.Submit(spec, &shard1).ok());
  service.Drain();

  const JobStatus a = MustInspect(&service, shard0);
  const JobStatus b = MustInspect(&service, shard1);
  ASSERT_EQ(a.state, JobState::kCompleted);
  ASSERT_EQ(b.state, JobState::kCompleted);
  // Shard 0 draws the data the same run draws outside the service.
  EXPECT_EQ(a.final_loss, StartRun(spec.config, EngineKind::kSim).final_loss);
  EXPECT_NE(a.final_loss, b.final_loss);
}

TEST(ServiceTest, FairShareSkewsAdmissionTowardWeightedTenant) {
  ServiceOptions options;
  options.pool_size = 2;  // one 2-worker job at a time: serial admissions
  options.tenant_weights["heavy"] = 2.0;
  options.tenant_weights["light"] = 1.0;
  TrainingService service(options);
  std::vector<int64_t> heavy_ids;
  std::vector<int64_t> light_ids;
  // Mixed priorities inside each tenant; fair share operates across them.
  for (int i = 0; i < 12; ++i) {
    int64_t id = 0;
    ASSERT_TRUE(
        service.Submit(SmallThreadedJob("heavy", i % 3), &id).ok());
    heavy_ids.push_back(id);
    ASSERT_TRUE(
        service.Submit(SmallThreadedJob("light", (i + 1) % 3), &id).ok());
    light_ids.push_back(id);
  }
  service.Drain();

  // Everyone eventually ran...
  std::vector<std::pair<double, std::string>> starts;
  for (int64_t id : heavy_ids) {
    const JobStatus status = MustInspect(&service, id);
    EXPECT_EQ(status.state, JobState::kCompleted);
    starts.emplace_back(status.start_seconds, "heavy");
  }
  for (int64_t id : light_ids) {
    const JobStatus status = MustInspect(&service, id);
    EXPECT_EQ(status.state, JobState::kCompleted);
    starts.emplace_back(status.start_seconds, "light");
  }
  // ...but while both tenants were contending, the weight-2 tenant was
  // admitted about twice as often: among the first 9 admissions it held a
  // 2:1 majority (allow one admission of slack for scheduling noise).
  std::sort(starts.begin(), starts.end());
  int heavy_early = 0;
  for (size_t i = 0; i < 9; ++i) {
    heavy_early += starts[i].second == "heavy" ? 1 : 0;
  }
  EXPECT_GE(heavy_early, 5);
  EXPECT_LE(heavy_early, 7);
  // Usage accounting saw every lease.
  EXPECT_DOUBLE_EQ(service.TenantUsage("heavy"), 24.0);
  EXPECT_DOUBLE_EQ(service.TenantUsage("light"), 24.0);
  const MetricsSnapshot snapshot = service.Snapshot();
  EXPECT_DOUBLE_EQ(snapshot.counter("service.tenant.heavy.leases"), 24.0);
  EXPECT_DOUBLE_EQ(snapshot.counter("service.tenant.light.leases"), 24.0);
}

TEST(ServiceTest, CancelMidGroupDrainsAndReclaimsWorkers) {
  ServiceOptions options;
  options.pool_size = 2;
  options.cancel_grace_seconds = 5.0;  // cooperative drain must not need it
  TrainingService service(options);
  JobSpec slow = SmallThreadedJob("t");
  slow.config.run.iterations_per_worker = 100000;
  slow.config.run.worker_delay_seconds = {0.001, 0.001};
  int64_t id = 0;
  ASSERT_TRUE(service.Submit(slow, &id).ok());
  WaitForState(&service, id, JobState::kRunning);
  ASSERT_TRUE(service.Cancel(id).ok());
  WaitForState(&service, id, JobState::kCancelled);
  // Far from the budget: this really was a mid-run drain.
  const MetricsSnapshot snapshot = service.Snapshot();
  EXPECT_LT(snapshot.counter("job.1.worker.0.iterations"), 100000.0);

  // The lease came home: the pool is clean and the next job runs fine.
  EXPECT_EQ(service.pool().free_slots(), 2);
  int64_t next = 0;
  ASSERT_TRUE(service.Submit(SmallThreadedJob("t"), &next).ok());
  service.Drain();
  EXPECT_EQ(MustInspect(&service, next).state, JobState::kCompleted);
  EXPECT_TRUE(service.Cancel(id).ok());  // idempotent on terminal jobs
}

TEST(ServiceTest, CancelQueuedJobNeverRuns) {
  ServiceOptions options;
  options.pool_size = 2;
  TrainingService service(options);
  JobSpec blocker = SmallThreadedJob("t");
  blocker.config.run.iterations_per_worker = 200;
  blocker.config.run.worker_delay_seconds = {0.001, 0.001};
  int64_t blocker_id = 0;
  ASSERT_TRUE(service.Submit(blocker, &blocker_id).ok());
  WaitForState(&service, blocker_id, JobState::kRunning);
  int64_t queued = 0;
  ASSERT_TRUE(service.Submit(SmallThreadedJob("t"), &queued).ok());
  ASSERT_TRUE(service.Cancel(queued).ok());
  EXPECT_EQ(MustInspect(&service, queued).state, JobState::kCancelled);
  service.Drain();
  EXPECT_EQ(MustInspect(&service, queued).leased_workers, 0);
  EXPECT_EQ(MustInspect(&service, blocker_id).state, JobState::kCompleted);
}

TEST(ServiceTest, MonitorEvictsStalledRun) {
  ServiceOptions options;
  options.pool_size = 2;
  options.lease_seconds = 0.03;
  options.missed_threshold = 5;  // 150 ms eviction horizon
  TrainingService service(options);
  // Both workers sleep 0.5 s per iteration: the progress tick stalls far
  // past the horizon and the liveness monitor must abort the run.
  JobSpec stalled = SmallThreadedJob("t");
  stalled.config.run.iterations_per_worker = 3;
  stalled.config.run.worker_delay_seconds = {0.5, 0.5};
  int64_t id = 0;
  ASSERT_TRUE(service.Submit(stalled, &id).ok());
  WaitForState(&service, id, JobState::kEvicted);
  EXPECT_EQ(service.pool().free_slots(), 2);
  EXPECT_DOUBLE_EQ(service.Snapshot().counter("service.jobs_evicted"), 1.0);
  // The pool still serves healthy jobs afterwards.
  int64_t next = 0;
  ASSERT_TRUE(service.Submit(SmallThreadedJob("t"), &next).ok());
  service.Drain();
  EXPECT_EQ(MustInspect(&service, next).state, JobState::kCompleted);
}

TEST(ServiceTest, StashDiagnosticsResetBetweenJobsSharingAWorker) {
  ServiceOptions options;
  options.pool_size = 1;  // jobs A and B share the single agent
  TrainingService service(options);
  int64_t job_a = 0;
  ASSERT_TRUE(service.Submit(OneWorkerPsJob(0.002, 100), &job_a).ok());
  WaitForState(&service, job_a, JobState::kRunning);
  // kRunning is set at lease grant, slightly before the runner hands the
  // task to the pool agent. Wait until the agent actually picked the task
  // up (the slot turns busy, which happens after it attached job A's
  // metrics scope) so the cancel note below is stashed under A's scope.
  // (BusyFraction is time-averaged; the first nonzero reading marks the
  // single slot turning busy.)
  for (int i = 0; i < 2000 && service.pool().BusyFraction() == 0.0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ASSERT_GT(service.pool().BusyFraction(), 0.0);
  // Cancelling sends a kKindCancelNote to the leased slot. The agent never
  // selects that kind, so the note is stashed at the next task pickup —
  // while job A's metrics scope is still attached.
  ASSERT_TRUE(service.Cancel(job_a).ok());
  service.Drain();
  int64_t job_b = 0;
  ASSERT_TRUE(service.Submit(OneWorkerPsJob(0.0, 4), &job_b).ok());
  service.Drain();
  EXPECT_EQ(MustInspect(&service, job_b).state, JobState::kCompleted);

  const MetricsSnapshot snapshot = service.Snapshot();
  const std::string a = "job." + std::to_string(job_a) + ".";
  const std::string b = "job." + std::to_string(job_b) + ".";
  // The stray note was charged to job A: its scoped high-water grew and the
  // purge before job B's attach was counted against A's scope.
  EXPECT_GE(snapshot.gauge(a + "pool.0.stash_high_water"), 1.0);
  EXPECT_GE(snapshot.counter(a + "transport.stash_purged"), 1.0);
  // Job B starts with clean diagnostics: without ResetDiagnostics between
  // jobs, A's high-water would be re-published into B's gauges at attach.
  EXPECT_DOUBLE_EQ(snapshot.gauge(b + "pool.0.stash_high_water"), 0.0);
  EXPECT_DOUBLE_EQ(snapshot.counter(b + "transport.stash_purged"), 0.0);
}

TEST(ServiceTest, SubmitValidatesSpecs) {
  ServiceOptions options;
  options.pool_size = 2;
  TrainingService service(options);
  int64_t id = 0;
  JobSpec spec = SmallThreadedJob("t");
  spec.min_workers = 3;  // exceeds the pool
  EXPECT_FALSE(service.Submit(spec, &id).ok());
  spec = SmallThreadedJob("t");
  spec.min_workers = 1;  // P-Reduce needs 2
  EXPECT_FALSE(service.Submit(spec, &id).ok());
  spec = SmallThreadedJob("t");
  spec.max_workers = 1;  // max < min
  EXPECT_FALSE(service.Submit(spec, &id).ok());
  JobStatus status;
  EXPECT_FALSE(service.Inspect(404, &status).ok());
  EXPECT_FALSE(service.Cancel(404).ok());
}

TEST(ServiceHandleTest, JsonControlSurface) {
  ServiceOptions options;
  options.pool_size = 2;
  TrainingService service(options);
  ServiceHandle handle(&service);

  const std::string reply =
      handle.Submit(JobSpecToJson(SmallThreadedJob("acme")));
  JsonValue parsed;
  ASSERT_TRUE(ParseJson(reply, &parsed).ok()) << reply;
  ASSERT_NE(parsed.Find("ok"), nullptr);
  EXPECT_TRUE(parsed.Find("ok")->bool_value());
  const int64_t id =
      static_cast<int64_t>(parsed.Find("job")->number_value());

  const std::string rejected = handle.Submit("{\"nope\": 1}");
  ASSERT_TRUE(ParseJson(rejected, &parsed).ok());
  EXPECT_FALSE(parsed.Find("ok")->bool_value());
  EXPECT_NE(parsed.Find("error"), nullptr);

  const std::string drained = handle.Drain();
  ASSERT_TRUE(ParseJson(drained, &parsed).ok());
  const JsonValue* jobs = parsed.Find("jobs");
  ASSERT_NE(jobs, nullptr);
  ASSERT_EQ(jobs->items().size(), 1u);
  EXPECT_EQ(jobs->items()[0].Find("state")->string_value(), "completed");

  const std::string inspected = handle.Inspect(id);
  ASSERT_TRUE(ParseJson(inspected, &parsed).ok());
  EXPECT_EQ(parsed.Find("job")->Find("tenant")->string_value(), "acme");
  EXPECT_EQ(parsed.Find("job")->Find("strategy")->string_value(), "CON");

  ASSERT_TRUE(ParseJson(handle.Cancel(id), &parsed).ok());
  EXPECT_TRUE(parsed.Find("ok")->bool_value());  // idempotent
  ASSERT_TRUE(ParseJson(handle.Inspect(999), &parsed).ok());
  EXPECT_FALSE(parsed.Find("ok")->bool_value());

  JsonValue metrics;
  ASSERT_TRUE(ParseJson(handle.Metrics(), &metrics).ok());
  ASSERT_NE(metrics.Find("counters"), nullptr);
}

TEST(WorkerPoolTest, GrowAndShrinkLease) {
  WorkerPool pool(4);
  WorkerPool::Lease lease;
  ASSERT_TRUE(pool.TryLease(1, 2, 2, &lease));
  EXPECT_EQ(lease.size(), 2);
  EXPECT_EQ(pool.free_slots(), 2);

  // Grow claims the lowest free slot ids, appended to the lease tail.
  const std::vector<int> before = lease.slots;
  EXPECT_EQ(pool.GrowLease(&lease, 3), 2);  // only 2 were free
  EXPECT_EQ(lease.size(), 4);
  EXPECT_EQ(pool.free_slots(), 0);
  std::vector<int> grown(lease.slots.begin() + 2, lease.slots.end());
  EXPECT_TRUE(std::is_sorted(grown.begin(), grown.end()));
  EXPECT_EQ(std::vector<int>(lease.slots.begin(), lease.slots.begin() + 2),
            before);

  // Shrink releases from the tail (most recently acquired first) and
  // never drops below keep_min.
  const std::vector<int> released = pool.ShrinkLease(&lease, 3, 2);
  EXPECT_EQ(released, (std::vector<int>{grown[1], grown[0]}));
  EXPECT_EQ(lease.size(), 2);
  EXPECT_EQ(pool.free_slots(), 2);
  EXPECT_EQ(lease.slots, before);

  // Released slots are leasable again.
  WorkerPool::Lease second;
  ASSERT_TRUE(pool.TryLease(2, 2, 2, &second));
  pool.Release(second);
  pool.Release(lease);
  EXPECT_EQ(pool.free_slots(), 4);
}

TEST(ServiceTest, ManyConcurrentJobsOverSmallPool) {
  ServiceOptions options;
  options.pool_size = 4;
  TrainingService service(options);
  std::vector<int64_t> ids;
  for (int i = 0; i < 30; ++i) {
    JobSpec spec = SmallThreadedJob(i % 2 == 0 ? "a" : "b", i % 3);
    spec.max_workers = 4;
    spec.data_shard = i;
    int64_t id = 0;
    ASSERT_TRUE(service.Submit(spec, &id).ok());
    ids.push_back(id);
  }
  service.Drain();
  for (int64_t id : ids) {
    EXPECT_EQ(MustInspect(&service, id).state, JobState::kCompleted)
        << "job " << id;
  }
  EXPECT_EQ(service.pool().free_slots(), 4);
  EXPECT_DOUBLE_EQ(service.Snapshot().counter("service.jobs_completed"),
                   30.0);
}

}  // namespace
}  // namespace pr
