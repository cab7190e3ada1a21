#include "service/worker_pool.h"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <utility>

#include "common/check.h"
#include "obs/metric_table.h"

namespace pr {

namespace {

/// Maps a run's worker indices onto leased pool slots. Bodies run
/// concurrently because every mapped slot is a distinct agent thread; the
/// run-side contract (see WorkerLauncher) is therefore met as long as the
/// lease is at least as large as the run.
class PoolLauncher : public WorkerLauncher {
 public:
  PoolLauncher(WorkerPool* pool, std::vector<int> slots, MetricsShard* shard,
               std::function<double()> now)
      : pool_(pool),
        slots_(std::move(slots)),
        shard_(shard),
        now_(std::move(now)) {}

  ~PoolLauncher() override { JoinAll(); }

  void Launch(int worker, std::function<void()> body) override {
    PR_CHECK(worker >= 0 && worker < static_cast<int>(slots_.size()))
        << "run has more workers than the lease has slots";
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++outstanding_;
    }
    WorkerPool::Task task;
    task.body = std::move(body);
    task.shard = shard_;
    task.now = now_;
    task.on_done = [this] {
      std::lock_guard<std::mutex> lock(mu_);
      --outstanding_;
      cv_.notify_all();
    };
    pool_->Dispatch(slots_[worker], std::move(task));
  }

  void JoinAll() override {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return outstanding_ == 0; });
  }

 private:
  WorkerPool* pool_;
  std::vector<int> slots_;
  MetricsShard* shard_;
  std::function<double()> now_;

  std::mutex mu_;
  std::condition_variable cv_;
  int outstanding_ = 0;
};

}  // namespace

WorkerPool::WorkerPool(int size)
    : size_(size),
      transport_(size + 1),
      leased_(static_cast<size_t>(size), false),
      served_(static_cast<size_t>(size), 0),
      busy_since_(static_cast<size_t>(size), -1.0),
      busy_seconds_(static_cast<size_t>(size), 0.0),
      start_seconds_(NowSeconds()) {
  PR_CHECK(size >= 1) << "pool needs at least one slot";
  agents_.reserve(static_cast<size_t>(size));
  for (int slot = 0; slot < size; ++slot) {
    agents_.emplace_back([this, slot] { AgentLoop(slot); });
  }
}

WorkerPool::~WorkerPool() {
  transport_.Shutdown();
  for (std::thread& t : agents_) {
    t.join();
  }
}

double WorkerPool::NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void WorkerPool::AgentLoop(int slot) {
  // The endpoint outlives every job this slot serves — exactly the reuse
  // pattern the handoff hygiene below exists for.
  Endpoint ep(&transport_, slot);
  while (true) {
    std::optional<Envelope> env = ep.RecvMatching(size_, 0, kKindTask);
    if (!env.has_value()) {
      break;  // pool shutdown
    }
    PR_CHECK(!env->ints.empty());
    Task task;
    {
      std::lock_guard<std::mutex> lock(mu_);
      auto it = tasks_.find(env->ints[0]);
      PR_CHECK(it != tasks_.end()) << "dispatched task id unknown";
      task = std::move(it->second);
      tasks_.erase(it);
    }
    // Job handoff hygiene, in this order: purge stray messages first (the
    // drop count and high-water growth are charged to the *previous* job's
    // still-attached scope, where they belong), then zero the diagnostics,
    // then attach the next job's scope with a clean slate.
    ep.PurgeStash([](const Envelope&) { return true; });
    ep.ResetDiagnostics();
    if (task.shard != nullptr) {
      std::function<double()> now =
          task.now ? task.now : [] { return 0.0; };
      ep.AttachObservers(task.shard,
                         task.shard->Get(metric::kPoolStashHighWater, slot),
                         /*trace=*/nullptr, std::move(now));
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      busy_since_[static_cast<size_t>(slot)] = NowSeconds();
    }
    if (task.body) {
      task.body();
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      busy_seconds_[static_cast<size_t>(slot)] +=
          NowSeconds() - busy_since_[static_cast<size_t>(slot)];
      busy_since_[static_cast<size_t>(slot)] = -1.0;
      ++served_[static_cast<size_t>(slot)];
    }
    if (task.on_done) {
      task.on_done();
    }
  }
}

bool WorkerPool::TryLease(int64_t job_id, int min_slots, int max_slots,
                          Lease* out) {
  PR_CHECK(min_slots >= 1 && max_slots >= min_slots);
  std::lock_guard<std::mutex> lock(mu_);
  int free = 0;
  for (int slot = 0; slot < size_; ++slot) {
    if (!leased_[static_cast<size_t>(slot)]) {
      ++free;
    }
  }
  if (free < min_slots) {
    return false;
  }
  const int take = std::min(max_slots, free);
  Lease lease;
  lease.job_id = job_id;
  for (int slot = 0; slot < size_ && lease.size() < take; ++slot) {
    if (!leased_[static_cast<size_t>(slot)]) {
      leased_[static_cast<size_t>(slot)] = true;
      lease.slots.push_back(slot);
    }
  }
  *out = std::move(lease);
  return true;
}

void WorkerPool::Release(const Lease& lease) {
  std::lock_guard<std::mutex> lock(mu_);
  for (int slot : lease.slots) {
    PR_CHECK(slot >= 0 && slot < size_ &&
             leased_[static_cast<size_t>(slot)])
        << "releasing a slot that is not leased";
    leased_[static_cast<size_t>(slot)] = false;
  }
}

int WorkerPool::GrowLease(Lease* lease, int want) {
  PR_CHECK(lease != nullptr && want >= 0);
  std::lock_guard<std::mutex> lock(mu_);
  int got = 0;
  for (int slot = 0; slot < size_ && got < want; ++slot) {
    if (!leased_[static_cast<size_t>(slot)]) {
      leased_[static_cast<size_t>(slot)] = true;
      lease->slots.push_back(slot);
      ++got;
    }
  }
  return got;
}

std::vector<int> WorkerPool::ShrinkLease(Lease* lease, int drop,
                                         int keep_min) {
  PR_CHECK(lease != nullptr && drop >= 0 && keep_min >= 0);
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<int> released;
  while (drop > 0 && lease->size() > keep_min) {
    const int slot = lease->slots.back();
    lease->slots.pop_back();
    PR_CHECK(slot >= 0 && slot < size_ &&
             leased_[static_cast<size_t>(slot)])
        << "shrinking a slot that is not leased";
    leased_[static_cast<size_t>(slot)] = false;
    released.push_back(slot);
    --drop;
  }
  return released;
}

int WorkerPool::free_slots() const {
  std::lock_guard<std::mutex> lock(mu_);
  int free = 0;
  for (bool leased : leased_) {
    if (!leased) {
      ++free;
    }
  }
  return free;
}

void WorkerPool::Dispatch(int slot, Task task) {
  PR_CHECK(slot >= 0 && slot < size_);
  int64_t id = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    id = next_task_id_++;
    tasks_.emplace(id, std::move(task));
    ++tasks_dispatched_;
  }
  Envelope env;
  env.from = size_;
  env.kind = kKindTask;
  env.ints = {id};
  Status sent = transport_.Send(slot, std::move(env));
  PR_CHECK(sent.ok()) << "dispatch after pool shutdown";
}

void WorkerPool::NudgeSlots(const Lease& lease) {
  for (int slot : lease.slots) {
    Envelope env;
    env.from = size_;
    env.kind = kKindCancelNote;
    env.ints = {lease.job_id};
    (void)transport_.Send(slot, std::move(env));  // best effort
  }
}

std::unique_ptr<WorkerLauncher> WorkerPool::MakeLauncher(
    const Lease& lease, MetricsShard* shard, std::function<double()> now) {
  return std::make_unique<PoolLauncher>(this, lease.slots, shard,
                                        std::move(now));
}

double WorkerPool::BusyFraction() const {
  std::lock_guard<std::mutex> lock(mu_);
  const double now = NowSeconds();
  const double elapsed = now - start_seconds_;
  if (elapsed <= 0.0) {
    return 0.0;
  }
  double busy = 0.0;
  for (int slot = 0; slot < size_; ++slot) {
    busy += busy_seconds_[static_cast<size_t>(slot)];
    if (busy_since_[static_cast<size_t>(slot)] >= 0.0) {
      busy += now - busy_since_[static_cast<size_t>(slot)];
    }
  }
  return std::min(1.0, busy / (static_cast<double>(size_) * elapsed));
}

uint64_t WorkerPool::jobs_served(int slot) const {
  PR_CHECK(slot >= 0 && slot < size_);
  std::lock_guard<std::mutex> lock(mu_);
  return served_[static_cast<size_t>(slot)];
}

uint64_t WorkerPool::tasks_dispatched() const {
  std::lock_guard<std::mutex> lock(mu_);
  return tasks_dispatched_;
}

}  // namespace pr
