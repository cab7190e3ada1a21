// prbench: the repository benchmark's one binary.
//
// One process runs one named workload through the library's public entry
// points: RunThreaded for the in-process workloads and WorkerRuntime over an
// in-process SocketFabric for the socket workload. A run repeats the
// workload's fixed-budget training job a fixed number of times, job j with a
// seed derived from --seed and j, so every run of one seed trains on the
// same inputs. --seconds only caps the run. It checks
// every job's outputs and reports over the jobs:
//
//   untraced (--trace 0): the end-to-end metrics (the best job's
//     samples_per_s, wall_s and setup_s, the median final_loss, and
//     peak_rss_mb);
//   traced   (--trace 1): a few untraced jobs, then jobs with the program's
//     timeline and trace recorder on, then serial layer probes that time
//     calls into each module at the workload's shapes. It reports the
//     per-layer metrics and writes one Chrome trace-event file holding the
//     bench's spans, the program's trace events and its timeline.
//
// Every metric prints as `name value unit`; --json writes the full report
// with its header. --smoke runs every workload at 5% of its budget, one
// untraced and one traced job each, with every check and no timing
// asserts. The exit code is non-zero when any check fails.
// run_benchmark.py builds and drives this.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "comm/collectives.h"
#include "comm/socket_transport.h"
#include "comm/wire.h"
#include "common/stats.h"
#include "compress/compressor.h"
#include "core/controller.h"
#include "data/synthetic.h"
#include "models/model.h"
#include "obs/json.h"
#include "optim/sgd.h"
#include "runtime/threaded_runtime.h"
#include "runtime/threaded_strategy.h"
#include "runtime/worker_runtime.h"

namespace {

using Clock = std::chrono::steady_clock;

double Since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  pr::SampleSet s;
  for (double x : v) s.Add(x);
  return s.Percentile(0.5);
}

// ---------------------------------------------------------------------------
// Spans: the bench's own recorder, one span per layer boundary it calls
// across (a job, the run call inside it, a probe family, one probe call).
// ---------------------------------------------------------------------------

struct Span {
  std::string name;
  double start_us = 0.0;
  double end_us = 0.0;
  int parent = -1;  // index into the recorder's spans, -1 for a root
};

/// Single-threaded: only the bench's main thread opens spans. Spans
/// measured on other threads are added afterwards with Add.
class SpanRecorder {
 public:
  double NowUs() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - origin_)
        .count();
  }

  /// Opens a span under the innermost span still open.
  size_t Begin(std::string name) {
    spans_.push_back({std::move(name), NowUs(), 0.0, Parent()});
    open_.push_back(spans_.size() - 1);
    return spans_.size() - 1;
  }

  void End(size_t id) {
    spans_[id].end_us = NowUs();
    if (!open_.empty() && open_.back() == id) open_.pop_back();
  }

  /// Adds an already-measured span under the innermost open span.
  void Add(std::string name, double start_us, double end_us) {
    spans_.push_back({std::move(name), start_us, end_us, Parent()});
  }

  const std::vector<Span>& spans() const { return spans_; }

 private:
  int Parent() const {
    return open_.empty() ? -1 : static_cast<int>(open_.back());
  }

  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<size_t> open_;
};

class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* spans, std::string name)
      : spans_(spans), id_(spans->Begin(std::move(name))) {}
  ~ScopedSpan() { spans_->End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* spans_;
  size_t id_;
};

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

enum class Engine { kThreaded, kSocket };

const char* EngineName(Engine engine) {
  return engine == Engine::kSocket ? "socket" : "threaded";
}

struct Workload {
  std::string name;
  Engine engine = Engine::kThreaded;
  pr::RunConfig run;
  /// Untraced jobs in one run, sized so that they take about two thirds of
  /// BENCHMARK.json's run_seconds on a 4-vCPU machine.
  size_t jobs = 15;
};

// Every workload has one straggler that sleeps through most of its steps,
// and in none does the exchange work itself take a large share of the
// steps. On a host shared with other machines, runs that keep all four
// workers busy all the time (an unpaced DYN run, the single-threaded
// simulator) or that spend a third of their time in the exchange spread
// 8-37% from run to run, too wide for any regression bound; these spread a
// third of that.
const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {
      "con_straggler", "ar_straggler", "dyn_int8_socket", "con_drop1"};
  return names;
}

size_t Scaled(size_t base, double scale, size_t floor) {
  return std::max(floor, static_cast<size_t>(std::llround(
                             static_cast<double>(base) * scale)));
}

// The paper's headline case: 4 threads, P = 2, worker 3 sleeping about 3x a
// fast worker's step on top of its compute.
pr::RunConfig StragglerConfig(double scale) {
  pr::RunConfig c;
  c.strategy.kind = pr::StrategyKind::kPReduceConst;
  c.strategy.group_size = 2;
  c.run.num_workers = 4;
  c.run.iterations_per_worker = Scaled(60, scale, 20);
  c.run.batch_size = 64;
  c.run.model.hidden = {256, 256};
  c.run.dataset.dim = 64;
  c.run.dataset.num_classes = 10;
  c.run.dataset.num_train = 8192;
  c.run.dataset.num_test = 2048;
  c.run.worker_delay_seconds = {0.0, 0.0, 0.0, 0.014};
  return c;
}

bool MakeWorkload(const std::string& name, double scale, Workload* out) {
  Workload w;
  w.name = name;
  if (name == "con_straggler") {
    w.run = StragglerConfig(scale);
  } else if (name == "ar_straggler") {
    w.run = StragglerConfig(scale);
    w.run.strategy.kind = pr::StrategyKind::kAllReduce;
  } else if (name == "dyn_int8_socket") {
    // con_straggler's model and data at a quarter of its batch, under DYN
    // and int8-compressed over Unix-domain sockets: the exchange takes about
    // a sixth of the workers' time. Shapes where it takes a third spread
    // 13-37% from run to run on a shared host, because each short step waits
    // on several cross-thread wake-ups; at a sixth they spread no more than
    // con_straggler does.
    w.engine = Engine::kSocket;
    w.run = StragglerConfig(scale);
    w.run.strategy.kind = pr::StrategyKind::kPReduceDynamic;
    w.run.strategy.compression = pr::CompressionKind::kInt8;
    w.run.run.iterations_per_worker = Scaled(150, scale, 20);
    w.run.run.batch_size = 16;
    // About 1.3 fast steps: the straggler takes 2.3 times as long.
    w.run.run.worker_delay_seconds = {0.0, 0.0, 0.0, 0.010};
    w.jobs = 11;
  } else if (name == "con_drop1") {
    w.run = StragglerConfig(scale);
    w.run.run.fault.default_edge.drop_prob = 0.01;
    // Each dropped message stalls its group for a few receive timeouts. At
    // the default 50 ms those stalls dominate and their count varies so much
    // from job to job that the workload's spread exceeds every bound.
    w.run.run.fault.recv_timeout_seconds = 0.005;
    // A slow link to the controller: every ready signal and heartbeat takes
    // longer than a receive timeout to arrive, so the workers spend more of
    // their time idle on the protocol than computing, rather than in the few
    // groups a drop aborts. At 5 ms the idle and compute shares were about
    // equal. A fixed delay keeps the jobs alike; random drops on these edges
    // did not.
    const int controller = w.run.run.num_workers;
    for (int i = 0; i < controller; ++i) {
      w.run.run.fault.link_delay_seconds[{i, controller}] = 0.007;
    }
    w.jobs = 11;
  } else {
    return false;
  }
  *out = std::move(w);
  return true;
}

int GroupSize(const Workload& w) {
  return w.run.strategy.kind == pr::StrategyKind::kAllReduce
             ? w.run.run.num_workers
             : w.run.strategy.group_size;
}

/// Job j of a run gets its own seed, so a run covers several datasets,
/// initialisations and fault draws.
uint64_t JobSeed(uint64_t seed, size_t job) { return seed * 1000 + job; }

/// A job still running after this long is aborted and counts as failed.
constexpr double kJobTimeoutSeconds = 60.0;

// ---------------------------------------------------------------------------
// Jobs
// ---------------------------------------------------------------------------

/// The process's peak resident set size so far, in MiB.
double PeakRssMiB() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// Aborts a run that overruns its time limit, so a deadlock turns into a
/// failed job instead of a hung process.
class Watchdog {
 public:
  Watchdog(std::shared_ptr<pr::RunControl> control, double limit_seconds)
      : control_(std::move(control)), thread_([this, limit_seconds] {
          std::unique_lock<std::mutex> lock(mu_);
          if (!cv_.wait_for(lock, std::chrono::duration<double>(limit_seconds),
                            [this] { return done_; })) {
            fired_ = true;
            if (control_ != nullptr) control_->Abort();
          }
        }) {}

  ~Watchdog() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      done_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }

  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

  bool fired() {
    std::lock_guard<std::mutex> lock(mu_);
    return fired_;
  }

 private:
  std::shared_ptr<pr::RunControl> control_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool done_ = false;
  bool fired_ = false;
  std::thread thread_;  // last: it uses every member above
};

struct Options {
  std::string workload;
  uint64_t seed = 7;
  double seconds = 10.0;
  bool traced = false;
  bool smoke = false;
  double scale = 1.0;  // share of each workload's budget; --smoke sets 0.05
  std::string workdir = ".";
  std::string json_path;
  std::string chrome_trace_path;
  std::string git_sha = "unknown";
};

struct Job {
  uint64_t seed = 0;
  bool traced = false;
  double call_s = 0.0;   // bench-timed run call
  double setup_s = 0.0;  // call_s minus the engine's run clock
  double wall_s = 0.0;   // job completion time for the budget
  double samples_per_s = 0.0;
  double initial_loss = 0.0;
  double final_loss = 0.0;
  double peak_rss_mb = 0.0;  // the process's peak so far, after this job
  uint64_t attempted = 0;  // worker iterations
  uint64_t failed = 0;
  std::vector<std::string> failures;
  /// Program clock origin on the bench's span clock (us).
  double program_origin_us = 0.0;
  /// What the program reports; kept for traced jobs only.
  pr::MetricsSnapshot metrics;
  pr::TraceLog trace;
  pr::Timeline timeline{1};
  std::vector<double> finish_s;  // per worker, seconds
};

double InitialLoss(const pr::RunConfig& config) {
  // The runtime seeds the dataset and the initial parameters from the run
  // seed, drawing the parameters first from Rng(seed).
  pr::SyntheticSpec spec = config.run.dataset;
  spec.seed = config.run.seed;
  const pr::TrainTestSplit split = pr::GenerateSynthetic(spec);
  const std::unique_ptr<pr::Model> model =
      pr::MakeProxyModel(config.run.model, spec.dim, spec.num_classes);
  pr::Rng rng(config.run.seed);
  std::vector<float> init;
  model->InitParams(&init, &rng);
  return pr::EvaluateLoss(*model, init.data(), split.test);
}

size_t TraceCapacity(const Workload& w) {
  return 16 * static_cast<size_t>(w.run.run.num_workers) *
             w.run.run.iterations_per_worker +
         4096;
}

/// The socket workload: the threaded runtime over real Unix-domain sockets,
/// all nodes in this process.
pr::Status RunOverSockets(const pr::RunConfig& config, const std::string& dir,
                          pr::ThreadedRunResult* out) {
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  std::filesystem::create_directories(dir, ec);
  if (ec) return pr::Status::Internal("mkdir " + dir + ": " + ec.message());
  pr::SocketConfig sc;
  sc.dir = dir;  // relative to the working directory: sun_path is short
  pr::Status status;
  {
    pr::SocketFabric fabric(sc, config.run.num_workers + 1);
    status = fabric.Start();
    if (status.ok()) {
      pr::ValidateRunConfig(config);
      std::unique_ptr<pr::ThreadedStrategy> strategy =
          pr::MakeThreadedStrategy(config.strategy);
      pr::WorkerRuntime runtime(config.strategy, config.run);
      runtime.UseExternalFabric(&fabric);
      *out = runtime.Run(strategy.get());
    }
  }
  std::filesystem::remove_all(dir, ec);
  return status;
}

Job RunJob(const Workload& w, uint64_t seed, bool traced, const Options& opt,
           SpanRecorder* spans) {
  ScopedSpan job_span(spans, std::string(traced ? "job.traced" : "job") +
                                 " seed=" + std::to_string(seed));
  Job job;
  job.seed = seed;
  job.traced = traced;
  pr::RunConfig config = w.run;
  config.run.seed = seed;
  config.run.fault.seed = seed;
  if (traced) {
    config.run.record_timeline = true;
    config.run.trace_capacity = TraceCapacity(w);
  }
  job.initial_loss = InitialLoss(config);
  auto control = std::make_shared<pr::RunControl>();
  config.run.control = control;

  pr::ThreadedRunResult r;
  pr::Status status;
  bool timed_out = false;
  {
    Watchdog dog(control, kJobTimeoutSeconds);
    ScopedSpan span(spans, "run");
    job.program_origin_us = spans->NowUs();
    const Clock::time_point start = Clock::now();
    if (w.engine == Engine::kSocket) {
      status = RunOverSockets(
          config, opt.workdir + "/sock-" + std::to_string(::getpid()), &r);
    } else {
      r = pr::RunThreaded(config);
    }
    job.call_s = Since(start);
    job.peak_rss_mb = PeakRssMiB();
    timed_out = dog.fired();
  }
  const size_t budget = config.run.iterations_per_worker;
  const double batch = static_cast<double>(config.run.batch_size);
  job.attempted = budget * static_cast<size_t>(config.run.num_workers);
  if (!status.ok()) {
    job.failures.push_back("socket fabric: " + status.ToString());
    job.failed = job.attempted;
    return job;
  }
  if (timed_out) {
    job.failures.push_back("timed out after " +
                           std::to_string(kJobTimeoutSeconds) + " s");
  }
  job.setup_s = job.call_s - r.wall_seconds;
  job.final_loss = r.final_loss;
  uint64_t completed = 0;
  for (size_t i = 0; i < r.worker_iterations.size(); ++i) {
    const double finish = r.worker_finish_seconds[i];
    completed += r.worker_iterations[i];
    if (r.worker_iterations[i] != budget) {
      job.failures.push_back("worker " + std::to_string(i) + " completed " +
                             std::to_string(r.worker_iterations[i]) + " of " +
                             std::to_string(budget) + " iterations");
    }
    if (finish > 0.0) {
      job.samples_per_s +=
          static_cast<double>(r.worker_iterations[i]) * batch / finish;
    }
    job.wall_s = std::max(job.wall_s, finish);
  }
  if (!std::isfinite(job.final_loss) || !(job.final_loss < job.initial_loss)) {
    job.failures.push_back("final loss " + std::to_string(job.final_loss) +
                           " is not below the initial loss " +
                           std::to_string(job.initial_loss));
  }
  if (config.strategy.kind == pr::StrategyKind::kAllReduce &&
      r.replica_spread != 0.0) {
    job.failures.push_back("all-reduce replicas differ by " +
                           std::to_string(r.replica_spread));
  }
  if (traced && r.trace.dropped != 0) {
    job.failures.push_back("trace dropped " + std::to_string(r.trace.dropped) +
                           " events");
  }
  job.failed =
      job.failures.empty() ? job.attempted - completed : job.attempted;
  if (traced) {
    job.metrics = std::move(r.metrics);
    job.trace = std::move(r.trace);
    job.timeline = std::move(r.timeline);
    job.finish_s = r.worker_finish_seconds;
  }
  return job;
}

// ---------------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

class MetricList {
 public:
  void Put(const std::string& name, double value, const std::string& unit) {
    metrics_.push_back({name, value, unit});
  }
  /// p50/p90/p99 (as asked) plus the sample count of one distribution.
  void PutDist(const std::string& name, const pr::SampleSet& s,
               const std::vector<int>& percentiles, const std::string& unit) {
    for (int p : percentiles) {
      Put(name + ".p" + std::to_string(p),
          s.empty() ? 0.0 : s.Percentile(p / 100.0), unit);
    }
    Put(name + ".n", static_cast<double>(s.size()), "count");
  }
  const std::vector<Metric>& all() const { return metrics_; }

 private:
  std::vector<Metric> metrics_;
};

/// Throughput, completion time and set-up time are the run's best job. Other
/// tenants of a shared host only ever slow a job down, in spells of seconds
/// to a minute that leave some jobs of most runs untouched, so the fastest
/// job tracks the program's own cost far more steadily than the median
/// does. Loss stays a median.
void PutEndToEnd(const std::vector<Job>& jobs, MetricList* out) {
  std::vector<double> loss;
  double best_sps = 0.0;
  double best_wall = jobs.empty() ? 0.0 : jobs.front().wall_s;
  double best_setup = jobs.empty() ? 0.0 : jobs.front().setup_s;
  for (const Job& j : jobs) {
    best_sps = std::max(best_sps, j.samples_per_s);
    best_wall = std::min(best_wall, j.wall_s);
    best_setup = std::min(best_setup, j.setup_s);
    loss.push_back(j.final_loss);
  }
  out->Put("samples_per_s", best_sps, "samples/s");
  out->Put("wall_s", best_wall, "s");
  out->Put("setup_s", best_setup, "s");
  out->Put("final_loss", Median(loss), "nats");
  // The peak of a fresh process through its first job. Later jobs run in an
  // allocator the earlier ones already grew, so the process's peak keeps
  // creeping up with the number of jobs, which depends on the machine's
  // speed.
  out->Put("peak_rss_mb", jobs.empty() ? 0.0 : jobs.front().peak_rss_mb,
           "MiB");
}

/// One worker's timeline intervals in time order.
std::vector<std::vector<pr::TimelineInterval>> ByWorker(const Job& job,
                                                        int num_workers) {
  std::vector<std::vector<pr::TimelineInterval>> by_worker(
      static_cast<size_t>(num_workers));
  for (const pr::TimelineInterval& iv : job.timeline.intervals()) {
    by_worker[static_cast<size_t>(iv.worker)].push_back(iv);
  }
  for (auto& ivs : by_worker) {
    std::stable_sort(ivs.begin(), ivs.end(), [](const auto& a, const auto& b) {
      return a.begin < b.begin;
    });
  }
  return by_worker;
}

/// Per-layer numbers measured in the traced jobs themselves: the activity
/// timeline and the program's counters, averaged per job.
void PutInSitu(const Workload& w, const std::vector<Job>& traced,
               MetricList* out) {
  pr::SampleSet iter_ms, sync_ms, wait_ms, reduce_ms;
  double compute = 0.0, comm = 0.0, idle = 0.0, active = 0.0;
  std::vector<double> fast, slow, wall_us_per_update;
  std::map<std::string, double> per_job;
  double stash_high_water = 0.0;
  double compress_ratio = 1.0;
  double trace_events = 0.0;
  const double jobs = static_cast<double>(traced.size());
  for (const Job& job : traced) {
    if (job.finish_s.empty()) continue;  // failed before the program ran
    const auto by_worker = ByWorker(job, w.run.run.num_workers);
    for (size_t i = 0; i < by_worker.size(); ++i) {
      const pr::TimelineInterval* last_compute = nullptr;
      for (const pr::TimelineInterval& iv : by_worker[i]) {
        const double ms = iv.duration() * 1e3;
        switch (iv.activity) {
          case pr::WorkerActivity::kCompute:
            if (last_compute != nullptr) {
              iter_ms.Add((iv.begin - last_compute->begin) * 1e3);
              sync_ms.Add((iv.begin - last_compute->end) * 1e3);
            }
            last_compute = &iv;
            compute += iv.duration();
            break;
          case pr::WorkerActivity::kComm:
            reduce_ms.Add(ms);
            comm += iv.duration();
            break;
          case pr::WorkerActivity::kIdle:
            wait_ms.Add(ms);
            idle += iv.duration();
            break;
        }
      }
      active += job.finish_s[i];
    }
    fast.push_back(*std::min_element(job.finish_s.begin(), job.finish_s.end()));
    slow.push_back(*std::max_element(job.finish_s.begin(), job.finish_s.end()));
    const pr::MetricsSnapshot& m = job.metrics;
    for (const char* name :
         {"controller.groups_formed", "controller.bridged_groups",
          "controller.holds", "fault.aborted_groups", "fault.retries",
          "fault.heartbeats", "fault.injected_drops", "transport.bytes_sent",
          "transport.messages_sent", "transport.payload_copies",
          "run.updates"}) {
      per_job[name] += m.counter(name) / jobs;
    }
    stash_high_water =
        std::max(stash_high_water, m.gauge("transport.stash_high_water"));
    if (m.gauge("compress.ratio") > 0.0) {
      compress_ratio = m.gauge("compress.ratio");
    }
    trace_events += static_cast<double>(job.trace.events.size()) / jobs;
    const double updates = m.counter("run.updates");
    if (updates > 0.0) wall_us_per_update.push_back(job.wall_s * 1e6 / updates);
  }
  const double share = active > 0.0 ? 1.0 / active : 0.0;
  out->PutDist("runtime.iter_ms", iter_ms, {50, 99}, "ms");
  out->PutDist("runtime.sync_ms", sync_ms, {50, 99}, "ms");
  out->PutDist("runtime.group_wait_ms", wait_ms, {50, 99}, "ms");
  out->PutDist("runtime.reduce_ms", reduce_ms, {50, 99}, "ms");
  out->Put("runtime.compute_share", compute * share, "ratio");
  out->Put("runtime.comm_share", comm * share, "ratio");
  out->Put("runtime.idle_share", idle * share, "ratio");
  out->Put("runtime.unattributed_share",
           active > 0.0 ? 1.0 - (compute + comm + idle) * share : 0.0,
           "ratio");
  out->Put("runtime.fast_finish_s", Median(fast), "s");
  out->Put("runtime.slow_finish_s", Median(slow), "s");
  out->Put("run.wall_us_per_update", Median(wall_us_per_update), "us");

  const double updates = per_job["run.updates"];
  const double per_update = updates > 0.0 ? 1.0 / updates : 0.0;
  out->Put("compress.ratio", compress_ratio, "ratio");
  out->Put("comm.bytes_per_update",
           per_job["transport.bytes_sent"] * per_update, "bytes");
  out->Put("comm.messages_per_update",
           per_job["transport.messages_sent"] * per_update, "count");
  out->Put("comm.payload_copies_per_update",
           per_job["transport.payload_copies"] * per_update, "count");
  out->Put("comm.stash_high_water", stash_high_water, "count");
  out->Put("core.groups_formed", per_job["controller.groups_formed"], "count");
  out->Put("core.bridged_groups", per_job["controller.bridged_groups"],
           "count");
  out->Put("core.holds", per_job["controller.holds"], "count");
  const double aborted = per_job["fault.aborted_groups"];
  const double groups = per_job["controller.groups_formed"];
  out->Put("fault.aborted_groups", aborted, "count");
  out->Put("fault.retries", per_job["fault.retries"], "count");
  out->Put("fault.heartbeats", per_job["fault.heartbeats"], "count");
  out->Put("fault.injected_drops", per_job["fault.injected_drops"], "count");
  out->Put("fault.abort_frac", groups > 0.0 ? aborted / groups : 0.0,
           "ratio");
  out->Put("obs.trace_events", trace_events, "count");
}

// ---------------------------------------------------------------------------
// Layer probes: serial calls into each module's public functions at the
// workload's shapes, after the traced jobs, each timed and recorded as a
// span under its family's span.
// ---------------------------------------------------------------------------

struct ProbeBudget {
  size_t min_calls = 100;  // calls to make unless the time cap hits first
  size_t floor_calls = 10;  // calls to make even past the time cap
  double cap_seconds = 1.0;
};

/// Times `fn` per call in the given unit (seconds times `unit_scale`).
pr::SampleSet TimeCalls(SpanRecorder* spans, const std::string& name,
                        const ProbeBudget& budget, double unit_scale,
                        const std::function<void()>& fn) {
  ScopedSpan family(spans, "probe." + name);
  pr::SampleSet samples;
  const Clock::time_point start = Clock::now();
  for (size_t i = 0;; ++i) {
    const bool enough = i >= budget.min_calls ||
                        (i >= budget.floor_calls &&
                         Since(start) >= budget.cap_seconds);
    if (enough) break;
    const double begin = spans->NowUs();
    const Clock::time_point t = Clock::now();
    fn();
    samples.Add(Since(t) * unit_scale);
    spans->Add(name, begin, spans->NowUs());
  }
  return samples;
}

double P50(const pr::SampleSet& s) {
  return s.empty() ? 0.0 : s.Percentile(0.5);
}

/// P member threads each run `calls` weighted all-reduces of `n` floats over
/// `fabric`; member 0's per-call durations come back in ms. A failed
/// collective shuts the fabric down, so every member unwinds.
pr::SampleSet ProbeAllReduce(SpanRecorder* spans, pr::Transport* fabric, int p,
                             size_t n, pr::CompressionKind codec,
                             const ProbeBudget& budget,
                             std::vector<std::string>* failures) {
  ScopedSpan family(spans, "probe.comm.allreduce");
  // A fixed call count keeps every member on the same schedule.
  const size_t calls = std::max(budget.floor_calls, budget.min_calls);
  std::vector<std::pair<double, double>> times(calls);
  std::mutex failure_mu;
  std::vector<std::thread> members;
  const std::vector<double> weights(static_cast<size_t>(p), 1.0 / p);
  std::vector<pr::NodeId> ids;
  for (int i = 0; i < p; ++i) ids.push_back(i);
  for (int i = 0; i < p; ++i) {
    members.emplace_back([&, i] {
      pr::Endpoint ep(fabric, i);
      std::unique_ptr<pr::Compressor> compressor;
      if (codec != pr::CompressionKind::kNone) {
        compressor = std::make_unique<pr::Compressor>(codec);
      }
      std::vector<float> data(n, 1.0f + 0.001f * static_cast<float>(i));
      for (size_t c = 0; c < calls; ++c) {
        const double begin = spans->NowUs();
        const pr::Status s = pr::GroupWeightedAllReduce(
            &ep, ids, weights, static_cast<size_t>(i), c + 1, data.data(), n,
            compressor.get());
        if (!s.ok()) {
          std::lock_guard<std::mutex> lock(failure_mu);
          failures->push_back("all-reduce probe: " + s.ToString());
          fabric->Shutdown();
          return;
        }
        if (i == 0) times[c] = {begin, spans->NowUs()};
      }
    });
  }
  for (std::thread& t : members) t.join();
  pr::SampleSet ms;
  for (const auto& [begin, end] : times) {
    if (end <= 0.0) continue;  // the probe failed before this call
    spans->Add("allreduce", begin, end);
    ms.Add((end - begin) / 1e3);
  }
  return ms;
}

void PutProbes(const Workload& w, const std::vector<Job>& traced,
               const Options& opt, SpanRecorder* spans, MetricList* out,
               std::vector<std::string>* failures) {
  ProbeBudget budget;
  if (opt.smoke) budget = {5, 2, 0.2};
  const uint64_t seed = JobSeed(opt.seed, 999);

  // Shapes the workload trains at.
  pr::SyntheticSpec spec = w.run.run.dataset;
  const pr::ProxyModelSpec& model_spec = w.run.run.model;
  const pr::SgdOptions& sgd = w.run.run.sgd;
  spec.seed = seed;
  const pr::CompressionKind workload_codec = w.run.strategy.compression;

  // data: generation (set-up) and the per-iteration batch draw.
  pr::TrainTestSplit split;
  pr::SampleSet generate_s;
  {
    ProbeBudget gen = budget;
    gen.min_calls = opt.smoke ? 1 : 3;
    gen.floor_calls = 1;
    generate_s = TimeCalls(spans, "data.generate", gen, 1.0,
                           [&] { split = pr::GenerateSynthetic(spec); });
  }
  std::vector<size_t> all(split.train.size());
  for (size_t i = 0; i < all.size(); ++i) all[i] = i;
  pr::BatchSampler sampler(&split.train, pr::Shard{all}, w.run.run.batch_size,
                            seed);
  pr::Tensor x;
  std::vector<int> y;
  const pr::SampleSet next_batch_us =
      TimeCalls(spans, "data.next_batch", budget, 1e6,
                [&] { sampler.NextBatch(&x, &y); });
  out->PutDist("data.next_batch_us", next_batch_us, {50}, "us");
  out->Put("data.generate_s", P50(generate_s), "s");

  // models: one local gradient at the training batch, one evaluation.
  const std::unique_ptr<pr::Model> model =
      pr::MakeProxyModel(model_spec, spec.dim, spec.num_classes);
  pr::Rng rng(seed);
  std::vector<float> params;
  model->InitParams(&params, &rng);
  std::vector<float> grad(params.size());
  const pr::SampleSet grad_ms =
      TimeCalls(spans, "models.loss_and_grad", budget, 1e3, [&] {
        model->LossAndGradient(params.data(), x, y, grad.data());
      });
  out->PutDist("models.loss_and_grad_ms", grad_ms, {50, 90}, "ms");
  const pr::SampleSet eval_ms =
      TimeCalls(spans, "models.evaluate", budget, 1e3, [&] {
        (void)pr::EvaluateLoss(*model, params.data(), split.test);
      });
  out->PutDist("models.evaluate_ms", eval_ms, {50}, "ms");

  // optim: one SGD step over the whole replica.
  pr::Sgd opt_sgd(params.size(), sgd);
  for (float& g : grad) g *= 1e-3f;  // keep the replica finite across calls
  const pr::SampleSet step_us = TimeCalls(spans, "optim.sgd_step", budget, 1e6,
                                          [&] {
                                            opt_sgd.Step(grad.data(),
                                                         params.data(),
                                                         params.size());
                                          });
  out->PutDist("optim.sgd_step_us", step_us, {50, 90}, "us");

  // compress: the workload's codec (int8 where the workload sends raw
  // floats) on one ring segment.
  const pr::CompressionKind codec = workload_codec == pr::CompressionKind::kNone
                                        ? pr::CompressionKind::kInt8
                                        : workload_codec;
  const size_t seg = pr::kDefaultSegmentFloats;
  std::vector<float> segment(seg);
  for (size_t i = 0; i < seg; ++i) {
    segment[i] = static_cast<float>(rng.Normal());
  }
  pr::Compressor compressor(codec);
  pr::Buffer blob;
  const double per_mfloat = 1e3 * 1e6 / static_cast<double>(seg);
  const pr::SampleSet encode =
      TimeCalls(spans, "compress.encode", budget, per_mfloat, [&] {
        blob = compressor.EncodeRange(segment.data(), 0, seg);
      });
  std::vector<float> decoded(seg);
  const pr::SampleSet decode =
      TimeCalls(spans, "compress.decode", budget, per_mfloat, [&] {
        (void)compressor.DecodeInto(blob, decoded.data(), seg);
      });
  out->Put("compress.encode_ms_per_mfloat.p50", P50(encode), "ms");
  out->Put("compress.decode_ms_per_mfloat.p50", P50(decode), "ms");
  out->Put("compress.probe.n", static_cast<double>(encode.size()), "count");

  // comm: the group collective on the workload's transport, then the wire
  // framing of one segment-sized envelope.
  const int p = GroupSize(w);
  pr::SampleSet allreduce_ms;
  if (w.engine == Engine::kSocket) {
    const std::string dir =
        opt.workdir + "/probe-" + std::to_string(::getpid());
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    pr::SocketConfig sc;
    sc.dir = dir;
    pr::SocketFabric fabric(sc, p);
    const pr::Status s = fabric.Start();
    if (s.ok()) {
      allreduce_ms = ProbeAllReduce(spans, &fabric, p, params.size(),
                                    workload_codec, budget, failures);
    } else {
      failures->push_back("socket probe: " + s.ToString());
    }
    fabric.Shutdown();
    std::filesystem::remove_all(dir, ec);
  } else {
    pr::InProcTransport fabric(p);
    allreduce_ms = ProbeAllReduce(spans, &fabric, p, params.size(),
                                  workload_codec, budget, failures);
  }
  out->PutDist("comm.allreduce_ms", allreduce_ms, {50, 90}, "ms");

  pr::Envelope env;
  env.from = 1;
  env.tag = 7;
  env.kind = 3;
  env.ints = {1, 2, 3};
  env.payload = pr::Buffer::CopyOf(segment.data(), seg);
  std::vector<uint8_t> frame;
  ProbeBudget wire = budget;
  wire.min_calls = std::max<size_t>(budget.min_calls, opt.smoke ? 5 : 200);
  const pr::SampleSet wire_encode = TimeCalls(
      spans, "comm.wire_encode", wire, 1e6,
      [&] { frame = pr::EncodeFrame(0, env); });
  bool decoded_ok = true;
  const pr::SampleSet wire_decode =
      TimeCalls(spans, "comm.wire_decode", wire, 1e6, [&] {
        pr::NodeId to = -1;
        pr::Envelope back;
        size_t consumed = 0;
        decoded_ok = decoded_ok &&
                     pr::DecodeFrame(frame.data(), frame.size(), &to, &back,
                                     &consumed) == pr::WireDecode::kOk;
      });
  if (!decoded_ok) failures->push_back("wire probe: frame did not decode");
  out->Put("comm.wire_encode_us.p50", P50(wire_encode), "us");
  out->Put("comm.wire_decode_us.p50", P50(wire_decode), "us");
  out->Put("comm.wire.n", static_cast<double>(wire_encode.size()), "count");

  // core: replay the first traced job's ready order into a fresh
  // controller. A worker is ready when its compute ends and leaves after its
  // last one, as the protocol has it; All-Reduce is P-Reduce with P = N.
  std::vector<std::tuple<double, int, bool>> ready;  // time, worker, leaves
  const auto by_worker = ByWorker(traced.front(), w.run.run.num_workers);
  for (size_t i = 0; i < by_worker.size(); ++i) {
    const int worker = static_cast<int>(i);
    const pr::TimelineInterval* last = nullptr;
    for (const pr::TimelineInterval& iv : by_worker[i]) {
      if (iv.activity != pr::WorkerActivity::kCompute) continue;
      if (last != nullptr) ready.emplace_back(last->end, worker, false);
      last = &iv;
    }
    if (last != nullptr) ready.emplace_back(last->end, worker, true);
  }
  std::sort(ready.begin(), ready.end());
  const pr::StrategyOptions& so = w.run.strategy;
  pr::ControllerOptions copts;
  copts.num_workers = w.run.run.num_workers;
  copts.group_size = p;
  copts.mode = so.kind == pr::StrategyKind::kPReduceDynamic
                   ? pr::PartialReduceMode::kDynamic
                   : pr::PartialReduceMode::kConstant;
  copts.dynamic = so.dynamic;
  copts.frozen_avoidance = so.frozen_avoidance;
  copts.history_window = so.history_window;
  pr::Controller controller(copts);
  pr::SampleSet decide_us;
  {
    ScopedSpan family(spans, "probe.core.decide");
    // A worker signals again only once a group released it.
    std::vector<bool> waiting(static_cast<size_t>(copts.num_workers), false);
    std::vector<int64_t> iteration(waiting.size(), 0);
    auto release = [&](const std::vector<pr::GroupDecision>& groups) {
      for (const pr::GroupDecision& g : groups) {
        for (int m : g.members) waiting[static_cast<size_t>(m)] = false;
      }
    };
    for (const auto& [time, worker, leaves] : ready) {
      const size_t i = static_cast<size_t>(worker);
      if (leaves) {
        release(controller.NotifyWorkerLeft(worker));
        continue;
      }
      if (waiting[i]) continue;
      waiting[i] = true;
      const Clock::time_point t = Clock::now();
      const std::vector<pr::GroupDecision> groups =
          controller.OnReadySignal(worker, ++iteration[i]);
      decide_us.Add(Since(t) * 1e6);
      release(groups);
    }
  }
  out->PutDist("core.decide_us", decide_us, {50, 90}, "us");
}

// ---------------------------------------------------------------------------
// Chrome trace-event output: the bench's spans (pid 1) and the first traced
// job's program trace events and timeline intervals (pid 2), one file that
// opens in Perfetto or chrome://tracing.
// ---------------------------------------------------------------------------

bool WriteChromeTrace(const std::string& path, const Workload& w,
                      const SpanRecorder& spans, const Job* job) {
  pr::JsonWriter j;
  j.BeginObject().Key("displayTimeUnit").String("ms");
  j.Key("traceEvents").BeginArray();
  auto process_name = [&](int pid, const std::string& name) {
    j.BeginObject().Key("name").String("process_name").Key("ph").String("M");
    j.Key("pid").Int(pid).Key("args").BeginObject().Key("name").String(name);
    j.EndObject().EndObject();
  };
  process_name(1, "prbench " + w.name);
  const std::vector<Span>& all = spans.spans();
  for (size_t i = 0; i < all.size(); ++i) {
    const Span& s = all[i];
    j.BeginObject().Key("name").String(s.name).Key("cat").String("bench");
    j.Key("ph").String("X").Key("ts").Number(s.start_us);
    j.Key("dur").Number(std::max(0.0, s.end_us - s.start_us));
    j.Key("pid").Int(1).Key("tid").Int(0);
    j.Key("args").BeginObject().Key("id").UInt(i).Key("parent").Int(s.parent);
    j.EndObject().EndObject();
  }
  if (job != nullptr) {
    process_name(2, "program");
    const double origin = job->program_origin_us;
    const int controller_tid = w.run.run.num_workers;
    for (const pr::TimelineInterval& iv : job->timeline.intervals()) {
      const char* name = iv.activity == pr::WorkerActivity::kCompute ? "compute"
                         : iv.activity == pr::WorkerActivity::kComm  ? "comm"
                                                                     : "idle";
      j.BeginObject().Key("name").String(name).Key("cat").String("timeline");
      j.Key("ph").String("X").Key("ts").Number(origin + iv.begin * 1e6);
      j.Key("dur").Number(iv.duration() * 1e6);
      j.Key("pid").Int(2).Key("tid").Int(iv.worker).EndObject();
    }
    for (const pr::TraceEvent& e : job->trace.events) {
      j.BeginObject().Key("name").String(pr::TraceEventKindName(e.kind));
      j.Key("cat").String("trace").Key("ph").String("i").Key("s").String("t");
      j.Key("ts").Number(origin + e.time * 1e6);
      j.Key("pid").Int(2).Key("tid").Int(e.worker >= 0 ? e.worker
                                                       : controller_tid);
      j.Key("args").BeginObject().Key("a").Int(e.a).Key("b").Int(e.b);
      j.EndObject().EndObject();
    }
  }
  j.EndArray().EndObject();
  std::ofstream f(path);
  f << j.str() << '\n';
  return static_cast<bool>(f);
}

// ---------------------------------------------------------------------------
// One workload run
// ---------------------------------------------------------------------------

/// One job's end-to-end numbers, kept for the report's per-job table.
struct JobRow {
  uint64_t seed = 0;
  bool traced = false;
  double call_s = 0.0;
  double setup_s = 0.0;
  double wall_s = 0.0;
  double samples_per_s = 0.0;
  double initial_loss = 0.0;
  double final_loss = 0.0;
  double peak_rss_mb = 0.0;
};

struct Report {
  std::vector<std::string> failures;  // empty when every check passed
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<JobRow> jobs;
  MetricList metrics;
};

/// Runs `jobs` jobs, each with the next job seed. Stops early at the first
/// failed job, and before a job that would end past `cap_seconds` (judged
/// by the median job so far), so a much slower build still ends in time.
void RunPhase(const Workload& w, bool traced, size_t jobs, double cap_seconds,
              const Options& opt, size_t* next_job, SpanRecorder* spans,
              std::vector<Job>* out) {
  const Clock::time_point start = Clock::now();
  std::vector<double> job_seconds;
  for (size_t j = 0; j < jobs; ++j) {
    if (j > 0 && Since(start) + Median(job_seconds) > cap_seconds) {
      std::fprintf(stderr, "prbench: time cap of %.1f s reached after %zu of "
                   "%zu jobs\n", cap_seconds, j, jobs);
      break;
    }
    const Clock::time_point t = Clock::now();
    out->push_back(RunJob(w, JobSeed(opt.seed, (*next_job)++), traced, opt,
                          spans));
    job_seconds.push_back(Since(t));
    if (!out->back().failures.empty()) break;
  }
}

Report RunWorkload(const Workload& w, const Options& opt,
                   SpanRecorder* spans) {
  Report report;
  std::vector<Job> untraced, traced;
  size_t next_job = 0;
  if (opt.smoke) {
    RunPhase(w, false, 1, opt.seconds, opt, &next_job, spans, &untraced);
    RunPhase(w, true, 1, opt.seconds, opt, &next_job, spans, &traced);
  } else if (opt.traced) {
    // Two untraced jobs give the tracing overhead; the traced ones gather
    // the iterations for the in-situ percentiles. The probes follow.
    RunPhase(w, false, 2, opt.seconds, opt, &next_job, spans, &untraced);
    RunPhase(w, true, w.jobs, 0.75 * opt.seconds, opt, &next_job, spans,
             &traced);
  } else {
    RunPhase(w, false, w.jobs, opt.seconds, opt, &next_job, spans, &untraced);
  }
  for (const std::vector<Job>* phase : {&untraced, &traced}) {
    for (const Job& j : *phase) {
      report.jobs.push_back({j.seed, j.traced, j.call_s, j.setup_s, j.wall_s,
                             j.samples_per_s, j.initial_loss, j.final_loss,
                             j.peak_rss_mb});
      report.attempted += j.attempted;
      report.failed += j.failed;
      for (const std::string& f : j.failures) {
        report.failures.push_back("job seed " + std::to_string(j.seed) + ": " +
                                  f);
      }
    }
  }
  PutEndToEnd(untraced, &report.metrics);
  if (!traced.empty()) {
    PutInSitu(w, traced, &report.metrics);
    PutProbes(w, traced, opt, spans, &report.metrics, &report.failures);
    std::vector<double> sps;
    for (const Job& j : traced) sps.push_back(j.samples_per_s);
    const double untraced_sps = Median([&] {
      std::vector<double> v;
      for (const Job& j : untraced) v.push_back(j.samples_per_s);
      return v;
    }());
    report.metrics.Put("obs.tracing_overhead_frac",
                       untraced_sps > 0.0 ? 1.0 - Median(sps) / untraced_sps
                                          : 0.0,
                       "ratio");
    if (!opt.chrome_trace_path.empty() &&
        !WriteChromeTrace(opt.chrome_trace_path, w, *spans, &traced.front())) {
      report.failures.push_back("cannot write " + opt.chrome_trace_path);
    }
  }
  for (const Metric& m : report.metrics.all()) {
    if (!std::isfinite(m.value)) {
      report.failures.push_back("metric " + m.name + " is not finite");
    }
  }
  return report;
}

std::string ReportJson(const Workload& w, const Options& opt,
                       const Report& r) {
  pr::JsonWriter j;
  j.BeginObject();
  j.Key("header").BeginObject();
  j.Key("bench").String("prbench");
  j.Key("git_sha").String(opt.git_sha);
  j.Key("build_type").String(PRBENCH_BUILD_TYPE);
  j.Key("nproc").UInt(std::thread::hardware_concurrency());
  j.Key("engine").String(EngineName(w.engine));
  j.Key("seed").UInt(opt.seed);
  j.Key("workload").String(w.name);
  j.Key("scale").Number(opt.scale);
  j.Key("traced").Bool(opt.traced || opt.smoke);
  j.Key("seconds").Number(opt.seconds);
  j.EndObject();
  j.Key("correct").Bool(r.failures.empty());
  j.Key("attempted").UInt(r.attempted);
  j.Key("failed").UInt(r.failed);
  j.Key("failures").BeginArray();
  for (const std::string& f : r.failures) j.String(f);
  j.EndArray();
  j.Key("jobs").BeginArray();
  for (const JobRow& row : r.jobs) {
    j.BeginObject().Key("seed").UInt(row.seed).Key("traced").Bool(row.traced);
    j.Key("call_s").Number(row.call_s).Key("setup_s").Number(row.setup_s);
    j.Key("wall_s").Number(row.wall_s);
    j.Key("samples_per_s").Number(row.samples_per_s);
    j.Key("initial_loss").Number(row.initial_loss);
    j.Key("final_loss").Number(row.final_loss);
    j.Key("peak_rss_mb").Number(row.peak_rss_mb).EndObject();
  }
  j.EndArray();
  j.Key("metrics").BeginObject();
  for (const Metric& m : r.metrics.all()) {
    j.Key(m.name).BeginObject().Key("value").Number(m.value);
    j.Key("unit").String(m.unit).EndObject();
  }
  j.EndObject().EndObject();
  return j.str();
}

void PrintMetrics(const Workload& w, const Report& r) {
  std::printf("== %s\n", w.name.c_str());
  for (const Metric& m : r.metrics.all()) {
    std::printf("%s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  for (const std::string& f : r.failures) {
    std::printf("CHECK FAILED: %s\n", f.c_str());
  }
  std::fflush(stdout);
}

int Usage() {
  std::fprintf(stderr,
               "usage: prbench --workload NAME [--seed N] [--seconds S]\n"
               "               [--trace 0|1] [--workdir DIR] [--json PATH]\n"
               "               [--chrome-trace PATH] [--git-sha SHA]\n"
               "       prbench --smoke\n"
               "workloads:");
  for (const std::string& n : WorkloadNames()) {
    std::fprintf(stderr, " %s", n.c_str());
  }
  std::fprintf(stderr, "\n");
  return 2;
}

bool ParseArgs(int argc, char** argv, Options* opt) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      opt->smoke = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    try {
      if (arg == "--workload") {
        opt->workload = value;
      } else if (arg == "--seed") {
        opt->seed = std::stoull(value);
      } else if (arg == "--seconds") {
        opt->seconds = std::stod(value);
      } else if (arg == "--trace") {
        opt->traced = value == "1";
      } else if (arg == "--workdir") {
        opt->workdir = value;
      } else if (arg == "--json") {
        opt->json_path = value;
      } else if (arg == "--chrome-trace") {
        opt->chrome_trace_path = value;
      } else if (arg == "--git-sha") {
        opt->git_sha = value;
      } else {
        return false;
      }
    } catch (const std::exception&) {
      return false;
    }
  }
  return opt->smoke || !opt->workload.empty();
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!ParseArgs(argc, argv, &opt)) return Usage();
  std::error_code ec;
  std::filesystem::create_directories(opt.workdir, ec);

  if (opt.smoke) {
    opt.scale = 0.05;
    bool ok = true;
    for (const std::string& name : WorkloadNames()) {
      Workload w;
      MakeWorkload(name, opt.scale, &w);
      SpanRecorder spans;
      Options wopt = opt;
      wopt.workload = name;
      wopt.chrome_trace_path =
          opt.workdir + "/smoke-" + name + "-trace.json";
      const Report r = RunWorkload(w, wopt, &spans);
      PrintMetrics(w, r);
      ok = ok && r.failures.empty() && r.attempted > 0 &&
           std::any_of(r.jobs.begin(), r.jobs.end(),
                       [](const JobRow& row) { return row.traced; });
      std::filesystem::remove(wopt.chrome_trace_path, ec);
    }
    std::printf("PRBENCH_SMOKE %s\n", ok ? "OK" : "FAILED");
    return ok ? 0 : 1;
  }

  Workload w;
  if (!MakeWorkload(opt.workload, opt.scale, &w)) return Usage();
  SpanRecorder spans;
  const Report r = RunWorkload(w, opt, &spans);
  PrintMetrics(w, r);
  if (!opt.json_path.empty()) {
    std::ofstream f(opt.json_path);
    f << ReportJson(w, opt, r) << '\n';
    if (!f) {
      std::fprintf(stderr, "cannot write %s\n", opt.json_path.c_str());
      return 1;
    }
  }
  return r.failures.empty() ? 0 : 1;
}
