#include "launch/launcher.h"

#include <fcntl.h>
#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <thread>

#include "common/rng.h"
#include "data/dataset.h"
#include "data/synthetic.h"
#include "launch/config_io.h"
#include "launch/process_runner.h"
#include "launch/report_io.h"
#include "models/catalog.h"
#include "models/model.h"
#include "obs/json.h"
#include "strategies/strategy.h"

namespace pr {
namespace {

bool MultiProcessSupported(StrategyKind kind) {
  // The launcher merges per-process results by averaging worker replicas,
  // which is exactly the evaluation rule for the decentralized collectives.
  // Centralized strategies (PS family, ER's server-held model) and AD-PSGD's
  // gossip pairing would need their own merge rules — not implemented.
  return kind == StrategyKind::kAllReduce || IsPReduce(kind);
}

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Child-side: point stdout/stderr at the node's log file so interleaved
// process output doesn't scramble the launcher's own stream.
void RedirectOutput(const std::string& log_path) {
  int fd = ::open(log_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return;
  ::dup2(fd, STDOUT_FILENO);
  ::dup2(fd, STDERR_FILENO);
  if (fd > STDERR_FILENO) ::close(fd);
}

}  // namespace

Status Launch(const LaunchOptions& options, LaunchResult* result) {
  RunConfig config = options.config;
  if (!MultiProcessSupported(config.strategy.kind)) {
    return Status::NotImplemented(
        std::string("multi-process launch supports AR, CON, and DYN; got ") +
        StrategyKindName(config.strategy.kind));
  }
  if (options.kill.armed()) {
    // A killed process is a real failure; only the fault-tolerant protocol
    // (leases, eviction, abort/retry) survives one.
    config.run.fault.force_fault_tolerant = true;
  }
  ValidateRunConfig(config);
  const int num_workers = config.run.num_workers;
  const bool has_service = StrategyHasService(config);
  const int num_processes = num_workers + (has_service ? 1 : 0);
  if (options.kill.armed() &&
      (options.kill.worker < 0 || options.kill.worker >= num_workers)) {
    return Status::InvalidArgument("kill.worker out of range");
  }
  if (options.workdir.empty()) {
    return Status::InvalidArgument("LaunchOptions.workdir is required");
  }

  SocketConfig socket = options.socket;
  if (socket.dir.empty()) socket.dir = options.workdir + "/sock";
  std::error_code ec;
  std::filesystem::create_directories(options.workdir, ec);
  std::filesystem::create_directories(socket.dir, ec);
  if (ec) return Status::Internal("creating workdir: " + ec.message());

  const std::string config_path = options.workdir + "/run.conf";
  PR_RETURN_NOT_OK(SaveRunConfig(config_path, config));

  auto report_path = [&](int node) {
    return options.workdir + "/node-" + std::to_string(node) + ".report";
  };
  auto log_path = [&](int node) {
    return options.workdir + "/node-" + std::to_string(node) + ".log";
  };

  std::vector<pid_t> pids(num_processes, -1);
  for (int node = 0; node < num_processes; ++node) {
    pid_t pid = ::fork();
    if (pid < 0) {
      for (pid_t p : pids) {
        if (p > 0) ::kill(p, SIGKILL);
      }
      return Status::Internal("fork failed");
    }
    if (pid == 0) {
      // Child. Either exec the node entry point of the launcher binary
      // (fresh address space) or run the node inline in the forked image.
      RedirectOutput(log_path(node));
      if (!options.self_binary.empty()) {
        std::vector<std::string> args = {
            options.self_binary, "--role",   "node",
            "--node",            std::to_string(node),
            "--config",          config_path,
            "--sockdir",         socket.dir,
            "--report",          report_path(node)};
        if (socket.tcp) args.push_back("--tcp");
        if (!options.resume_manifest.empty()) {
          args.push_back("--resume");
          args.push_back(options.resume_manifest);
        }
        std::vector<char*> argv;
        argv.reserve(args.size() + 1);
        for (std::string& a : args) argv.push_back(a.data());
        argv.push_back(nullptr);
        ::execv(options.self_binary.c_str(), argv.data());
        ::_exit(127);  // execv only returns on failure
      }
      NodeRunOptions node_options;
      node_options.config = config;
      node_options.node = node;
      node_options.socket = socket;
      node_options.report_path = report_path(node);
      node_options.resume_manifest = options.resume_manifest;
      Status s = RunNode(node_options);
      // _exit, not exit: the forked image shares the parent's atexit state
      // and must not run its destructors.
      ::_exit(s.ok() ? 0 : 3);
    }
    pids[node] = pid;
  }

  // Reap loop with the kill timer and a hard safety deadline (a wedged run
  // must fail the launcher, not hang CI).
  const double start = NowSeconds();
  const double kill_at =
      options.kill.armed() ? start + options.kill.after_seconds : -1.0;
  const double deadline = start + 120.0;
  std::vector<int> exit_codes(num_processes, -1);
  std::vector<bool> killed(num_processes, false);
  bool kill_fired = false;
  int live = num_processes;
  bool timed_out = false;
  while (live > 0) {
    const double now = NowSeconds();
    if (options.kill.armed() && !kill_fired && now >= kill_at &&
        pids[options.kill.worker] > 0 &&
        exit_codes[options.kill.worker] < 0) {
      ::kill(pids[options.kill.worker], SIGKILL);
      killed[options.kill.worker] = true;
      kill_fired = true;
    }
    if (now > deadline) {
      timed_out = true;
      for (int node = 0; node < num_processes; ++node) {
        if (exit_codes[node] < 0) ::kill(pids[node], SIGKILL);
      }
    }
    bool reaped = false;
    for (int node = 0; node < num_processes; ++node) {
      if (exit_codes[node] >= 0) continue;
      int wstatus = 0;
      pid_t r = ::waitpid(pids[node], &wstatus, timed_out ? 0 : WNOHANG);
      if (r == pids[node]) {
        exit_codes[node] = WIFSIGNALED(wstatus)
                               ? 128 + WTERMSIG(wstatus)
                               : WEXITSTATUS(wstatus);
        --live;
        reaped = true;
      }
    }
    if (!reaped && live > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }
  if (timed_out) {
    return Status::Timeout("multi-process run exceeded the 120 s deadline");
  }

  LaunchResult merged;
  merged.num_processes = num_processes;
  merged.exit_codes = exit_codes;
  merged.killed = killed;
  merged.worker_iterations.assign(static_cast<size_t>(num_workers), 0);
  merged.worker_finish_seconds.assign(static_cast<size_t>(num_workers), 0.0);

  std::vector<MetricsSnapshot> snapshots;
  std::vector<const std::vector<float>*> replicas;
  std::vector<ProcessReport> reports(num_processes);
  std::string failures;
  for (int node = 0; node < num_processes; ++node) {
    if (killed[node]) continue;
    if (exit_codes[node] != 0) {
      failures += " node " + std::to_string(node) + " exited " +
                  std::to_string(exit_codes[node]) + " (see " +
                  log_path(node) + ")";
      continue;
    }
    Status s = LoadProcessReport(report_path(node), &reports[node]);
    if (!s.ok()) {
      failures += " node " + std::to_string(node) + ": " + s.message();
      continue;
    }
    const ProcessReport& r = reports[node];
    if (merged.strategy.empty()) merged.strategy = r.strategy;
    merged.wall_seconds = std::max(merged.wall_seconds, r.wall_seconds);
    merged.group_reduces = std::max(merged.group_reduces, r.group_reduces);
    for (size_t w = 0; w < r.worker_iterations.size() &&
                       w < merged.worker_iterations.size();
         ++w) {
      merged.worker_iterations[w] =
          std::max(merged.worker_iterations[w], r.worker_iterations[w]);
      merged.worker_finish_seconds[w] = std::max(
          merged.worker_finish_seconds[w], r.worker_finish_seconds[w]);
    }
    snapshots.push_back(r.metrics);
    if (r.role == "worker" && !r.replica.empty()) {
      replicas.push_back(&r.replica);
    }
  }
  if (!failures.empty()) {
    return Status::Internal("multi-process run failed:" + failures);
  }
  if (replicas.empty()) {
    return Status::Internal("no surviving worker produced a replica");
  }
  merged.metrics = MergeSnapshots(snapshots);

  // Evaluate the average of the surviving replicas exactly like the
  // in-proc engine evaluates its decentralized strategies: regenerate the
  // dataset and model from the config seed (bit-identical in every process
  // and here) and score the averaged parameters on the held-out test set.
  const size_t num_params = replicas[0]->size();
  for (const std::vector<float>* r : replicas) {
    if (r->size() != num_params) {
      return Status::Internal("worker replicas disagree on parameter count");
    }
  }
  merged.averaged_params.assign(num_params, 0.0f);
  for (const std::vector<float>* r : replicas) {
    for (size_t i = 0; i < num_params; ++i) {
      merged.averaged_params[i] += (*r)[i];
    }
  }
  const float inv = 1.0f / static_cast<float>(replicas.size());
  for (float& v : merged.averaged_params) v *= inv;

  SyntheticSpec spec = config.run.dataset;
  spec.seed = DataSeed(config.run);
  TrainTestSplit split = GenerateSynthetic(spec);
  std::unique_ptr<Model> model =
      MakeProxyModel(config.run.model, spec.dim, spec.num_classes);
  if (model->NumParams() != num_params) {
    return Status::Internal("replica size does not match the config's model");
  }
  merged.final_accuracy =
      EvaluateAccuracy(*model, merged.averaged_params.data(), split.test);
  merged.final_loss =
      EvaluateLoss(*model, merged.averaged_params.data(), split.test);

  *result = std::move(merged);
  return Status::OK();
}

std::string LaunchReportJson(const LaunchResult& result) {
  JsonWriter w;
  w.BeginObject();
  w.Key("strategy").String(result.strategy);
  w.Key("num_processes").Int(result.num_processes);
  w.Key("wall_seconds").Number(result.wall_seconds);
  w.Key("group_reduces").UInt(result.group_reduces);
  w.Key("final_loss").Number(result.final_loss);
  w.Key("final_accuracy").Number(result.final_accuracy);
  w.Key("exit_codes").BeginArray();
  for (int code : result.exit_codes) w.Int(code);
  w.EndArray();
  w.Key("killed").BeginArray();
  for (bool k : result.killed) w.Bool(k);
  w.EndArray();
  w.Key("worker_iterations").BeginArray();
  for (size_t n : result.worker_iterations) w.UInt(n);
  w.EndArray();
  w.Key("worker_finish_seconds").BeginArray();
  for (double t : result.worker_finish_seconds) w.Number(t);
  w.EndArray();
  w.Key("metrics");
  WriteMetricsSnapshot(&w, result.metrics);
  w.EndObject();
  return w.str();
}

}  // namespace pr
