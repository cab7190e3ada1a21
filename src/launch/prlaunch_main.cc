// prlaunch: run a training job as real processes over the socket transport.
//
//   prlaunch -n 4 --iters 40 --strategy CON --workdir /tmp/run
//
// spawns 4 worker processes plus the controller (for P-Reduce kinds),
// connected over Unix-domain sockets under the workdir, and merges their
// reports into one run-level result. The same binary is its own node entry
// point: the launcher re-execs it with `--role node` for each process.
//
// Chaos: --kill-worker W --kill-after S SIGKILLs worker W's process mid-run;
// the survivors must finish through the fault-tolerant protocol. Parity:
// --compare-inproc re-runs the identical config on the in-proc engine and
// fails (exit 1) if the final losses differ by more than --loss-tol, or if
// an All-Reduce run's transport.payload_copies counters diverge (the
// zero-copy send-path check).

#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "ckpt/manifest.h"
#include "common/line_reader.h"
#include "launch/config_io.h"
#include "launch/launcher.h"
#include "launch/process_runner.h"
#include "obs/metric_table.h"
#include "runtime/threaded_runtime.h"
#include "scenario/scenario.h"
#include "strategies/strategy.h"
#include "topo/topology.h"

namespace pr {
namespace {

int Usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [options]\n"
      "  -n, --workers N       worker process count (default 4)\n"
      "      --iters N         local iterations per worker (default 40)\n"
      "      --strategy KIND   CON | DYN | AR (default CON)\n"
      "      --compression C   none | fp16 | int8 | topk (default none)\n"
      "      --group-size P    P-Reduce group size (default 3)\n"
      "      --seed S          run seed (default 7)\n"
      "      --batch B         batch size (default 32)\n"
      "      --lr L            SGD learning rate (default 0.1)\n"
      "      --momentum M      SGD momentum (default 0.9)\n"
      "      --delay d0,d1,... per-worker iteration delays (seconds)\n"
      "      --topology FILE   cluster topology ('prtopo 1' text or JSON);\n"
      "                        enables topology-aware group selection\n"
      "      --scenario FILE   churn trace ('prtrace 1' text or JSON);\n"
      "                        compiled into the run's fault plan\n"
      "      --hierarchical    two-level P-Reduce (needs --topology)\n"
      "      --cross-period K  cross-node merge every K groups (default 4)\n"
      "      --workdir DIR     scratch dir (default: mkdtemp under /tmp)\n"
      "      --tcp             TCP loopback instead of Unix-domain sockets\n"
      "      --ft              force the fault-tolerant protocol\n"
      "      --kill-worker W   SIGKILL worker W's process mid-run\n"
      "      --kill-after S    seconds before the kill (default 0.25)\n"
      "      --ckpt-dir DIR    coordinated checkpoint directory\n"
      "      --ckpt-every K    checkpoint every K local iterations\n"
      "      --resume PATH     resume from this manifest ('latest' picks\n"
      "                        the newest intact one in --ckpt-dir)\n"
      "      --compare-inproc  run the in-proc engine too and check parity\n"
      "      --loss-tol T      parity tolerance (default 1e-3)\n"
      "      --report PATH     write the merged result as JSON\n",
      argv0);
  return 2;
}

bool ParseDelays(std::string_view arg, std::vector<double>* out) {
  out->clear();
  size_t start = 0;
  while (start <= arg.size()) {
    size_t comma = arg.find(',', start);
    if (comma == std::string_view::npos) comma = arg.size();
    if (!ParseToken(arg.substr(start, comma - start), &out->emplace_back())) {
      return false;
    }
    start = comma + 1;
  }
  return true;
}

std::string SelfBinary() {
  char buf[4096];
  const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  if (n <= 0) return "";
  buf[n] = '\0';
  return buf;
}

// Child entry point: `prlaunch --role node --node I --config P --sockdir D
// --report P [--tcp] [--resume M]`.
int NodeMain(int argc, char** argv) {
  NodeRunOptions options;
  std::string config_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--role") {
      next();  // already dispatched on
    } else if (arg == "--node") {
      const char* v = next();
      if (!v || !ParseToken(v, &options.node)) return Usage(argv[0]);
    } else if (arg == "--config") {
      const char* v = next();
      if (!v) return Usage(argv[0]);
      config_path = v;
    } else if (arg == "--sockdir") {
      const char* v = next();
      if (!v) return Usage(argv[0]);
      options.socket.dir = v;
    } else if (arg == "--report") {
      const char* v = next();
      if (!v) return Usage(argv[0]);
      options.report_path = v;
    } else if (arg == "--resume") {
      const char* v = next();
      if (!v) return Usage(argv[0]);
      options.resume_manifest = v;
    } else if (arg == "--tcp") {
      options.socket.tcp = true;
    } else {
      std::fprintf(stderr, "unknown node flag %s\n", arg.c_str());
      return 2;
    }
  }
  Status s = LoadRunConfig(config_path, &options.config);
  if (!s.ok()) {
    std::fprintf(stderr, "node %d: %s\n", options.node, s.message().c_str());
    return 3;
  }
  s = RunNode(options);
  if (!s.ok()) {
    std::fprintf(stderr, "node %d: %s\n", options.node, s.message().c_str());
    return 3;
  }
  return 0;
}

int LauncherMain(int argc, char** argv) {
  LaunchOptions options;
  RunConfig& config = options.config;
  config.strategy.kind = StrategyKind::kPReduceConst;
  config.run.iterations_per_worker = 40;
  bool compare_inproc = false;
  double loss_tol = 1e-3;
  std::string json_path;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* v = nullptr;
    // A flag value that does not parse in full is a usage error (exit 2).
    auto take = [&](auto* out) { return (v = next()) && ParseToken(v, out); };
    if (arg == "-n" || arg == "--workers") {
      if (!take(&config.run.num_workers)) return Usage(argv[0]);
    } else if (arg == "--iters") {
      if (!take(&config.run.iterations_per_worker)) return Usage(argv[0]);
    } else if (arg == "--strategy") {
      // Any strategy name parses; Launch rejects the kinds it cannot run.
      if (!(v = next()) ||
          !ParseEnum(kStrategyKindNames, v, &config.strategy.kind)) {
        return Usage(argv[0]);
      }
    } else if (arg == "--compression") {
      if (!(v = next()) ||
          !ParseEnum(kCompressionKindNames, v, &config.strategy.compression)) {
        return Usage(argv[0]);
      }
    } else if (arg == "--group-size") {
      if (!take(&config.strategy.group_size)) return Usage(argv[0]);
    } else if (arg == "--seed") {
      if (!take(&config.run.seed)) return Usage(argv[0]);
    } else if (arg == "--batch") {
      if (!take(&config.run.batch_size)) return Usage(argv[0]);
    } else if (arg == "--lr") {
      if (!take(&config.run.sgd.learning_rate)) return Usage(argv[0]);
    } else if (arg == "--momentum") {
      if (!take(&config.run.sgd.momentum)) return Usage(argv[0]);
    } else if (arg == "--delay") {
      if (!(v = next()) || !ParseDelays(v, &config.run.worker_delay_seconds)) {
        return Usage(argv[0]);
      }
    } else if (arg == "--topology") {
      if (!(v = next())) return Usage(argv[0]);
      Status ts = Topology::Load(v, &config.run.topology);
      if (!ts.ok()) {
        std::fprintf(stderr, "--topology %s: %s\n", v, ts.message().c_str());
        return 2;
      }
    } else if (arg == "--scenario") {
      if (!(v = next())) return Usage(argv[0]);
      Status ss = LoadScenario(v, &config.run.scenario);
      if (!ss.ok()) {
        std::fprintf(stderr, "--scenario %s: %s\n", v, ss.message().c_str());
        return 2;
      }
    } else if (arg == "--hierarchical") {
      config.strategy.hierarchy.enabled = true;
    } else if (arg == "--cross-period") {
      if (!take(&config.strategy.hierarchy.cross_period)) return Usage(argv[0]);
    } else if (arg == "--workdir") {
      if (!(v = next())) return Usage(argv[0]);
      options.workdir = v;
    } else if (arg == "--tcp") {
      options.socket.tcp = true;
    } else if (arg == "--ft") {
      config.run.fault.force_fault_tolerant = true;
    } else if (arg == "--kill-worker") {
      if (!take(&options.kill.worker)) return Usage(argv[0]);
    } else if (arg == "--kill-after") {
      if (!take(&options.kill.after_seconds)) return Usage(argv[0]);
    } else if (arg == "--ckpt-dir") {
      if (!(v = next())) return Usage(argv[0]);
      config.run.ckpt.dir = v;
    } else if (arg == "--ckpt-every") {
      if (!take(&config.run.ckpt.every_iterations)) return Usage(argv[0]);
    } else if (arg == "--resume") {
      if (!(v = next())) return Usage(argv[0]);
      options.resume_manifest = v;
    } else if (arg == "--compare-inproc") {
      compare_inproc = true;
    } else if (arg == "--loss-tol") {
      if (!take(&loss_tol)) return Usage(argv[0]);
    } else if (arg == "--report") {
      if (!(v = next())) return Usage(argv[0]);
      json_path = v;
    } else if (arg == "-h" || arg == "--help") {
      Usage(argv[0]);
      return 0;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", arg.c_str());
      return Usage(argv[0]);
    }
  }

  if (options.workdir.empty()) {
    char tmpl[] = "/tmp/prlaunch.XXXXXX";
    const char* dir = ::mkdtemp(tmpl);
    if (dir == nullptr) {
      std::fprintf(stderr, "mkdtemp failed\n");
      return 1;
    }
    options.workdir = dir;
  }
  if (options.resume_manifest == "latest") {
    if (config.run.ckpt.dir.empty()) {
      std::fprintf(stderr, "--resume latest needs --ckpt-dir\n");
      return 2;
    }
    RunManifest manifest;
    Status found = FindLatestManifest(config.run.ckpt.dir, &manifest,
                                      &options.resume_manifest);
    if (!found.ok()) {
      std::fprintf(stderr, "--resume latest: %s\n", found.message().c_str());
      return 2;
    }
  }
  options.self_binary = SelfBinary();

  LaunchResult result;
  Status s = Launch(options, &result);
  if (!s.ok()) {
    std::fprintf(stderr, "launch failed: %s (workdir %s)\n",
                 s.message().c_str(), options.workdir.c_str());
    return 1;
  }
  std::printf(
      "PRLAUNCH_OK strategy=%s processes=%d loss=%.6f acc=%.4f "
      "group_reduces=%llu wall=%.3f workdir=%s\n",
      result.strategy.c_str(), result.num_processes, result.final_loss,
      result.final_accuracy,
      static_cast<unsigned long long>(result.group_reduces),
      result.wall_seconds, options.workdir.c_str());

  int rc = 0;
  if (compare_inproc) {
    // Reproduce exactly what Launch ran: a kill forces the FT protocol on
    // the socket side, so the in-proc baseline runs it too (uninterrupted).
    RunConfig inproc = config;
    if (options.kill.armed()) inproc.run.fault.force_fault_tolerant = true;
    ThreadedRunResult baseline = RunThreaded(inproc);
    const double delta = std::fabs(baseline.final_loss - result.final_loss);
    std::printf("PRLAUNCH_PARITY inproc_loss=%.6f socket_loss=%.6f "
                "delta=%.6f tol=%g\n",
                baseline.final_loss, result.final_loss, delta, loss_tol);
    if (delta > loss_tol) {
      std::fprintf(stderr, "loss parity violated: %.6f > %g\n", delta,
                   loss_tol);
      rc = 1;
    }
    if (config.strategy.kind == StrategyKind::kAllReduce &&
        !options.kill.armed()) {
      // All-Reduce is deterministic, so the copy counters must agree
      // exactly — the zero-copy guarantee of the socket send path.
      const char* copies = metric::kTransportPayloadCopies.name;
      const double socket_copies = result.metrics.counter(copies);
      const double inproc_copies = baseline.metrics.counter(copies);
      std::printf("PRLAUNCH_COPIES socket=%.0f inproc=%.0f\n", socket_copies,
                  inproc_copies);
      if (socket_copies != inproc_copies) {
        std::fprintf(stderr, "payload_copies diverged: socket %.0f vs "
                             "in-proc %.0f\n",
                     socket_copies, inproc_copies);
        rc = 1;
      }
    }
  }
  if (!json_path.empty()) {
    FILE* f = std::fopen(json_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
      return 1;
    }
    const std::string json = LaunchReportJson(result);
    std::fwrite(json.data(), 1, json.size(), f);
    std::fputc('\n', f);
    std::fclose(f);
  }
  return rc;
}

}  // namespace
}  // namespace pr

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--role") == 0 && i + 1 < argc &&
        std::strcmp(argv[i + 1], "node") == 0) {
      return pr::NodeMain(argc, argv);
    }
  }
  return pr::LauncherMain(argc, argv);
}
