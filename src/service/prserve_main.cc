// prserve: run the multi-tenant job service over a declarative JSON job API.
//
//   prserve --pool 8 --jobs jobs.json --out states.json
//   prserve --pool 8 --demo 20 --tenants alice,bob --out states.json
//
// Submits every job (a jobs file is a JSON array of JobSpec documents; the
// demo mode fabricates small two-worker partial-reduce jobs round-robin
// across the listed tenants), waits for the service to drain, writes the
// final job states as JSON, and prints a one-line summary. Exit status is 0
// only when every job completed.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/check.h"
#include "obs/json.h"
#include "obs/metric_table.h"
#include "service/job_spec.h"
#include "service/service.h"
#include "train/report.h"

namespace pr {
namespace {

int Usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [options]\n"
      "      --pool N         worker pool size (default 8)\n"
      "      --jobs FILE      JSON array of job specs to submit\n"
      "      --demo N         submit N generated small demo jobs instead\n"
      "      --tenants A,B    demo tenants, comma separated (default\n"
      "                       alice,bob; alice gets fair-share weight 2)\n"
      "      --out PATH       write final job states as JSON\n"
      "      --metrics PATH   write the merged service metrics as JSON\n",
      argv0);
  return 2;
}

std::vector<std::string> SplitCommas(const std::string& csv) {
  std::vector<std::string> out;
  std::stringstream stream(csv);
  std::string token;
  while (std::getline(stream, token, ',')) {
    if (!token.empty()) {
      out.push_back(token);
    }
  }
  return out;
}

JobSpec DemoJob(int index, const std::vector<std::string>& tenants) {
  JobSpec spec;
  spec.name = "demo-" + std::to_string(index);
  spec.tenant = tenants[static_cast<size_t>(index) % tenants.size()];
  spec.priority = index % 3;
  spec.min_workers = 2;
  spec.max_workers = 4;
  spec.data_shard = index;
  spec.engine = EngineKind::kThreaded;
  RunConfig& config = spec.config;
  config.strategy.kind = StrategyKind::kPReduceConst;
  config.strategy.group_size = 2;
  config.run.num_workers = 2;
  config.run.iterations_per_worker = 6;
  config.run.batch_size = 8;
  config.run.model.hidden = {8};
  config.run.dataset.num_train = 64;
  config.run.dataset.num_test = 32;
  config.run.dataset.dim = 8;
  config.run.dataset.num_classes = 3;
  config.run.seed = 100 + static_cast<uint64_t>(index);
  return spec;
}

int Run(int argc, char** argv) {
  int pool = 8;
  int demo = 0;
  std::string jobs_path;
  std::string out_path;
  std::string metrics_path;
  std::vector<std::string> tenants = {"alice", "bob"};
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s needs a value\n", flag);
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--pool") {
      pool = std::atoi(next("--pool"));
    } else if (arg == "--jobs") {
      jobs_path = next("--jobs");
    } else if (arg == "--demo") {
      demo = std::atoi(next("--demo"));
    } else if (arg == "--tenants") {
      tenants = SplitCommas(next("--tenants"));
    } else if (arg == "--out") {
      out_path = next("--out");
    } else if (arg == "--metrics") {
      metrics_path = next("--metrics");
    } else {
      return Usage(argv[0]);
    }
  }
  if (pool < 1 || tenants.empty() || (jobs_path.empty() && demo <= 0)) {
    return Usage(argv[0]);
  }

  std::vector<std::string> spec_docs;
  if (!jobs_path.empty()) {
    std::ifstream in(jobs_path);
    if (!in) {
      std::fprintf(stderr, "cannot read %s\n", jobs_path.c_str());
      return 1;
    }
    std::stringstream buffer;
    buffer << in.rdbuf();
    JsonValue doc;
    Status parsed = ParseJson(buffer.str(), &doc);
    if (!parsed.ok() || !doc.is_array()) {
      std::fprintf(stderr, "%s: %s\n", jobs_path.c_str(),
                   parsed.ok() ? "expected a JSON array of job specs"
                               : parsed.message().c_str());
      return 1;
    }
    for (const JsonValue& item : doc.items()) {
      spec_docs.push_back(item.Dump());
    }
  } else {
    for (int i = 0; i < demo; ++i) {
      spec_docs.push_back(JobSpecToJson(DemoJob(i, tenants)));
    }
  }

  ServiceOptions options;
  options.pool_size = pool;
  // Demo convention: the first tenant carries double weight, so fair-share
  // skew is visible in the per-tenant lease counters.
  options.tenant_weights[tenants.front()] = 2.0;
  TrainingService service(options);
  ServiceHandle handle(&service);

  int submitted = 0;
  for (const std::string& doc : spec_docs) {
    const std::string reply = handle.Submit(doc);
    JsonValue parsed;
    PR_CHECK(ParseJson(reply, &parsed).ok());
    const JsonValue* ok = parsed.Find("ok");
    if (ok == nullptr || !ok->is_bool() || !ok->bool_value()) {
      const JsonValue* error = parsed.Find("error");
      std::fprintf(stderr, "submit rejected: %s\n",
                   error != nullptr && error->is_string()
                       ? error->string_value().c_str()
                       : reply.c_str());
      return 1;
    }
    ++submitted;
  }

  const std::string drained = handle.Drain();
  if (!out_path.empty() && !WriteTextFile(out_path, drained + "\n")) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  if (!metrics_path.empty() &&
      !WriteTextFile(metrics_path, handle.Metrics() + "\n")) {
    std::fprintf(stderr, "cannot write %s\n", metrics_path.c_str());
    return 1;
  }

  int completed = 0;
  JsonValue states;
  PR_CHECK(ParseJson(drained, &states).ok());
  const JsonValue* jobs = states.Find("jobs");
  PR_CHECK(jobs != nullptr && jobs->is_array());
  for (const JsonValue& job : jobs->items()) {
    const JsonValue* state = job.Find("state");
    if (state != nullptr && state->is_string() &&
        state->string_value() == "completed") {
      ++completed;
    }
  }
  const MetricsSnapshot snapshot = service.Snapshot();
  std::printf(
      "prserve: %d/%d jobs completed on a %d-worker pool "
      "(utilization %.2f)\n",
      completed, submitted, pool,
      snapshot.gauge(metric::kServicePoolUtilization.name));
  return completed == submitted ? 0 : 1;
}

}  // namespace
}  // namespace pr

int main(int argc, char** argv) { return pr::Run(argc, argv); }
