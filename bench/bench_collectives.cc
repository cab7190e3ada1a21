// Collective data-plane bench: times the leader tree, the classic
// (copy-per-hop) ring, and the segmented pipelined ring over the in-process
// transport at several payload sizes, and reports the transport counters
// (bytes moved, payload materializations) alongside wall time. Emits
// BENCH_collectives.json; the headline number is the segmented ring's
// speedup over the classic ring at the largest size, which the CI smoke
// check asserts on.
//
// A second section measures the compressed data plane (DESIGN.md §5i):
// bytes-on-wire per codec for a 1M-float all-reduce, and the end-of-run
// training-loss delta each codec costs versus fp32 for CON/DYN/AR under
// both engines. CI asserts int8 >= 3.5x and fp16 >= 1.9x bytes reduction
// and <= 2% loss delta for fp16/int8 (top-k is reported, not gated).
//
// Flags: --out <path> (default BENCH_collectives.json)
//        --members <n> (default 8), --reps <n> (default 5)

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "comm/collectives.h"
#include "common/rng.h"
#include "compress/compressor.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "runtime/threaded_runtime.h"
#include "train/run.h"
#include "train/report.h"

namespace {

struct AlgoResult {
  std::string algo;
  double seconds = 0.0;         // best-of-reps wall time for one all-reduce
  double bytes_sent = 0.0;      // per all-reduce, summed over members
  double payload_copies = 0.0;  // per all-reduce, summed over members
};

using MemberFn = std::function<pr::Status(pr::Endpoint*, size_t, float*)>;

/// Runs `reps` all-reduces of `n` floats across `p` member threads and
/// returns the best per-rep wall time plus per-rep transport counters.
AlgoResult RunAlgo(const std::string& name, size_t p, size_t n, int reps,
                   const MemberFn& fn) {
  std::vector<pr::NodeId> members;
  for (size_t i = 0; i < p; ++i) members.push_back(static_cast<int>(i));

  pr::Rng rng(17);
  std::vector<std::vector<float>> base(p, std::vector<float>(n));
  for (auto& v : base) {
    for (auto& x : v) x = static_cast<float>(rng.Normal(0.0, 1.0));
  }

  AlgoResult result;
  result.algo = name;
  result.seconds = 1e30;
  for (int rep = 0; rep < reps; ++rep) {
    auto data = base;
    pr::InProcTransport transport(static_cast<int>(p));
    pr::MetricsRegistry registry;
    pr::MetricsShard* metrics = registry.NewShard();
    const auto begin = std::chrono::steady_clock::now();
    std::vector<std::thread> threads;
    for (size_t i = 0; i < p; ++i) {
      threads.emplace_back([&, i] {
        pr::Endpoint ep(&transport, members[i]);
        ep.AttachObservers(metrics, nullptr, nullptr, nullptr);
        pr::Status status = fn(&ep, i, data[i].data());
        if (!status.ok()) {
          std::fprintf(stderr, "%s failed: %s\n", name.c_str(),
                       status.message().c_str());
          std::abort();
        }
      });
    }
    for (auto& t : threads) t.join();
    const double secs =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      begin)
            .count();
    result.seconds = std::min(result.seconds, secs);
    result.bytes_sent = metrics->GetCounter("transport.bytes_sent")->value();
    result.payload_copies =
        metrics->GetCounter("transport.payload_copies")->value();
  }
  return result;
}

const pr::CompressionKind kCodecs[] = {
    pr::CompressionKind::kNone, pr::CompressionKind::kFp16,
    pr::CompressionKind::kInt8, pr::CompressionKind::kTopK};

// Small, deliberately shallow training runs (tiny learning rate, uniform
// delays) so the only thing that can separate two runs' final losses is the
// codec's quantization noise — the same trick the chaos/failover tests use.
pr::RunConfig ThreadedLossConfig(pr::StrategyKind kind,
                                 pr::CompressionKind codec) {
  pr::RunConfig config;
  config.strategy.kind = kind;
  config.strategy.group_size = 2;
  config.strategy.compression = codec;
  config.run.num_workers = 4;
  config.run.iterations_per_worker = 6;
  config.run.model.hidden = {8};
  config.run.batch_size = 16;
  config.run.dataset.num_train = 512;
  config.run.dataset.num_test = 128;
  config.run.dataset.dim = 8;
  config.run.dataset.num_classes = 3;
  config.run.seed = 11;
  config.run.sgd.learning_rate = 0.001;
  config.run.worker_delay_seconds.assign(4, 0.001);
  return config;
}

pr::RunConfig SimLossConfig(pr::StrategyKind kind,
                                   pr::CompressionKind codec) {
  pr::RunConfig config = pr::PaperSimConfig();
  config.run.num_workers = 4;
  config.sim.max_updates = 30;
  config.sim.accuracy_threshold = -1.0;
  config.run.seed = 11;
  config.run.sgd.learning_rate = 0.001;
  config.strategy.kind = kind;
  config.strategy.group_size = 2;
  config.strategy.compression = codec;
  return config;
}

struct LossRow {
  std::string engine;
  std::string strategy;
  pr::CompressionKind codec = pr::CompressionKind::kNone;
  double final_loss = 0.0;
  double rel_delta = 0.0;  // |loss - fp32 loss| / fp32 loss
};

}  // namespace

int main(int argc, char** argv) {
  std::string out_path = "BENCH_collectives.json";
  size_t members = 8;
  int reps = 5;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else if (std::strcmp(argv[i], "--members") == 0 && i + 1 < argc) {
      members = static_cast<size_t>(std::atoll(argv[++i]));
    } else if (std::strcmp(argv[i], "--reps") == 0 && i + 1 < argc) {
      reps = std::atoi(argv[++i]);
    } else {
      std::fprintf(stderr, "usage: %s [--out path] [--members n] [--reps n]\n",
                   argv[0]);
      return 2;
    }
  }
  if (members < 2 || reps < 1) {
    std::fprintf(stderr, "need --members >= 2 and --reps >= 1\n");
    return 2;
  }

  const std::vector<pr::NodeId> ids = [&] {
    std::vector<pr::NodeId> v;
    for (size_t i = 0; i < members; ++i) v.push_back(static_cast<int>(i));
    return v;
  }();
  const std::vector<double> weights(members, 1.0 / static_cast<double>(members));

  const size_t sizes[] = {size_t{1} << 14, size_t{1} << 17, size_t{1} << 20,
                          size_t{1} << 22};

  pr::TablePrinter table({"floats", "algo", "best (ms)", "MB sent",
                          "payload copies", "vs classic ring"});
  pr::JsonWriter json;
  json.BeginObject();
  json.Key("bench").String("collectives");
  json.Key("members").UInt(members);
  json.Key("reps").Int(reps);
  json.Key("sizes").BeginArray();

  double headline_speedup = 0.0;  // segmented vs classic ring at max size
  for (size_t n : sizes) {
    const MemberFn leader = [&](pr::Endpoint* ep, size_t i, float* data) {
      std::vector<float> v(data, data + n);
      pr::Status s =
          pr::LeaderWeightedAllReduce(ep, ids, weights, i, /*tag=*/1, &v);
      std::copy(v.begin(), v.end(), data);
      return s;
    };
    const MemberFn ring = [&](pr::Endpoint* ep, size_t i, float* data) {
      std::vector<float> v(data, data + n);
      pr::Status s =
          pr::RingWeightedAllReduce(ep, ids, weights, i, /*tag=*/1, &v);
      std::copy(v.begin(), v.end(), data);
      return s;
    };
    const MemberFn segmented = [&](pr::Endpoint* ep, size_t i, float* data) {
      return pr::GroupWeightedAllReduce(ep, ids, weights, i, /*tag=*/1, data,
                                        n);
    };

    std::vector<AlgoResult> results;
    results.push_back(RunAlgo("leader", members, n, reps, leader));
    results.push_back(RunAlgo("ring", members, n, reps, ring));
    results.push_back(RunAlgo("segmented_ring", members, n, reps, segmented));
    const double ring_seconds = results[1].seconds;

    json.BeginObject();
    json.Key("floats").UInt(n);
    json.Key("algos").BeginArray();
    for (const AlgoResult& r : results) {
      const double speedup =
          r.seconds > 0.0 ? ring_seconds / r.seconds : 0.0;
      json.BeginObject();
      json.Key("algo").String(r.algo);
      json.Key("best_seconds").Number(r.seconds);
      json.Key("bytes_sent").Number(r.bytes_sent);
      json.Key("payload_copies").Number(r.payload_copies);
      json.Key("speedup_vs_ring").Number(speedup);
      json.EndObject();
      if (r.algo == "segmented_ring" && n == sizes[3]) {
        headline_speedup = speedup;
      }
      table.AddRow({std::to_string(n), r.algo,
                    pr::FormatDouble(r.seconds * 1e3, 3),
                    pr::FormatDouble(r.bytes_sent / (1024.0 * 1024.0), 2),
                    pr::FormatDouble(r.payload_copies, 0),
                    pr::FormatDouble(speedup, 2) + "x"});
    }
    json.EndArray();
    json.EndObject();
  }
  json.EndArray();
  json.Key("segmented_speedup_at_max_size").Number(headline_speedup);

  // -------------------------------------------------------------------------
  // Compressed data plane: bytes on the wire per codec at 1M floats.
  // -------------------------------------------------------------------------
  const size_t compress_floats = size_t{1} << 20;
  pr::TablePrinter compress_table(
      {"codec", "best (ms)", "MB sent", "bytes vs fp32"});
  json.Key("compression").BeginObject();
  json.Key("floats").UInt(compress_floats);
  json.Key("codecs").BeginArray();
  double none_bytes = 0.0;
  double fp16_ratio = 0.0, int8_ratio = 0.0, topk_ratio = 0.0;
  for (pr::CompressionKind codec : kCodecs) {
    // One compressor per member, shared across reps (residuals persist, but
    // blob sizes — the thing measured here — are input-independent).
    std::vector<std::unique_ptr<pr::Compressor>> comps;
    for (size_t i = 0; i < members; ++i) {
      comps.push_back(std::make_unique<pr::Compressor>(codec));
    }
    const MemberFn compressed = [&](pr::Endpoint* ep, size_t i, float* data) {
      return pr::GroupWeightedAllReduce(ep, ids, weights, i, /*tag=*/1, data,
                                        compress_floats, comps[i].get());
    };
    AlgoResult r = RunAlgo(pr::CompressionKindName(codec), members,
                           compress_floats, reps, compressed);
    if (codec == pr::CompressionKind::kNone) none_bytes = r.bytes_sent;
    const double ratio = r.bytes_sent > 0.0 ? none_bytes / r.bytes_sent : 0.0;
    if (codec == pr::CompressionKind::kFp16) fp16_ratio = ratio;
    if (codec == pr::CompressionKind::kInt8) int8_ratio = ratio;
    if (codec == pr::CompressionKind::kTopK) topk_ratio = ratio;
    json.BeginObject();
    json.Key("codec").String(r.algo);
    json.Key("best_seconds").Number(r.seconds);
    json.Key("bytes_sent").Number(r.bytes_sent);
    json.Key("bytes_ratio_vs_fp32").Number(ratio);
    json.EndObject();
    compress_table.AddRow({r.algo, pr::FormatDouble(r.seconds * 1e3, 3),
                           pr::FormatDouble(r.bytes_sent / (1024.0 * 1024.0),
                                            2),
                           pr::FormatDouble(ratio, 2) + "x"});
  }
  json.EndArray();
  json.EndObject();

  // -------------------------------------------------------------------------
  // End-of-run loss per codec: what the compression costs training, for
  // CON/DYN/AR under the threaded and the simulated engine.
  // -------------------------------------------------------------------------
  const struct {
    pr::StrategyKind kind;
    const char* name;
  } kLossKinds[] = {{pr::StrategyKind::kPReduceConst, "CON"},
                    {pr::StrategyKind::kPReduceDynamic, "DYN"},
                    {pr::StrategyKind::kAllReduce, "AR"}};
  std::vector<LossRow> loss_rows;
  double max_gated_delta = 0.0;  // worst fp16/int8 delta across the grid
  for (const auto& strat : kLossKinds) {
    double threaded_fp32 = 0.0, sim_fp32 = 0.0;
    for (pr::CompressionKind codec : kCodecs) {
      pr::ThreadedRunResult threaded =
          pr::RunThreaded(ThreadedLossConfig(strat.kind, codec));
      pr::RunResult sim =
          pr::StartRun(SimLossConfig(strat.kind, codec), pr::EngineKind::kSim);
      const double sim_loss = sim.curve.empty() ? 0.0 : sim.curve.back().loss;
      if (codec == pr::CompressionKind::kNone) {
        threaded_fp32 = threaded.final_loss;
        sim_fp32 = sim_loss;
      }
      LossRow threaded_row{"threaded", strat.name, codec, threaded.final_loss,
                           threaded_fp32 > 0.0
                               ? std::abs(threaded.final_loss - threaded_fp32) /
                                     threaded_fp32
                               : 0.0};
      LossRow sim_row{"sim", strat.name, codec, sim_loss,
                      sim_fp32 > 0.0
                          ? std::abs(sim_loss - sim_fp32) / sim_fp32
                          : 0.0};
      loss_rows.push_back(threaded_row);
      loss_rows.push_back(sim_row);
      if (codec == pr::CompressionKind::kFp16 ||
          codec == pr::CompressionKind::kInt8) {
        max_gated_delta = std::max(
            max_gated_delta, std::max(threaded_row.rel_delta,
                                      sim_row.rel_delta));
      }
    }
  }
  pr::TablePrinter loss_table(
      {"engine", "strategy", "codec", "final loss", "vs fp32"});
  json.Key("end_loss").BeginArray();
  for (const LossRow& row : loss_rows) {
    json.BeginObject();
    json.Key("engine").String(row.engine);
    json.Key("strategy").String(row.strategy);
    json.Key("codec").String(pr::CompressionKindName(row.codec));
    json.Key("final_loss").Number(row.final_loss);
    json.Key("rel_delta_vs_fp32").Number(row.rel_delta);
    json.EndObject();
    loss_table.AddRow({row.engine, row.strategy,
                       pr::CompressionKindName(row.codec),
                       pr::FormatDouble(row.final_loss, 5),
                       pr::FormatDouble(row.rel_delta * 100.0, 3) + "%"});
  }
  json.EndArray();
  json.Key("fp16_bytes_ratio").Number(fp16_ratio);
  json.Key("int8_bytes_ratio").Number(int8_ratio);
  json.Key("topk_bytes_ratio").Number(topk_ratio);
  json.Key("max_loss_rel_delta_fp16_int8").Number(max_gated_delta);

  json.EndObject();

  table.Print();
  std::printf("\n");
  compress_table.Print();
  std::printf("\n");
  loss_table.Print();
  std::printf("\nsegmented vs classic ring at %zu floats: %.2fx\n", sizes[3],
              headline_speedup);
  std::printf(
      "bytes on wire vs fp32 at %zu floats: fp16 %.2fx, int8 %.2fx, "
      "topk %.2fx; worst fp16/int8 loss delta %.3f%%\n",
      compress_floats, fp16_ratio, int8_ratio, topk_ratio,
      max_gated_delta * 100.0);
  if (!pr::WriteTextFile(out_path, json.str())) {
    std::fprintf(stderr, "failed to write %s\n", out_path.c_str());
    return 1;
  }
  std::printf("wrote %s (%zu bytes)\n", out_path.c_str(), json.str().size());
  return 0;
}
